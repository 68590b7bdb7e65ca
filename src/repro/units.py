"""Physical unit constants.

The simulator's clock is in **seconds** (floats) and all sizes are in
**bytes** (ints). These constants keep parameter tables readable and are
used everywhere instead of bare magic numbers.
"""

# -- time ------------------------------------------------------------------
SECOND = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9

# -- size ------------------------------------------------------------------
BYTE = 1
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

# -- rates -----------------------------------------------------------------
GBPS = 1e9 / 8  # 1 gigabit/s expressed in bytes/second
MBPS_BYTES = 1e6  # 1 megabyte/s in bytes/second (decimal, as drive specs use)
