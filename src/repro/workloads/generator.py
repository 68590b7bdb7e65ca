"""Operation-stream generation for the web-scale micro-benchmarks.

Generation is vectorized: every random draw is made in bulk up front
(numpy), keys are materialized once per *unique* index, and the
per-op Python work is a single list comprehension over plain lists.
The draw sequence — which RNG streams exist, their salts, and the
order draws are consumed in — is that of the original per-op loop, so
streams are bit-identical to the pre-vectorization ones; digests of
every stream the figures, kvbench and the tests draw are pinned in
``tests/golden/op_streams.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.workloads.distributions import make_sampler
from repro.workloads.keyspace import Keyspace

#: Workload stream shapes supported by :func:`generate_ops`.
PATTERNS = ("basic", "counter", "ttl-churn", "hot-storm")


@dataclass(frozen=True, slots=True)
class Op:
    """One operation of a generated stream."""

    kind: str  # "get"|"set"|"rmw"|"scan"|"incr"|"decr"|"gat"|"touch"
    key: bytes
    value_length: int
    #: Relative TTL the op carries (set/gat/touch); 0.0 = none. The
    #: driver converts to an absolute deadline at issue time.
    ttl: float = 0.0
    #: incr/decr step.
    delta: int = 1
    #: incr/decr auto-create seed (None: plain arithmetic).
    initial: Optional[int] = None
    #: Scan target keys (driven as one mget over the range).
    keys: Tuple[bytes, ...] = ()


@dataclass(frozen=True)
class WorkloadSpec:
    """One micro-benchmark configuration (the knobs of Section VI-A).

    ``value_sizes`` optionally replaces the single ``value_length`` with
    a weighted mixture, e.g. ``((512, 0.8), (64 * KB, 0.2))`` for a
    web-scale 80/20 small/large split. Each *key* gets a stable size
    (assigned pseudo-randomly from the mixture at dataset-construction
    time), so overwrites and backend repopulation keep sizes coherent —
    and a single server exercises multiple slab classes, which is what
    the adaptive I/O design switches schemes over.
    """

    num_ops: int
    num_keys: int
    value_length: int
    #: reads per (reads+writes); 1.0 = read-only, 0.5 = the paper's
    #: write-heavy 50:50 mix.
    read_fraction: float = 0.5
    distribution: str = "zipf"  # "zipf" | "uniform"
    theta: float = 0.99
    seed: int = 1
    #: Optional weighted size mixture: ((size_bytes, weight), ...).
    value_sizes: Optional[Tuple[Tuple[int, float], ...]] = None
    #: Stream shape: "basic" (get/set per ``read_fraction``), "counter"
    #: (incr/decr-heavy hit counting), "ttl-churn" (every store
    #: carries a TTL; reads mix in gat/touch refreshes — the
    #: cache-aside pattern that exercises active expiry), or
    #: "hot-storm" (a rotating single-key flash crowd layered on the
    #: zipf base mix — the cache-stampede shape that concentrates
    #: load on one server at a time).
    pattern: str = "basic"
    #: Relative TTL stores carry (seconds). 0.0 disables; "ttl-churn"
    #: defaults to 50 ms when unset.
    ttl: float = 0.0
    #: hot-storm: share of ops redirected to the current storm key.
    storm_fraction: float = 0.3
    #: hot-storm: ops per client between storm-key rotations.
    storm_phase_ops: int = 100

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")
        if self.num_ops < 1 or self.num_keys < 1 or self.value_length < 0:
            raise ValueError("invalid workload sizing")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown workload pattern {self.pattern!r}")
        if self.ttl < 0.0:
            raise ValueError("ttl must be >= 0")
        if not 0.0 <= self.storm_fraction <= 1.0:
            raise ValueError("storm_fraction must be within [0, 1]")
        if self.storm_phase_ops < 1:
            raise ValueError("storm_phase_ops must be >= 1")
        if self.value_sizes is not None:
            if not self.value_sizes:
                raise ValueError("value_sizes must not be empty")
            total = sum(w for _, w in self.value_sizes)
            if abs(total - 1.0) > 1e-9:
                raise ValueError("value_sizes weights must sum to 1.0")

    def _size_table(self) -> List[int]:
        """Per-key-index value sizes (stable for a given spec), one
        shared ``int`` object per distinct size."""
        return _size_table_cached(self.num_keys, self.value_length,
                                  self.value_sizes, self.seed)

    def size_of_index(self, index: int) -> int:
        return self._size_table()[index]

    def value_length_for(self, key: bytes) -> int:
        """Value size of a key (for the backend database on misses)."""
        if self.value_sizes is None:
            return self.value_length
        if not key.startswith(b"key:"):  # not from this spec's keyspace
            return self.value_length
        try:
            index = int(key.rsplit(b":", 1)[-1])
        except ValueError:
            return self.value_length
        if 0 <= index < self.num_keys:
            return self.size_of_index(index)
        return self.value_length

    @property
    def total_bytes(self) -> int:
        """Dataset footprint (values only)."""
        if self.value_sizes is None:
            return self.num_keys * self.value_length
        return sum(self._size_table())


@lru_cache(maxsize=128)
def _size_table_cached(num_keys: int, value_length: int,
                       value_sizes, seed: int) -> List[int]:
    if value_sizes is None:
        return [int(value_length)] * num_keys
    sizes = [int(s) for s, _ in value_sizes]
    weights = np.array([w for _, w in value_sizes])
    rng = np.random.default_rng(seed + 0x51CE)
    return [sizes[j] for j in
            rng.choice(len(sizes), size=num_keys, p=weights).tolist()]


def _storm_indices(spec: WorkloadSpec, seed: int,
                   indices: np.ndarray) -> np.ndarray:
    """Overlay the rotating flash crowd on a base index stream.

    Storm *membership* is a per-client draw (``seed`` + 0x5701) so the
    clients' streams stay decorrelated, but the storm key of each phase
    derives from ``spec.seed`` alone (salt 0x5702): every client mobs
    the *same* key at the same point in its stream, which is what makes
    the pattern a flash crowd rather than extra per-client skew.
    """
    n = spec.num_ops
    member = (np.random.default_rng(seed + 0x5701).random(n)
              < spec.storm_fraction)
    num_phases = -(-n // spec.storm_phase_ops)
    hot = np.random.default_rng(spec.seed + 0x5702).integers(
        0, spec.num_keys, size=num_phases)
    phase = np.arange(n) // spec.storm_phase_ops
    return np.where(member, hot[phase], indices)


def generate_ops(spec: WorkloadSpec, client_index: int = 0,
                 stream_offset: int = 0) -> List[Op]:
    """Deterministic op stream for one client.

    Different clients get decorrelated *draw sequences* via
    ``client_index`` (or ``stream_offset`` for extra phases such as
    warmup) while sharing the spec's rank-to-key scramble — all streams
    of one workload agree on which keys are hot, as YCSB clients do.
    """
    seed = spec.seed + 7919 * client_index + stream_offset
    sampler = make_sampler(spec.distribution, spec.num_keys,
                           theta=spec.theta, seed=seed,
                           perm_seed=spec.seed)
    keyspace = Keyspace(spec.num_keys)
    sizes = spec._size_table()
    indices = sampler.sample(spec.num_ops)
    n = spec.num_ops
    if spec.pattern == "counter":
        # Hit-counting: mostly increments, some decrements, reads of
        # the running totals. Auto-create seeds the first touch of a
        # counter, so no preload is needed.
        rng = np.random.default_rng(seed + 0xC0DE)
        draws = rng.random(n).tolist()
        deltas = rng.integers(1, 5, size=n).tolist()
        keys = keyspace.keys_for(indices)
        vlens = [sizes[i] for i in indices.tolist()]
        rf = spec.read_fraction
        cut = rf + 0.75 * (1 - rf)
        return [
            Op("get", k, v) if d < rf else
            Op("incr", k, v, delta=dd, initial=0) if d < cut else
            Op("decr", k, v, delta=dd, initial=0)
            for k, v, d, dd in zip(keys, vlens, draws, deltas)
        ]
    if spec.pattern == "ttl-churn":
        # Cache-aside with expiring entries: stores always carry a TTL,
        # and a slice of the reads refresh deadlines (gat) or extend
        # them in place (touch).
        ttl = spec.ttl or 0.050
        rng = np.random.default_rng(seed + 0x77E)
        draws = rng.random(n).tolist()
        ttls = (ttl * rng.uniform(0.5, 1.5, size=n)).tolist()
        keys = keyspace.keys_for(indices)
        vlens = [sizes[i] for i in indices.tolist()]
        rf = spec.read_fraction
        cut_get = 0.70 * rf
        cut_gat = 0.85 * rf
        return [
            Op("get", k, v) if d < cut_get else
            Op("gat", k, v, ttl=t) if d < cut_gat else
            Op("touch", k, v, ttl=t) if d < rf else
            Op("set", k, v, ttl=t)
            for k, v, d, t in zip(keys, vlens, draws, ttls)
        ]
    if spec.pattern == "hot-storm":
        indices = _storm_indices(spec, seed, indices)
    reads = (np.random.default_rng(seed + 0xA11CE).random(n)
             < spec.read_fraction).tolist()
    keys = keyspace.keys_for(indices)
    vlens = [sizes[i] for i in indices.tolist()]
    ttl = spec.ttl
    # Op is frozen: repeated (read?, key) pairs — frequent under zipf
    # skew and a defining feature of hot-storm — share one instance.
    memo = {}
    ops = []
    append = ops.append
    for k, v, r in zip(keys, vlens, reads):
        op = memo.get((r, k))
        if op is None:
            op = memo[(r, k)] = (Op("get", k, v) if r
                                 else Op("set", k, v, ttl=ttl))
        append(op)
    return ops


def make_dataset(spec: WorkloadSpec) -> List[Tuple[bytes, int]]:
    """(key, value_length) pairs for preloading the whole keyspace."""
    keyspace = Keyspace(spec.num_keys)
    return list(zip(keyspace.keys_for(np.arange(spec.num_keys)),
                    spec._size_table()))
