"""Every shipped configuration must produce linearizable histories.

The grid covers replication x write mode x router, each with and
without a crash+partition fault schedule — the acceptance matrix for
the consistency checker.
"""

import itertools

import pytest

from repro.consistency import run_scenario
from repro.consistency.fuzz import Scenario

FAULTS = ("crash:server=1,at=0.003,duration=0.006",
          "partition:server=2,at=0.005,duration=0.004")

GRID = list(itertools.product(
    (1, 2, 3),                 # replication
    ("sync", "async"),         # write mode
    ("modulo", "ketama"),      # router
    (False, True),             # fault plan off / on
))


@pytest.mark.parametrize(
    "replication,write_mode,router,faulty", GRID,
    ids=[f"R{r}-{w}-{ro}{'-faults' if fl else ''}"
         for r, w, ro, fl in GRID])
def test_shipped_config_linearizable(replication, write_mode, router,
                                     faulty):
    scn = Scenario(seed=11, num_clients=2, ops_per_client=40,
                   replication=replication, write_mode=write_mode,
                   router=router,
                   fault_specs=FAULTS if faulty else (),
                   ttl_ops=True, counter_ops=True)
    report, _events, _rec = run_scenario(scn)
    assert report.ok, report.violations[:3]
