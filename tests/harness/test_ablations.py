"""Ablations of the design choices in DESIGN.md §5, one mechanism at a
time, on the no-fit single-server workload of Figs 1/6 (scaled down).

DESIGN.md §5 also lists the ablations that measured no difference.
"""

from repro.core import metrics
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.harness.figures import BASE_VALUE, _spec_for, run_single_server


def latency(profile, *, scale, ops, read_fraction=0.5, **kw):
    spec = _spec_for(False, scale, ops, BASE_VALUE, read_fraction)
    return metrics.effective_latency(
        run_single_server(profile, spec, scale=scale, **kw).records)


def test_deeper_window_pipelines():
    """Window 1 degenerates to blocking; deep windows overlap."""
    by = {w: latency(H_RDMA_OPT_NONB_I, scale=64, ops=200, window=w)
          for w in (1, 16, 64)}
    assert by[64] < by[1]
    assert by[16] <= by[1]


def test_async_flush_never_much_slower():
    """Staging flushes must never be slower than blocking on the device.
    Scale 32 at 300 ops on a write-heavy mix: at scale 64 / 200 ops the
    two runs are identical."""
    sync, staged = (latency(H_RDMA_OPT_NONB_I, scale=32, ops=300,
                            read_fraction=0.25, async_flush=mode)
                    for mode in (False, True))
    assert staged != sync
    assert staged <= 1.05 * sync
