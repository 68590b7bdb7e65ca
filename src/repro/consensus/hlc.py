"""Hybrid logical clocks for convergent last-writer-wins replication.

A :class:`HybridLogicalClock` issues totally-ordered stamps
``(physical, logical, origin)``:

* ``physical`` is the simulation clock at stamp time;
* ``logical`` is a counter that breaks ties when several stamps are
  issued at the same simulated instant (non-blocking clients can issue
  many writes without the clock advancing);
* ``origin`` is the stamping node's id — the deterministic final
  tiebreak, so two stamps from *different* nodes never compare equal.

Plain tuple comparison is the merge order: later physical time wins,
then the logical counter, then the origin id. Replica apply and
anti-entropy resync both use exactly this order
(:meth:`repro.server.hybrid.HybridSlabManager.store` /
``hlc_accepts``), which is what makes concurrent writes under a
partition converge to a single winner on every replica.

Stamps ride on the ``hlc`` field of set and delete headers
(:class:`~repro.server.protocol.Request`) and on history events, so the
eventual-consistency checker can justify the post-quiesce winner
against the issued order.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: A stamp: ``(physical seconds, logical counter, origin node id)``.
Stamp = Tuple[float, int, int]


class HybridLogicalClock:
    """One node's stamp source.

    The clock never goes backwards: if the simulation clock has not
    advanced since the last stamp (or a larger remote stamp was
    observed), the logical counter increments instead.
    """

    __slots__ = ("sim", "origin", "_physical", "_logical")

    def __init__(self, sim, origin: int):
        self.sim = sim
        self.origin = origin
        self._physical = -1.0
        self._logical = 0

    def stamp(self) -> Stamp:
        """Issue the next stamp (strictly greater than every previous
        stamp from this clock)."""
        now = self.sim.now
        if now > self._physical:
            self._physical = now
            self._logical = 0
        else:
            self._logical += 1
        return (self._physical, self._logical, self.origin)

    def observe(self, stamp: Optional[Stamp]) -> None:
        """Fold a remote stamp in so future local stamps sort after it."""
        if stamp is None:
            return
        physical, logical, _ = stamp
        if physical > self._physical:
            self._physical = physical
            self._logical = logical
        elif physical == self._physical and logical > self._logical:
            self._logical = logical


def later(a: Optional[Stamp], b: Optional[Stamp]) -> Optional[Stamp]:
    """The larger of two optional stamps (``None`` loses to anything)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b
