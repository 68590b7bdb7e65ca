"""Checker unit tests over hand-built histories.

Each test constructs the smallest history exhibiting (or not) one
violation class, so a regression points at exactly one rule.
"""

from repro.consistency import HistoryEvent, check_history


def ev(client="c0", req_id=0, op="set", api=None, key="k",
       status="STORED", tok=0, vlen=100, t0=0.0, t1=1.0, server=0,
       user=True, parent=-1, exp=0.0, hlc=None):
    return HistoryEvent(client=client, req_id=req_id, op=op,
                        api=api or op, key=key, status=status,
                        cas_token=tok, value_length=vlen,
                        t_issue=t0, t_complete=t1, server=server,
                        user=user, parent=parent, expiration=exp, hlc=hlc)


def kinds(report):
    return {v.kind for v in report.violations}


class TestCleanHistories:
    def test_write_then_read(self):
        report = check_history([
            ev(req_id=0, op="set", status="STORED", tok=1, t0=0, t1=1),
            ev(req_id=1, op="get", status="HIT", tok=1, t0=2, t1=3),
        ])
        assert report.ok
        assert report.ops_checked == 2

    def test_concurrent_read_may_see_either(self):
        # The read overlaps the write: old (initial) or new token both
        # linearize.
        initial = {(0, "k"): (1, 100)}
        for seen in (1, 2):
            report = check_history([
                ev(req_id=0, op="set", status="STORED", tok=2, t0=0, t1=4),
                ev(req_id=1, op="get", status="HIT", tok=seen,
                   t0=1, t1=3),
            ], initial)
            assert report.ok, seen

    def test_miss_is_eviction(self):
        report = check_history([
            ev(req_id=0, op="set", status="STORED", tok=1, t0=0, t1=1),
            ev(req_id=1, op="get", status="MISS", tok=0, t0=2, t1=3),
            ev(req_id=2, op="get", status="MISS", tok=0, t0=4, t1=5),
        ])
        assert report.ok

    def test_possibly_applied_write_unconstrained(self):
        # A timed-out write may or may not have landed; a later
        # unattributed HIT (its unseen token) is counted, not flagged.
        report = check_history([
            ev(req_id=0, op="set", status="SERVER_DOWN", tok=0,
               t0=0, t1=1),
            ev(req_id=1, op="get", status="HIT", tok=9, t0=2, t1=3),
        ])
        assert report.ok
        assert report.possibly_applied == 1
        assert report.unattributed_reads == 1

    def test_pending_write_counts_possibly_applied(self):
        report = check_history([
            ev(req_id=0, op="set", status="PENDING", tok=0, t0=0, t1=-1.0),
        ])
        assert report.ok
        assert report.possibly_applied == 1


class TestInvariantViolations:
    def test_stale_read(self):
        report = check_history([
            ev(req_id=0, op="set", status="STORED", tok=1, t0=0, t1=1),
            ev(req_id=1, op="set", status="STORED", tok=2, t0=2, t1=3),
            ev(req_id=2, op="get", status="HIT", tok=1, t0=4, t1=5),
        ])
        assert "stale-read" in kinds(report)

    def test_resurrection_after_delete(self):
        report = check_history([
            ev(req_id=0, op="set", status="STORED", tok=1, t0=0, t1=1),
            ev(req_id=1, op="delete", status="DELETED", tok=0, t0=2, t1=3),
            ev(req_id=2, op="get", status="HIT", tok=1, t0=4, t1=5),
        ])
        assert "resurrection" in kinds(report)

    def test_non_monotonic_reads(self):
        report = check_history([
            ev(req_id=0, op="set", status="STORED", tok=1, t0=0, t1=1),
            ev(req_id=1, op="set", status="STORED", tok=2, t0=2, t1=9),
            ev(req_id=2, op="get", status="HIT", tok=2, t0=3, t1=4),
            ev(req_id=3, op="get", status="HIT", tok=1, t0=5, t1=6),
        ])
        # Write 2 was still in flight when read 3 issued, so plain
        # stale-read cannot fire — monotonic reads catches it.
        assert "non-monotonic-read" in kinds(report)

    def test_value_length_mismatch(self):
        report = check_history([
            ev(req_id=0, op="set", status="STORED", tok=1, vlen=100,
               t0=0, t1=1),
            ev(req_id=1, op="get", status="HIT", tok=1, vlen=999,
               t0=2, t1=3),
        ])
        assert "value-mismatch" in kinds(report)


class TestSyncVisibility:
    def _history(self, sub_complete):
        # Sync write: primary s0 acks tok 2, replica sub acks tok 5 on
        # s1 with a response completing at ``sub_complete``. A read on
        # s1 issued after the write acked sees the *initial* token 1.
        return [
            ev(client="a", req_id=0, op="set", status="STORED", tok=2,
               t0=0, t1=5, server=0),
            ev(client="a", req_id=1, op="set", api="replica",
               status="STORED", tok=5, t0=0, t1=sub_complete, server=1,
               user=False, parent=0),
            ev(client="b", req_id=0, op="get", status="HIT", tok=1,
               t0=6, t1=7, server=1),
        ]

    def test_acked_sub_timing_is_irrelevant(self):
        # The sub's own response landed *after* the read — the plain
        # stale-read rule cannot fire, but sync visibility must: a
        # correct sync client only acks after the sub, so the apply
        # happened before t=5 regardless of when its response arrived.
        # This is exactly the shape of a replica-ack-reordering bug.
        initial = {(1, "k"): (1, 100)}
        report = check_history(self._history(sub_complete=10.0), initial,
                               write_mode="sync")
        assert kinds(report) == {"sync-stale-read"}

    def test_async_mode_permits_it(self):
        initial = {(1, "k"): (1, 100)}
        report = check_history(self._history(sub_complete=10.0), initial,
                               write_mode="async")
        assert report.ok

    def test_sync_resurrection_after_delete(self):
        initial = {(1, "k"): (1, 100)}
        report = check_history([
            ev(client="a", req_id=0, op="delete", status="DELETED",
               tok=0, t0=0, t1=5, server=0),
            ev(client="a", req_id=1, op="delete", api="replica",
               status="DELETED", tok=0, t0=0, t1=10, server=1,
               user=False, parent=0),
            ev(client="b", req_id=0, op="get", status="HIT", tok=1,
               t0=6, t1=7, server=1),
        ], initial, write_mode="sync")
        assert "sync-resurrection" in kinds(report)


class TestWingGong:
    def test_presence_predicate_without_store(self):
        # add -> NOT_STORED on a key never stored: only an invisible
        # re-store could explain it, so fault-free it is a violation...
        history = [ev(req_id=0, op="set", api="add", status="NOT_STORED",
                      tok=0, t0=0, t1=1)]
        report = check_history(history)
        assert "not-linearizable" in kinds(report)
        # ...but legal when the run had faults (anti-entropy resync).
        assert check_history(history, faults=True).ok

    def test_applies_linearize_in_token_order(self):
        # Two concurrent writes, then reads observing BOTH final states:
        # token order fixes the apply order, so the 1-after-2 read can
        # never linearize.
        report = check_history([
            ev(client="a", req_id=0, op="set", status="STORED", tok=1,
               t0=0, t1=10),
            ev(client="b", req_id=0, op="set", status="STORED", tok=2,
               t0=0, t1=10),
            ev(client="c", req_id=0, op="get", status="HIT", tok=2,
               t0=11, t1=12),
            ev(client="c", req_id=1, op="get", status="HIT", tok=1,
               t0=13, t1=14),
        ])
        assert not report.ok

    def test_invariants_only_mode(self):
        history = [ev(req_id=0, op="set", api="add", status="NOT_STORED",
                      tok=0, t0=0, t1=1)]
        report = check_history(history, full=False)
        assert report.ok  # the WG-only violation is skipped
        assert report.pairs_searched == 0

    def test_op_cap_marks_undecided(self):
        history = [ev(req_id=i, op="set", status="STORED", tok=i + 1,
                      t0=2 * i, t1=2 * i + 1) for i in range(6)]
        report = check_history(history, max_wg_ops=3)
        assert report.ok
        assert ("k", 0) in report.undecided


class TestHlcLostWrites:
    """An HLC-stamped SET that loses the last-writer-wins merge answers
    STORED without installing anything; it linearizes immediately
    before the winner and is left out of the search."""

    def test_set_lost_to_newer_delete(self):
        # c1's set (stamped 1.0) reaches the server after c0's delete
        # (stamped 1.5): STORED with token 0, then the key is absent.
        report = check_history([
            ev(req_id=0, tok=1, t0=0, t1=0.5, hlc=(0.0, 0, 0)),
            ev(client="c0", req_id=1, op="delete", status="DELETED",
               t0=1.5, t1=2, hlc=(1.5, 0, 0)),
            ev(client="c1", req_id=2, tok=0, t0=1, t1=3, hlc=(1.0, 0, 1)),
            ev(client="c1", req_id=3, op="get", status="MISS",
               t0=4, t1=5),
        ])
        assert report.ok, report.violations

    def test_set_lost_to_newer_set(self):
        # The loser's reply carries the winner's token; reads of it are
        # the winner's (no TTL), not the loser's (expired at 3.5).
        report = check_history([
            ev(client="c0", req_id=0, tok=5, t0=1.5, t1=2,
               hlc=(1.5, 0, 0)),
            ev(client="c1", req_id=1, tok=5, t0=1, t1=3, exp=3.5,
               hlc=(1.0, 0, 1)),
            ev(client="c1", req_id=2, op="get", status="HIT", tok=5,
               t0=4, t1=5),
        ])
        assert report.ok, report.violations
        assert report.ops_checked == 3

    def test_lost_write_hides_no_stale_read(self):
        report = check_history([
            ev(client="c0", req_id=0, tok=5, t0=1.5, t1=2,
               hlc=(1.5, 0, 0)),
            ev(client="c1", req_id=1, tok=5, t0=1, t1=3, hlc=(1.0, 0, 1)),
            ev(client="c0", req_id=2, tok=6, t0=3.5, t1=4,
               hlc=(3.5, 0, 0)),
            ev(client="c1", req_id=3, op="get", status="HIT", tok=5,
               t0=5, t1=6),
        ])
        assert "stale-read" in kinds(report)
