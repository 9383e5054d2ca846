"""Trace linter: clean runs stay clean, and every TRACE rule fires on cue.

The fault programs are tiny hand-written SPMD programs (the same idiom as
``tests/test_faults.py``) so each rule's trigger is isolated: an over-sent
channel, a duplicated delivery, a timeout with and without a recovery
action, and a memory high-water breach.
"""

import numpy as np
import pytest

from repro.analysis import lint_trace
from repro.cluster.faults import FaultPlan
from repro.cluster.runtime import RECV_TIMEOUT, DiskReadOp, run_spmd
from repro.core.parallel import construct_cube_parallel

SHAPE = (4, 4, 2)
BITS = (1, 1, 0)


@pytest.fixture(scope="module")
def clean_metrics():
    arr = np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
    res = construct_cube_parallel(arr, BITS, trace=True, collect_results=False)
    return res.metrics


class TestCleanRun:
    def test_no_errors_or_warnings(self, clean_metrics):
        report = lint_trace(clean_metrics, shape=SHAPE, bits=BITS)
        assert report.ok
        assert report.warnings == []
        rules = {d.rule for d in report}
        assert not rules & {"TRACE101", "TRACE102", "TRACE103", "TRACE104"}

    def test_idle_skew_is_info_only(self, clean_metrics):
        # This tiny run serializes its reduction on the leads, so the skew
        # advisory fires -- as info, never failing the report.
        report = lint_trace(clean_metrics, shape=SHAPE, bits=BITS)
        skew = [d for d in report if d.rule == "TRACE105"]
        assert all(d.severity == "info" for d in skew)
        assert report.ok

    def test_trace_events_carry_structured_fields(self, clean_metrics):
        comm = [ev for ev in clean_metrics.trace if ev.name in ("send", "recv")]
        assert comm, "traced run must record communication events"
        for ev in comm:
            assert isinstance(ev.attrs["peer"], int)
            assert isinstance(ev.attrs["tag"], int)
            assert ev.attrs["nbytes"] > 0

    def test_untraced_run_is_rejected(self):
        arr = np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
        res = construct_cube_parallel(arr, BITS, collect_results=False)
        with pytest.raises(ValueError, match="no trace"):
            lint_trace(res.metrics)


class TestChannelRules:
    def test_oversent_channel_fires_trace101(self):
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(4), tag=0)
                yield env.send(1, np.zeros(4), tag=0)
            else:
                yield env.recv(0, tag=0)

        m = run_spmd(2, program, record_trace=True)
        report = lint_trace(m)
        hits = [d for d in report if d.rule == "TRACE101"]
        assert len(hits) == 1
        assert hits[0].severity == "warning"
        assert "never received" in hits[0].message

    def test_dropped_message_does_not_fire_trace101(self):
        # A drop never reaches the network: the linter must not blame the
        # receiver for a payload that was injected away.
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(4), tag=0)
            else:
                got = yield env.recv(0, tag=0, timeout=50.0)
                yield DiskReadOp(nbytes=32)  # recover from checkpoint
                return got is RECV_TIMEOUT

        m = run_spmd(2, program, record_trace=True, faults=FaultPlan().drop_messages(1.0))
        assert m.rank_results[1] is True
        report = lint_trace(m)
        assert all(d.rule != "TRACE101" for d in report)

    def test_duplicate_delivery_fires_trace102(self):
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.array([7.0]), tag=0)
            else:
                yield env.recv(0, tag=0)
                yield env.recv(0, tag=0)

        m = run_spmd(2, program, record_trace=True, faults=FaultPlan().duplicate_messages(1.0))
        report = lint_trace(m)
        hits = [d for d in report if d.rule == "TRACE102"]
        assert len(hits) == 1
        assert "posted 1 intentionally" in hits[0].message


class TestTimeoutRules:
    def test_silent_timeout_fires_trace103(self):
        # Recovered *by accident*: the rank shrugs off the timeout and
        # carries on with no retry and no checkpoint read.
        def program(env):
            if env.rank == 1:
                got = yield env.recv(0, tag=7, timeout=0.5)
                return got is RECV_TIMEOUT
            yield env.compute(1.0)

        m = run_spmd(2, program, record_trace=True)
        assert m.rank_results[1] is True
        report = lint_trace(m)
        hits = [d for d in report if d.rule == "TRACE103"]
        assert len(hits) == 1
        assert hits[0].rank == 1

    def test_retried_timeout_is_recovered_correctly(self):
        # Recovered *by design*: the payload arrives late, the rank times
        # out, retries the receive, and gets it.  No TRACE103.
        def program(env):
            if env.rank == 0:
                yield env.sleep(10.0)
                yield env.send(1, np.zeros(2), tag=0)
            else:
                got = yield env.recv(0, tag=0, timeout=0.5)
                assert got is RECV_TIMEOUT
                yield env.recv(0, tag=0)

        m = run_spmd(2, program, record_trace=True)
        report = lint_trace(m)
        assert all(d.rule != "TRACE103" for d in report)

    def test_checkpoint_read_counts_as_recovery(self):
        def program(env):
            if env.rank == 1:
                got = yield env.recv(0, tag=7, timeout=0.5)
                assert got is RECV_TIMEOUT
                yield DiskReadOp(nbytes=64)
            else:
                yield env.compute(1.0)

        m = run_spmd(2, program, record_trace=True)
        report = lint_trace(m)
        assert all(d.rule != "TRACE103" for d in report)


class TestMemoryRule:
    def test_peak_above_bound_fires_trace104(self, clean_metrics):
        # Linting against a smaller problem's bound makes every measured
        # peak an excess -- the rule must name each offending rank.
        report = lint_trace(clean_metrics, shape=(2, 2, 2), bits=BITS)
        hits = [d for d in report if d.rule == "TRACE104"]
        assert len(hits) == clean_metrics.num_ranks
        assert not report.ok
        assert {d.rank for d in hits} == set(range(clean_metrics.num_ranks))

    def test_bound_check_skipped_without_shape(self, clean_metrics):
        report = lint_trace(clean_metrics)
        assert all(d.rule != "TRACE104" for d in report)

    def test_each_scheduler_is_held_to_its_own_bound(self, tmp_path):
        # Regression: every run was held to fig5's Theorem 4 bound, so a
        # shuffle build -- whose map phase legitimately holds every
        # target's portion -- failed with one TRACE104 per rank.
        import io

        from repro.cli import main
        from repro.core.memory_model import parallel_memory_bound_exact
        from repro.obs import write_chrome_trace

        shape, bits = (16, 12, 8, 8), (2, 1, 0, 0)
        run = construct_cube_parallel(
            np.arange(np.prod(shape), dtype=float).reshape(shape), bits,
            scheduler="shuffle", trace=True, collect_results=False,
        )
        assert max(run.metrics.rank_peak_memory_elements) > (
            parallel_memory_bound_exact(shape, bits)
        )
        path = write_chrome_trace(run.metrics, tmp_path / "shuffle.json")
        out = io.StringIO()
        code = main(
            ["check", "--shape", "16,12,8,8", "--procs", "8",
             "--scheduler", "shuffle", "--run-trace", str(path)],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "TRACE104" not in out.getvalue()

    def test_fig5_run_above_its_bound_still_fires(self, clean_metrics, monkeypatch):
        from repro.sched import Fig5Scheduler

        peak = max(clean_metrics.rank_peak_memory_elements)
        monkeypatch.setattr(
            Fig5Scheduler, "declared_memory_bound", lambda self, shape, bits: peak - 1
        )
        hits = [d for d in lint_trace(clean_metrics, shape=SHAPE, bits=BITS)
                if d.rule == "TRACE104"]
        assert hits
        assert all(f"the Theorem 1/4 bound of {peak - 1}" in d.message for d in hits)


class TestRecoveryRules:
    def test_unrecovered_crash_fires_trace106(self):
        # Rank 1 is killed and nobody adopts its work: the run completes
        # only because rank 0 never depended on it -- a silent fallback.
        def program(env):
            yield env.sleep(1.0)
            yield env.sleep(1.0)

        m = run_spmd(
            2, program, record_trace=True, faults=FaultPlan().crash(1, at_time=0.5)
        )
        report = lint_trace(m)
        hits = [d for d in report if d.rule == "TRACE106"]
        assert len(hits) == 1
        assert hits[0].rank == 1
        assert hits[0].severity == "warning"

    def test_recovered_crash_does_not_fire_trace106(self):
        def program(env):
            yield env.sleep(1.0)
            if env.rank == 0:
                env.note_recovery("checkpoint epoch 1: adopted rank 1 partials")

        m = run_spmd(
            2, program, record_trace=True, faults=FaultPlan().crash(1, at_time=0.5)
        )
        report = lint_trace(m)
        assert all(d.rule not in ("TRACE106", "TRACE107") for d in report)

    def test_unaccounted_recovery_fires_trace107(self):
        # A recovery marker that cites neither a committed epoch nor an
        # input-block re-aggregation has no provenance.
        def program(env):
            yield env.sleep(1.0)
            if env.rank == 0:
                env.note_recovery("trusted uncommitted partials from /tmp")

        m = run_spmd(
            2, program, record_trace=True, faults=FaultPlan().crash(1, at_time=0.5)
        )
        report = lint_trace(m)
        hits = [d for d in report if d.rule == "TRACE107"]
        assert len(hits) == 1
        assert hits[0].severity == "warning"
        assert report.ok  # warnings never fail the gate

    def test_block_reaggregation_counts_as_provenance(self):
        def program(env):
            yield env.sleep(1.0)
            if env.rank == 0:
                env.note_recovery("re-aggregated rank 1 partials from its block")

        m = run_spmd(
            2, program, record_trace=True, faults=FaultPlan().crash(1, at_time=0.5)
        )
        report = lint_trace(m)
        assert all(d.rule != "TRACE107" for d in report)
