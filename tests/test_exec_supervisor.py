"""Supervised fault tolerance on the real process backend.

The supervisor must detect a SIGKILLed worker from its exit code, respawn
it from the committed checkpoint epoch (bit-exact recovery), declare it
dead when the respawn budget is exhausted (degraded buddy recovery), and
turn unrecoverable failures into an enriched ``WorkerError`` post-mortem.
Chaos injection (the process-compatible ``FaultPlan`` subset) is
interpreted inside the workers and must be capability-checked everywhere
a plan enters the system.
"""

import pytest

from repro.analysis.lint_trace import lint_trace
from repro.arrays.dataset import random_sparse
from repro.cluster.faults import ALL_FAULT_KINDS, FaultPlan
from repro.obs.report import breakdown
from repro.core.config import BuildConfig
from repro.core.parallel import construct_cube_parallel
from repro.exec import PROCESS_FAULT_KINDS, ProcessBackend, SimBackend, WorkerError
from repro.obs import load_run, summarize_run, to_chrome_trace

SHAPE = (8, 6, 4)
BITS = (1, 1, 0)  # p = 4
N = len(SHAPE)
#: Op index of the FT program's detection barrier: disk_read, compute,
#: then one disk_write per first-level child (= n for the full cube).
KILL_AT = N + 2


@pytest.fixture(scope="module")
def data():
    return random_sparse(SHAPE, sparsity=0.3, seed=11)


@pytest.fixture(scope="module")
def clean(data):
    return construct_cube_parallel(data, BITS, checkpoint=True)


def _assert_same_cube(run, clean):
    assert set(run.results) == set(clean.results)
    for node, arr in clean.results.items():
        assert arr.data.tobytes() == run.results[node].data.tobytes(), (
            f"group-by {node} differs from the fault-free cube"
        )


class TestRespawnRecovery:
    def test_sigkill_is_detected_respawned_and_replayed(self, data, clean):
        run = construct_cube_parallel(
            data, BITS,
            checkpoint=True,
            fault_plan=FaultPlan().crash_at_op(1, KILL_AT),
            backend="process",
            trace=True,
        )
        _assert_same_cube(run, clean)
        stats = run.metrics.faults
        assert stats.crashed_ranks == [1]
        assert stats.retries >= 1  # the respawn
        assert stats.recoveries >= 1  # the checkpoint replay
        crash = [e for e in stats.events if e.kind == "crash"]
        assert "SIGKILL" in crash[0].detail
        recs = [e for e in stats.events if e.kind == "recovery"]
        assert any("checkpoint epoch" in e.detail for e in recs)

    def test_recovery_trace_passes_lint(self, data):
        run = construct_cube_parallel(
            data, BITS,
            checkpoint=True,
            fault_plan=FaultPlan().crash_at_op(2, KILL_AT),
            backend="process",
            trace=True,
        )
        report = lint_trace(run.metrics)
        ids = {d.rule for d in report}
        # The crash is recovered and the recovery names its epoch.
        assert "TRACE106" not in ids
        assert "TRACE107" not in ids
        assert report.ok

    def test_pre_commit_kill_recomputes_from_block(self, data, clean):
        # Op 1 is the first-level compute: nothing is committed yet, so the
        # respawned incarnation re-aggregates its input block.
        run = construct_cube_parallel(
            data, BITS,
            checkpoint=True,
            fault_plan=FaultPlan().crash_at_op(1, 1),
            backend="process",
        )
        _assert_same_cube(run, clean)
        recs = [e for e in run.metrics.faults.events if e.kind == "recovery"]
        assert any("block" in e.detail for e in recs)


class TestDeclareDead:
    @pytest.fixture(scope="class")
    def run(self, data):
        # max_respawns=0: the dead rank is never rebuilt; survivors'
        # heartbeat timeouts fire and the buddy adopts its work.
        backend = ProcessBackend(watchdog_s=60.0, max_respawns=0)
        return construct_cube_parallel(
            data, BITS,
            checkpoint=True,
            fault_plan=FaultPlan().crash_at_op(1, KILL_AT),
            backend=backend,
            trace=True,
        )

    def test_budget_exhausted_falls_back_to_buddy(self, run, clean):
        _assert_same_cube(run, clean)
        stats = run.metrics.faults
        assert stats.crashed_ranks == [1]
        assert stats.timeouts_fired >= 1  # survivors detected the death
        assert stats.recoveries >= 1  # the buddy re-read the checkpoint
        assert all(
            e.peer is not None and e.tag is not None
            for e in stats.events if e.kind == "timeout"
        )

    def test_dead_rank_keeps_its_place_in_the_run_record(self, run):
        # The per-rank lists stay positional (dead rank: clock 0, peak 0,
        # result None), so rank r is index r for every reader of the run.
        m = run.metrics
        assert m.num_ranks == 4
        assert (m.rank_clocks[1], m.rank_peak_memory_elements[1]) == (0.0, 0)
        assert m.rank_results[1] is None
        assert all(clock > 0.0 for r, clock in enumerate(m.rank_clocks) if r != 1)
        assert {op.rank for op in m.trace} == {0, 2, 3}
        assert [b.rank for b in breakdown(m)] == [0, 1, 2, 3]
        assert "build.reduce" in summarize_run(m)
        # Degraded, but the crash was adopted with its provenance noted.
        rules = {d.rule for d in lint_trace(m, shape=SHAPE, bits=BITS)}
        assert "TRACE101" in rules  # heartbeats addressed to the dead rank
        assert not rules & {"TRACE106", "TRACE107"}
        loaded = load_run(to_chrome_trace(m))
        assert [(op.rank, op.name) for op in loaded.trace] == [
            (op.rank, op.name) for op in m.trace
        ]


class TestFatalFailures:
    def test_non_restartable_crash_is_enriched(self, data):
        # Without checkpoint=True the program is not restartable: the
        # kill must surface as a WorkerError naming rank, signal, and a
        # per-rank post-mortem.
        with pytest.raises(WorkerError) as err:
            construct_cube_parallel(
                data, BITS,
                fault_plan=FaultPlan().crash_at_op(1, KILL_AT),
                backend="process",
            )
        e = err.value
        assert e.rank == 1
        assert e.exit_code == -9
        assert e.signal_name == "SIGKILL"
        assert "post-mortem" in str(e)
        assert "not restartable" in str(e)
        assert len(e.incidents) == 4
        assert e.incidents[1].signal_name == "SIGKILL"

    def test_worker_exception_keeps_remote_traceback(self):
        def boom(env):
            if env.rank == 1:
                raise RuntimeError("boom in rank 1")
            yield env.barrier()

        backend = ProcessBackend(watchdog_s=30.0)
        with pytest.raises(WorkerError, match="boom in rank 1"):
            backend.spawn_ranks(2, boom)

    def test_max_respawns_validation(self):
        with pytest.raises(ValueError, match="max_respawns"):
            ProcessBackend(max_respawns=-1)


class TestChaosInjection:
    def test_duplicate_delivery_counts_twice_like_sim(self, data, clean):
        # src pinned: max_events budgets are per worker on this backend.
        plan = FaultPlan(seed=5).duplicate_messages(1.0, src=3, max_events=1)
        run = construct_cube_parallel(
            data, BITS, fault_plan=plan, backend="process"
        )
        base = construct_cube_parallel(data, BITS)
        _assert_same_cube(run, base)
        assert run.metrics.faults.messages_duplicated == 1
        # The duplicated copy is charged, mirroring the sim's network.
        assert (
            run.metrics.comm.total_messages
            == base.metrics.comm.total_messages + 1
        )

    def test_straggler_and_nic_delays_complete(self, data, clean):
        plan = FaultPlan().straggler(0, factor=1.5).degrade_nic(1, 2.0)
        run = construct_cube_parallel(
            data, BITS, fault_plan=plan, backend="process"
        )
        _assert_same_cube(run, clean)


class TestCapabilityChecks:
    def test_process_declares_its_subset(self):
        assert ProcessBackend.fault_capabilities == PROCESS_FAULT_KINDS
        assert SimBackend.fault_capabilities == ALL_FAULT_KINDS
        assert PROCESS_FAULT_KINDS < ALL_FAULT_KINDS

    def test_unsupported_kind_is_named(self, data):
        plan = FaultPlan().crash(0, at_time=0.5).drop_messages(0.5)
        with pytest.raises(ValueError, match="crash, drop") as err:
            BuildConfig(fault_plan=plan, backend="process")
        assert "simulator-only" in str(err.value)
        assert "kill:RANK@OP" in str(err.value)

    def test_supported_subset_is_legal_in_config(self):
        plan = FaultPlan().crash_at_op(0, 3).straggler(1, factor=2.0)
        cfg = BuildConfig(
            fault_plan=plan, backend="process", checkpoint=True
        )
        assert cfg.fault_plan is plan

    def test_spawn_ranks_rejects_unsupported_kind(self):
        backend = ProcessBackend()
        with pytest.raises(ValueError, match="simulator-only"):
            backend.spawn_ranks(
                2, lambda env: iter(()), faults=FaultPlan().crash(0, 1.0)
            )


class TestKillClause:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("kill:1@5;seed=9")
        assert plan.crash_ops == {1: 5}
        assert plan.seed == 9
        assert "kill rank 1 @ op 5" in plan.describe()
        assert plan.kinds() == frozenset({"crash_op"})

    def test_sim_kill_matches_op_boundary(self, data):
        # The same kill on the simulator crashes the same rank; with
        # checkpointing the run recovers (full parity is asserted in
        # test_backend_parity.py).
        run = construct_cube_parallel(
            data, BITS,
            checkpoint=True,
            fault_plan=FaultPlan().crash_at_op(1, KILL_AT),
            backend="sim",
        )
        assert run.metrics.faults.crashed_ranks == [1]
        assert run.metrics.faults.recoveries >= 1
