"""Fault injection and fault-tolerant execution.

Covers the fault plan itself (parsing, validation, determinism), each
injected fault's effect on the simulated timeline (crashes, drops,
duplicates, stragglers, NIC degradation, receive timeouts), the reliable
ack/retry reduction, checkpoint persistence, and the acceptance criterion:
``construct_cube_parallel(..., checkpoint=True)`` returns bit-exact results
under any single-rank crash, while the same crash without fault tolerance
raises a diagnosable ``DeadlockError`` instead of hanging.
"""

import math

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.arrays.dense import DenseArray
from repro.arrays.persist import CheckpointStore, load_partial, save_partial
from repro.cluster.collectives import (
    DeliveryError,
    reduce_to_lead,
    reduce_to_lead_reliable,
)
from repro.cluster.faults import FaultController, FaultPlan, FaultStats
from repro.cluster.machine import MachineModel
from repro.cluster.network import CONTROL_NBYTES, Control
from repro.cluster.runtime import (
    DeadlockError,
    RecvOp,
    RECV_TIMEOUT,
    run_spmd,
)
from repro.core.parallel import construct_cube_parallel
from repro.core.sequential import construct_cube_sequential, verify_cube
from repro.exec.chaos import ChaosAgent


def quiet_machine():
    """Unit costs that make timing assertions easy (as in test_runtime)."""
    return MachineModel(
        element_ops_per_second=1.0,
        sparse_op_factor=2.0,
        network_latency_s=1.0,
        network_bandwidth_Bps=8.0,
        disk_bandwidth_Bps=8.0,
        disk_latency_s=1.0,
    )


# -- the plan itself -------------------------------------------------------------------


class TestFaultPlan:
    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan().crash(0, 1.0).empty

    def test_builders_chain(self):
        plan = (
            FaultPlan(seed=7)
            .crash(3, 0.5)
            .straggler(1, 4.0)
            .degrade_nic(2, 2.0, 0.0, 1.0)
            .drop_messages(0.05, dst=0)
            .duplicate_messages(0.1, src=1)
        )
        assert plan.seed == 7
        assert plan.crashes == {3: 0.5}
        assert plan.stragglers == {1: 4.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().crash(0, -1.0)
        with pytest.raises(ValueError):
            FaultPlan().crash(0, 1.0).crash(0, 2.0)  # one crash per rank
        with pytest.raises(ValueError):
            FaultPlan().straggler(0, 0.5)  # must slow down, not speed up
        with pytest.raises(ValueError):
            FaultPlan().degrade_nic(0, 0.5)
        with pytest.raises(ValueError):
            FaultPlan().degrade_nic(0, 2.0, start=1.0, end=1.0)
        with pytest.raises(ValueError):
            FaultPlan().drop_messages(1.5)

    def test_describe(self):
        text = FaultPlan(seed=3).crash(1, 0.25).drop_messages(0.1, dst=0).describe()
        assert "seed=3" in text
        assert "crash rank 1 @ 0.25s" in text
        assert "drop p=0.1 *->0" in text
        assert "no faults" in FaultPlan().describe()

    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "seed=9; crash:3@0.5; straggler:1@4; nic:2@2:0.1-0.9; "
            "drop:0.05@*->0; dup:0.1@1->*"
        )
        assert plan.seed == 9
        assert plan.crashes == {3: 0.5}
        assert plan.stragglers == {1: 4.0}
        d = plan.nic_degradations[0]
        assert (d.rank, d.factor, d.start, d.end) == (2, 2.0, 0.1, 0.9)
        assert plan.drops[0].dst == 0 and plan.drops[0].src is None
        assert plan.duplicates[0].src == 1 and plan.duplicates[0].dst is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse("crash:3")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("meteor:1@2")

    def test_parse_nic_unbounded_window(self):
        d = FaultPlan.parse("nic:0@3").nic_degradations[0]
        assert d.start == 0.0 and math.isinf(d.end)


# -- fault effects on the timeline -----------------------------------------------------


class TestCrash:
    def test_crash_kills_rank_and_partner_deadlocks(self):
        def program(env):
            if env.rank == 0:
                yield env.compute(10)
                yield env.send(1, np.ones(1), tag=0)
            else:
                yield env.recv(0, tag=0)

        plan = FaultPlan().crash(0, 5.0)
        with pytest.raises(DeadlockError) as err:
            run_spmd(2, program, machine=quiet_machine(), faults=plan)
        assert "crashed ranks: [0]" in str(err.value)
        assert "recv(src=0, tag=0)" in str(err.value)

    def test_crash_mid_op_discards_effects(self):
        # The send would complete at t=9; the crash at t=5 interrupts it,
        # so the message is never posted and no bytes are counted.
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(8), tag=0)
            else:
                got = yield RecvOp(src=0, tag=0, timeout=20.0)
                return got is RECV_TIMEOUT

        m = run_spmd(2, program, machine=quiet_machine(),
                     faults=FaultPlan().crash(0, 5.0))
        assert m.faults.crashed_ranks == [0]
        assert m.rank_clocks[0] == pytest.approx(5.0)
        assert m.comm.total_messages == 0
        assert m.rank_results[1] is True  # survivor observed a timeout

    def test_crash_after_completion_never_fires(self):
        def program(env):
            yield env.compute(1)

        m = run_spmd(1, program, machine=quiet_machine(),
                     faults=FaultPlan().crash(0, 100.0))
        assert m.faults.crashed_ranks == []
        assert not m.faults.any

    def test_crashed_rank_result_is_none(self):
        def program(env):
            yield env.compute(10)
            return env.rank

        m = run_spmd(2, program, machine=quiet_machine(),
                     faults=FaultPlan().crash(1, 5.0))
        assert m.rank_results == [0, None]

    def test_barrier_releases_without_dead_rank(self):
        # Rank 1 dies before reaching the barrier; the survivors' barrier
        # must still release (a dead rank can never arrive).
        def program(env):
            yield env.compute(env.rank + 1)
            yield env.barrier()
            return "past"

        m = run_spmd(3, program, machine=quiet_machine(),
                     faults=FaultPlan().crash(1, 1.0))
        assert m.rank_results == ["past", None, "past"]


class TestRecvTimeout:
    def test_timeout_fires_when_no_sender(self):
        def program(env):
            got = yield RecvOp(src=(env.rank + 1) % 2, tag=0, timeout=0.5)
            return got is RECV_TIMEOUT

        m = run_spmd(2, program)
        assert m.rank_results == [True, True]
        assert m.faults.timeouts_fired == 2
        assert m.rank_clocks == [pytest.approx(0.5)] * 2

    def test_timeout_fires_when_arrival_too_late(self):
        def program(env):
            if env.rank == 0:
                yield env.compute(100)  # message arrives ~t=109
                yield env.send(1, np.zeros(8), tag=0)
            else:
                got = yield RecvOp(src=0, tag=0, timeout=10.0)
                return (got is RECV_TIMEOUT, env.clock)

        m = run_spmd(2, program, machine=quiet_machine())
        timed_out, clock = m.rank_results[1]
        assert timed_out
        assert clock == pytest.approx(10.0)

    def test_no_timeout_when_message_in_time(self):
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(8), tag=0)
            else:
                got = yield RecvOp(src=0, tag=0, timeout=100.0)
                return None if got is RECV_TIMEOUT else float(got[0])

        m = run_spmd(2, program, machine=quiet_machine())
        assert m.rank_results[1] == 0.0
        assert m.faults.timeouts_fired == 0

    def test_sentinel_is_falsy_and_singleton(self):
        assert not RECV_TIMEOUT
        assert bool(RECV_TIMEOUT) is False

    def test_env_recv_accepts_timeout(self):
        def program(env):
            got = yield env.recv(1 - env.rank, tag=0, timeout=0.25)
            return got is RECV_TIMEOUT

        m = run_spmd(2, program)
        assert m.rank_results == [True, True]

    def test_sleep_op(self):
        def program(env):
            yield env.sleep(1.25)
            return env.clock

        m = run_spmd(1, program)
        assert m.rank_results == [1.25]

        def bad(env):
            yield env.sleep(-1.0)

        with pytest.raises(ValueError):
            run_spmd(1, bad)


class TestMessageFaults:
    def test_drop_loses_message_but_sender_pays(self):
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(8), tag=0)  # 9 s on quiet machine
            else:
                got = yield RecvOp(src=0, tag=0, timeout=50.0)
                return got is RECV_TIMEOUT

        m = run_spmd(2, program, machine=quiet_machine(),
                     faults=FaultPlan().drop_messages(1.0))
        assert m.rank_results[1] is True
        assert m.rank_clocks[0] == pytest.approx(9.0)  # time spent anyway
        assert m.faults.messages_dropped == 1
        assert m.comm.total_messages == 0  # never entered the network

    def test_duplicate_delivers_twice(self):
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.array([7.0]), tag=0)
            else:
                a = yield env.recv(0, tag=0)
                b = yield env.recv(0, tag=0)
                return (float(a[0]), float(b[0]))

        m = run_spmd(2, program, faults=FaultPlan().duplicate_messages(1.0))
        assert m.rank_results[1] == (7.0, 7.0)
        assert m.faults.messages_duplicated == 1

    def test_max_events_bounds_rule(self):
        def program(env):
            if env.rank == 0:
                for _ in range(5):
                    yield env.send(1, np.ones(1), tag=0)
            else:
                n = 0
                while True:
                    got = yield RecvOp(src=0, tag=0, timeout=100.0)
                    if got is RECV_TIMEOUT:
                        return n
                    n += 1

        m = run_spmd(2, program,
                     faults=FaultPlan().drop_messages(1.0, max_events=2))
        assert m.rank_results[1] == 3
        assert m.faults.messages_dropped == 2

    def test_directional_rules(self):
        def program(env):
            other = 1 - env.rank
            yield env.send(other, np.ones(1), tag=0)
            got = yield RecvOp(src=other, tag=0, timeout=100.0)
            return got is RECV_TIMEOUT

        m = run_spmd(2, program, faults=FaultPlan().drop_messages(1.0, src=0))
        # Only 0->1 is dropped; 1->0 gets through.
        assert m.rank_results == [False, True]


class TestSlowdownFaults:
    def test_straggler_scales_compute_only(self):
        def program(env):
            yield env.compute(10)
            yield env.disk_write(16)

        base = run_spmd(1, program, machine=quiet_machine())
        slow = run_spmd(1, program, machine=quiet_machine(),
                        faults=FaultPlan().straggler(0, 3.0))
        # compute 10 -> 30; disk charge (3 s) unchanged.
        assert base.rank_clocks[0] == pytest.approx(13.0)
        assert slow.rank_clocks[0] == pytest.approx(33.0)

    def test_nic_degradation_window(self):
        def program(env):
            if env.rank == 0:
                yield env.compute(env.param)
                yield env.send(1, np.zeros(8), tag=0)  # 9 s transfer
            else:
                yield env.recv(0, tag=0)

        def clock_after(start_compute, plan):
            def prog(env):
                env.param = start_compute
                yield from program(env)
            return run_spmd(2, prog, machine=quiet_machine(),
                            faults=plan).rank_clocks[0]

        plan = FaultPlan().degrade_nic(0, 2.0, start=0.0, end=5.0)
        # Send starts inside the window: transfer doubled (9 -> 18).
        assert clock_after(1, plan) == pytest.approx(1 + 18.0)
        # Send starts after the window closes: full speed.
        assert clock_after(6, plan) == pytest.approx(6 + 9.0)

    def test_fault_free_plan_is_zero_cost(self):
        data = random_sparse((8, 6), 0.5, seed=4)
        base = construct_cube_parallel(data, (1, 1))
        nulled = construct_cube_parallel(data, (1, 1), fault_plan=FaultPlan())
        assert nulled.simulated_time_s == base.simulated_time_s
        assert not nulled.fault_stats.any


class TestDeterminism:
    def test_identical_runs_identical_metrics(self):
        def program(env):
            other = 1 - env.rank
            for i in range(20):
                yield env.send(other, np.ones(2), tag=i)
                got = yield RecvOp(src=other, tag=i, timeout=5.0)
                if got is RECV_TIMEOUT:
                    yield env.compute(1)

        def run():
            plan = (FaultPlan(seed=11).drop_messages(0.3)
                    .duplicate_messages(0.2).straggler(1, 1.5))
            return run_spmd(2, program, machine=quiet_machine(), faults=plan)

        a, b = run(), run()
        assert a.rank_clocks == b.rank_clocks
        assert a.faults.summary() == b.faults.summary()
        assert [(e.kind, e.time, e.rank) for e in a.faults.events] == [
            (e.kind, e.time, e.rank) for e in b.faults.events
        ]
        assert a.comm.total_messages == b.comm.total_messages

    def test_seed_changes_outcomes(self):
        def program(env):
            if env.rank == 0:
                for i in range(30):
                    yield env.send(1, np.ones(1), tag=0)
            else:
                n = 0
                while True:
                    got = yield RecvOp(src=0, tag=0, timeout=100.0)
                    if got is RECV_TIMEOUT:
                        return n
                    n += 1

        counts = {
            run_spmd(2, program,
                     faults=FaultPlan(seed=s).drop_messages(0.5)).rank_results[1]
            for s in range(5)
        }
        assert len(counts) > 1  # different seeds, different drop patterns

    def test_draw_sequences_are_pinned(self):
        # Recorded before the per-rule draw loop was shared between the
        # simulator's controller and the process backend's chaos agent;
        # any change to the draw order, budget or matching shows here.
        # Per-rank delivery copies for sends to 0, 1, 2, 3 (six rounds):
        plan = FaultPlan(seed=11).duplicate_messages(0.3)
        plan.duplicate_messages(0.6, src=1, max_events=2)
        plan.duplicate_messages(0.5, dst=2, max_events=3)
        expected = [
            "112222222122112111112121",
            "212121222111122112211111",
            "112111221111212212212121",
            "212112111211112111211122",
        ]
        for rank, want in enumerate(expected):
            agent = ChaosAgent(plan, rank, 0, MachineModel())
            assert "".join(str(agent.deliveries(d)) for d in [0, 1, 2, 3] * 6) == want
        # Controller fates (d-e-liver, d-r-op, d-u-plicate), three posts per pair:
        plan = (FaultPlan(seed=5).drop_messages(0.2)
                .duplicate_messages(0.4, src=0, max_events=2).duplicate_messages(0.5))
        ctl = FaultController(plan)
        fates = [ctl.message_action(s, d)[1] for s in range(3) for d in range(3) for _ in range(3)]
        assert "".join(fates) == "eereuuueerurueueueeurrrerue"


# -- reliable collectives --------------------------------------------------------------


class TestReliableReduce:
    def _program(self, group, **kw):
        def program(env):
            arr = np.full(4, float(env.rank + 1))
            out = yield from reduce_to_lead_reliable(
                env, group, arr, tag=5, timeout=0.01, **kw)
            return None if out is None else out.tolist()
        return program

    def test_matches_plain_reduce_without_faults(self):
        group = [0, 1, 2, 3]

        def plain(env):
            arr = np.full(4, float(env.rank + 1))
            out = yield from reduce_to_lead(env, group, arr, tag=5)
            return None if out is None else out.tolist()

        a = run_spmd(4, plain)
        b = run_spmd(4, self._program(group))
        assert a.rank_results[0] == b.rank_results[0] == [10.0] * 4

    def test_survives_payload_drops(self):
        plan = FaultPlan(seed=3).drop_messages(0.5, dst=0)
        m = run_spmd(4, self._program([0, 1, 2, 3], max_retries=6), faults=plan)
        assert m.rank_results[0] == [10.0] * 4
        assert m.faults.messages_dropped > 0
        assert m.faults.retries > 0

    def test_survives_duplicated_payloads(self):
        plan = FaultPlan(seed=3).duplicate_messages(1.0, dst=0)
        m = run_spmd(4, self._program([0, 1, 2, 3]), faults=plan)
        assert m.rank_results[0] == [10.0] * 4

    def test_budget_exhaustion_raises(self):
        plan = FaultPlan(seed=3).drop_messages(1.0, dst=0)
        with pytest.raises(DeliveryError, match="after 3 attempts"):
            run_spmd(4, self._program([0, 1, 2, 3], max_retries=2), faults=plan)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_spmd(2, self._program([0, 1], max_retries=-1))

    def test_backoff_grows_windows(self):
        # With everything dropped, the non-lead's clock is the sum of send
        # charges plus the geometric timeout windows.
        def program(env):
            if env.rank == 1:
                try:
                    yield from reduce_to_lead_reliable(
                        env, [0, 1], np.ones(1), tag=0,
                        timeout=1.0, max_retries=2, backoff=2.0)
                except DeliveryError:
                    return env.clock
            else:
                try:
                    yield from reduce_to_lead_reliable(
                        env, [0, 1], np.ones(1), tag=0,
                        timeout=1.0, max_retries=2, backoff=2.0)
                except DeliveryError:
                    return env.clock

        m = run_spmd(2, program, machine=quiet_machine(),
                     faults=FaultPlan().drop_messages(1.0))
        # Non-lead: 3 sends (2 s each) + windows 1 + 2 + 4 = 13 s.
        assert m.rank_results[1] == pytest.approx(13.0)


class TestControl:
    def test_fixed_nominal_size(self):
        assert Control("hb").nbytes == CONTROL_NBYTES
        assert Control("ack", (1, 2, 3)).nbytes == CONTROL_NBYTES

    def test_hashable_and_frozen(self):
        c = Control("hb", (4,))
        assert c == Control("hb", (4,))
        assert hash(c) == hash(Control("hb", (4,)))
        with pytest.raises(Exception):
            c.kind = "other"

    def test_counts_as_bytes_not_elements(self):
        def program(env):
            if env.rank == 0:
                yield env.send(1, Control("hb", (0,)), tag=1)
            else:
                got = yield env.recv(0, tag=1)
                return got.kind

        m = run_spmd(2, program)
        assert m.rank_results[1] == "hb"
        assert m.comm.total_bytes == CONTROL_NBYTES
        assert m.comm.total_elements == 0


# -- checkpoint persistence ------------------------------------------------------------


class TestCheckpointStore:
    def test_partial_round_trip(self, tmp_path):
        arr = DenseArray(np.arange(12, dtype=float).reshape(3, 4), (0, 2))
        save_partial(tmp_path / "p.npz", rank=5, node=(0, 2), arr=arr)
        rank, node, back = load_partial(tmp_path / "p.npz")
        assert rank == 5 and node == (0, 2)
        assert np.array_equal(back.data, arr.data)

    def test_store_save_has_load(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        arr = DenseArray(np.ones((2, 2)), (0, 1))
        assert not store.has(3, (0, 1))
        assert store.load(3, (0, 1)) is None
        store.save(3, (0, 1), arr)
        assert store.has(3, (0, 1))
        assert np.array_equal(store.load(3, (0, 1)).data, arr.data)

    def test_store_rejects_mismatched_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        arr = DenseArray(np.ones(2), (1,))
        # Write a file under the wrong name, then load through it.
        save_partial(store.path(0, (1,)), rank=9, node=(1,), arr=arr)
        with pytest.raises(ValueError, match="holds rank 9"):
            store.load(0, (1,))


# -- fault-tolerant cube construction --------------------------------------------------


def _post_checkpoint_crash_time(data, bits, victim):
    """A crash time after ``victim`` finished checkpointing but before the
    failure-detection round: just past its last checkpoint disk write."""
    traced = construct_cube_parallel(data, bits, checkpoint=True, trace=True)
    disk = [e for e in traced.metrics.trace
            if e.rank == victim and e.name == "disk"]
    nchildren = len(data.shape)  # the root's aggregation-tree children
    # disk[0] is the input-block read; the next nchildren are checkpoints.
    return disk[nchildren].t_end + 1e-9


class TestFaultTolerantConstruction:
    SHAPE8, BITS8 = (8, 6, 4), (1, 1, 1)
    SHAPE16, BITS16 = (6, 4, 4, 3), (1, 1, 1, 1)

    def test_fault_free_ft_matches_plain(self):
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        base = construct_cube_parallel(data, self.BITS8)
        ft = construct_cube_parallel(data, self.BITS8, checkpoint=True)
        assert set(ft.results) == set(base.results)
        for node, arr in base.results.items():
            assert np.array_equal(arr.data, ft.results[node].data)
        assert not ft.fault_stats.any

    @pytest.mark.parametrize("victim", range(8))
    def test_any_single_crash_recovers_8_ranks(self, victim):
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        base = construct_cube_parallel(data, self.BITS8)
        t = _post_checkpoint_crash_time(data, self.BITS8, victim)
        res = construct_cube_parallel(
            data, self.BITS8, checkpoint=True,
            fault_plan=FaultPlan().crash(victim, t))
        assert res.fault_stats.crashed_ranks == [victim]
        assert res.fault_stats.recoveries >= 1
        for node, arr in base.results.items():
            assert np.array_equal(arr.data, res.results[node].data), node
        verify_cube(res.results, data)

    @pytest.mark.parametrize("victim", [0, 3, 9, 15])
    def test_single_crash_recovers_16_ranks(self, victim):
        data = random_sparse(self.SHAPE16, 0.4, seed=2)
        base = construct_cube_parallel(data, self.BITS16)
        t = _post_checkpoint_crash_time(data, self.BITS16, victim)
        res = construct_cube_parallel(
            data, self.BITS16, checkpoint=True,
            fault_plan=FaultPlan().crash(victim, t))
        for node, arr in base.results.items():
            assert np.array_equal(arr.data, res.results[node].data), node
        verify_cube(res.results, data)

    def test_pre_checkpoint_crash_reaggregates(self):
        # Dying before any checkpoint exists exercises the fallback: the
        # buddy re-reads the victim's input block and redoes the first level.
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        base = construct_cube_parallel(data, self.BITS8)
        res = construct_cube_parallel(
            data, self.BITS8, checkpoint=True,
            fault_plan=FaultPlan().crash(2, 1e-6))
        assert res.fault_stats.recoveries >= 1
        for node, arr in base.results.items():
            assert np.array_equal(arr.data, res.results[node].data)

    def test_results_match_sequential_reference(self):
        # Bit-exactness is defined against the fault-free *parallel* run
        # (same combine order); the sequential reference accumulates in a
        # different order, so it matches to float tolerance.
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        seq = construct_cube_sequential(data)
        t = _post_checkpoint_crash_time(data, self.BITS8, 5)
        res = construct_cube_parallel(
            data, self.BITS8, checkpoint=True,
            fault_plan=FaultPlan().crash(5, t))
        assert set(seq.results) == set(res.results)
        for node, arr in seq.results.items():
            assert np.allclose(arr.data, res.results[node].data), node

    def test_crash_without_ft_raises_diagnosable_error(self):
        # Crash early (the non-checkpointing program has a shorter timeline,
        # so a post-checkpoint time may be past the victim's completion).
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        with pytest.raises(DeadlockError) as err:
            construct_cube_parallel(
                data, self.BITS8, fault_plan=FaultPlan().crash(3, 1e-6))
        text = str(err.value)
        assert "crashed ranks: [3]" in text
        assert "blocked on recv" in text

    def test_ft_run_is_deterministic(self):
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        t = _post_checkpoint_crash_time(data, self.BITS8, 2)

        def run():
            plan = (FaultPlan(seed=7).crash(2, t)
                    .straggler(5, 1.5).degrade_nic(1, 2.0, 0.0, 0.01))
            return construct_cube_parallel(
                data, self.BITS8, checkpoint=True, fault_plan=plan)

        a, b = run(), run()
        assert a.simulated_time_s == b.simulated_time_s
        assert a.metrics.rank_clocks == b.metrics.rank_clocks
        assert a.fault_stats.summary() == b.fault_stats.summary()
        assert a.metrics.comm.total_messages == b.metrics.comm.total_messages
        for node in a.results:
            assert np.array_equal(a.results[node].data, b.results[node].data)

    def test_checkpoint_dir_reused(self, tmp_path):
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        res = construct_cube_parallel(
            data, self.BITS8, checkpoint=True, checkpoint_dir=tmp_path)
        assert res.results is not None
        assert list(tmp_path.glob("ckpt-r*.npz"))  # checkpoints persisted

    def test_checkpoint_requires_flat_reduction(self):
        data = random_sparse(self.SHAPE8, 0.5, seed=1)
        with pytest.raises(ValueError, match="flat"):
            construct_cube_parallel(
                data, self.BITS8, checkpoint=True, reduction="binomial")

    def test_fault_plan_requires_checkpoint_for_recovery(self):
        # Crash + checkpoint=False is allowed (it diagnoses, not recovers);
        # stats are still populated on the raised run's metrics path, so
        # just assert the summary mentions faults on a survivable plan.
        data = random_sparse((8, 6), 0.5, seed=4)
        res = construct_cube_parallel(
            data, (1, 1), fault_plan=FaultPlan().straggler(0, 2.0))
        assert res.metrics.faults.any is False  # stragglers log no events
        assert res.simulated_time_s > 0


class TestFaultStatsSurface:
    def test_metrics_summary_mentions_faults(self):
        def program(env):
            got = yield RecvOp(src=1 - env.rank, tag=0, timeout=0.1)
            return got is RECV_TIMEOUT

        m = run_spmd(2, program)
        assert "timeouts=2" in m.summary()

    def test_fault_events_traced(self):
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.ones(1), tag=0)
            else:
                got = yield RecvOp(src=0, tag=0, timeout=100.0)
                return got is RECV_TIMEOUT

        m = run_spmd(2, program, faults=FaultPlan().drop_messages(1.0),
                     record_trace=True)
        assert {e.cat for e in m.trace} == {"op"}
        assert [(e.kind, e.rank, e.peer, e.tag) for e in m.faults.events] == [
            ("drop", 0, 1, 0),
            ("timeout", 1, 0, 0),
        ]

    def test_stats_note_dispatch(self):
        s = FaultStats()
        for kind in ("crash", "drop", "duplicate", "timeout", "retry",
                     "recovery"):
            s.note(kind, 1.0, 0, "x")
        assert s.crashed_ranks == [0]
        assert (s.messages_dropped, s.messages_duplicated) == (1, 1)
        assert (s.timeouts_fired, s.retries, s.recoveries) == (1, 1, 1)
        assert len(s.events) == 6
