"""Unit tests for the thread backend (:mod:`repro.exec.thread`).

Covers the executor itself (real threads, by-reference payloads, fail-fast
barrier aborts), the fault capability surface (no ``crash_op`` -- threads
share one fate), the persistent-pool lifecycle behind ``open()``/``close()``,
the output arena hookup and its zero-copy contract (a thread or process
build's results are views of the buffer the ranks wrote), and pool reuse
across repeated builds --
including the property the pool exists for: two builds on one warm pool
produce exactly the bytes two fresh-pool builds do, on the same live
worker threads.  Cross-backend result parity at large lives in
``test_backend_parity.py`` / ``test_sched_parity.py``.
"""

import gc
import os

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.arrays.measures import MIN, SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.runtime import (
    MONOTONIC_TIMEOUTS,
    BarrierOp,
    ComputeOp,
    RecvOp,
    SendOp,
)
from repro.core.parallel import construct_cube_parallel
from repro.core.sequential import cube_reference
from repro.exec import ProcessBackend, ThreadBackend, available_backends, get_backend
from repro.exec.chaos import THREAD_FAULT_KINDS
from repro.exec.process import WorkerError
from repro.exec.shm import (
    OutputLayout,
    PrivateOutputArena,
    SharedOutputArena,
    StagedResult,
)
from repro.olap import DataCube, Schema, apply_delta, merge_sparse


def _ping_pong(env):
    if env.rank == 0:
        yield SendOp(dst=1, tag=0, payload=np.arange(8, dtype=float))
        yield BarrierOp()
    else:
        payload = yield RecvOp(src=0, tag=0)
        np.testing.assert_array_equal(payload, np.arange(8, dtype=float))
        yield ComputeOp(element_ops=8.0)
        yield BarrierOp()


class TestExecutor:
    def test_registered_and_constructible(self):
        assert "thread" in available_backends()
        backend = get_backend("thread")
        assert isinstance(backend, ThreadBackend)
        assert backend.name == "thread"
        assert backend.supports_pooling

    def test_generic_program_runs_on_real_threads(self):
        metrics = ThreadBackend().spawn_ranks(2, _ping_pong)
        assert metrics.backend == "thread"
        assert metrics.num_ranks == 2
        assert metrics.comm.total_messages == 1

    def test_payloads_move_by_reference(self):
        # No pickling: the receiver observes the sender's array object.
        sent = np.arange(16, dtype=float)
        received = {}

        def program(env):
            if env.rank == 0:
                yield SendOp(dst=1, tag=0, payload=sent)
            else:
                received["payload"] = yield RecvOp(src=0, tag=0)

        ThreadBackend().spawn_ranks(2, program)
        assert received["payload"] is sent

    def test_zero_ranks_is_empty_run(self):
        metrics = ThreadBackend().spawn_ranks(0, _ping_pong)
        assert metrics.num_ranks == 0
        assert metrics.comm.total_messages == 0

    def test_rank_failure_propagates_as_worker_error(self):
        def program(env):
            if env.rank == 1:
                raise RuntimeError("boom in rank 1")
            yield ComputeOp(element_ops=1.0)

        with pytest.raises(WorkerError, match="boom in rank 1"):
            ThreadBackend().spawn_ranks(2, program)

    def test_failed_rank_breaks_peers_out_of_barriers(self):
        # Rank 1 dies before the barrier; rank 0 must fail fast via the
        # aborted barrier, not hang until the watchdog.
        def program(env):
            if env.rank == 1:
                raise RuntimeError("dead before barrier")
            yield BarrierOp()

        with pytest.raises(WorkerError):
            ThreadBackend(watchdog_s=60.0).spawn_ranks(2, program)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadBackend(watchdog_s=0.0)
        with pytest.raises(ValueError):
            ThreadBackend(workers=0)

    def test_timeouts_are_monotonic(self):
        assert ThreadBackend().timeouts is MONOTONIC_TIMEOUTS


class TestFaultSurface:
    def test_capabilities_exclude_crashes(self):
        assert ThreadBackend.fault_capabilities == THREAD_FAULT_KINDS
        assert "crash_op" not in THREAD_FAULT_KINDS

    def test_crash_plans_are_rejected(self):
        def program(env):
            yield BarrierOp()

        plan = FaultPlan().crash_at_op(1, 0)
        with pytest.raises(ValueError, match="simulator-only"):
            ThreadBackend().spawn_ranks(2, program, faults=plan)

    def test_rejects_per_rank_machines(self):
        def program(env):
            yield BarrierOp()

        with pytest.raises(ValueError, match="simulator-only"):
            ThreadBackend().spawn_ranks(
                2, program, machines={0: MachineModel()}
            )

    def test_duplicate_delivery_fault_runs(self):
        # dup is in THREAD_FAULT_KINDS: a certain duplicate on 0->1 means
        # rank 1 sees two copies and the stats record the event.
        def program(env):
            if env.rank == 0:
                yield SendOp(dst=1, tag=0, payload=np.ones(4))
            else:
                first = yield RecvOp(src=0, tag=0)
                second = yield RecvOp(src=0, tag=0)
                np.testing.assert_array_equal(first, second)

        plan = FaultPlan(seed=3).duplicate_messages(1.0, src=0, dst=1)
        metrics = ThreadBackend().spawn_ranks(2, program, faults=plan)
        assert metrics.comm.total_messages == 2
        assert metrics.faults.messages_duplicated == 1


class TestPoolLifecycle:
    def test_open_warms_and_is_idempotent(self):
        backend = ThreadBackend()
        assert backend.pool is None
        try:
            assert backend.open(workers=2) is backend
            pool = backend.pool
            assert pool is not None and pool.size == 2
            backend.open(workers=2)
            assert backend.pool is pool, "open() must not respawn a live pool"
        finally:
            backend.close()
        assert backend.pool is None

    def test_context_manager_closes_pool(self):
        with ThreadBackend().open(workers=2) as backend:
            pool = backend.pool
            assert pool is not None
        assert pool.closed
        assert backend.pool is None

    def test_ephemeral_runs_leave_no_pool(self):
        backend = ThreadBackend()
        backend.spawn_ranks(2, _ping_pong)
        assert backend.pool is None

    def test_pool_grows_for_wider_runs(self):
        with ThreadBackend().open(workers=2) as backend:
            data = np.arange(8 * 6 * 4, dtype=float).reshape(8, 6, 4)
            run = construct_cube_parallel(data, (1, 1, 0), backend=backend)
            assert backend.pool.size >= 4
            ref = construct_cube_parallel(data, (1, 1, 0))
            for node, arr in ref.results.items():
                assert run.results[node].data.tobytes() == arr.data.tobytes()

    def test_end_run_keeps_pool_alive(self):
        with ThreadBackend().open(workers=2) as backend:
            pool = backend.pool
            backend.end_run()
            assert backend.pool is pool
            assert not pool.closed


class TestPoolReuse:
    """Two builds on one warm pool: same bytes, same live workers."""

    def _build(self, data, bits, backend):
        return construct_cube_parallel(data, bits, backend=backend)

    def test_repeated_builds_reuse_workers_and_match_fresh(self):
        shape, bits = (8, 6, 4), (1, 1, 0)
        ranks = 4
        a = random_sparse(shape, sparsity=0.3, seed=11)
        b = random_sparse(shape, sparsity=0.3, seed=22)

        fresh_a = self._build(a, bits, "thread")
        fresh_b = self._build(b, bits, "thread")

        with ThreadBackend().open(workers=ranks) as backend:
            warm_a = self._build(a, bits, backend)
            idents_after_first = set(backend.pool.tasks_by_worker)
            warm_b = self._build(b, bits, backend)

            # The same live threads served both builds; nothing respawned.
            assert set(backend.pool.tasks_by_worker) == idents_after_first
            assert len(idents_after_first) == ranks
            assert backend.pool.total_tasks == 2 * ranks

        for fresh, warm in ((fresh_a, warm_a), (fresh_b, warm_b)):
            assert set(fresh.results) == set(warm.results)
            for node, arr in fresh.results.items():
                assert warm.results[node].data.tobytes() == arr.data.tobytes(), (
                    f"group-by {node} differs between fresh and warm pool"
                )

    def test_pool_survives_a_failed_build(self):
        def failing(env):
            if env.rank == 1:
                raise RuntimeError("mid-build failure")
            yield BarrierOp()

        with ThreadBackend().open(workers=2) as backend:
            with pytest.raises(WorkerError, match="mid-build failure"):
                backend.spawn_ranks(2, failing)
            pool = backend.pool
            assert pool is not None and not pool.closed
            # The pool still serves a healthy build afterwards.
            metrics = backend.spawn_ranks(2, _ping_pong)
            assert metrics.comm.total_messages == 1

    def test_close_after_worker_error_is_clean(self):
        backend = ThreadBackend().open(workers=2)

        def failing(env):
            raise RuntimeError("every rank fails")
            yield BarrierOp()

        with pytest.raises(WorkerError):
            backend.spawn_ranks(2, failing)
        pool = backend.pool
        backend.close()
        assert pool.closed
        backend.close()  # idempotent

    def test_caller_owned_backend_survives_construct(self):
        # construct_cube_parallel only end_run()s a caller-owned backend;
        # it must never close the caller's pool.
        data = np.arange(32, dtype=float).reshape(8, 4)
        backend = ThreadBackend().open(workers=2)
        try:
            construct_cube_parallel(data, (1, 0), backend=backend)
            assert backend.pool is not None and not backend.pool.closed
        finally:
            backend.close()


def _integer_facts(shape, seed):
    """Sparse integer-valued facts: every sum is exact in any order."""
    cells = np.random.default_rng(seed).integers(-3, 6, size=shape)
    return SparseArray.from_dense(np.maximum(cells, 0).astype(float))


def _segments():
    """Named shared-memory segments currently linked in /dev/shm."""
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("psm_")}
    except OSError:
        return set()


def _declining(arena_cls):
    """``arena_cls`` that refuses alternate (rank, node) portions, so one
    node is part staged, part returned in-band."""

    class Declining(arena_cls):
        def stage(self, rank, node, data):
            if (rank + self.nodes.index(node)) % 2:
                return False
            return super().stage(rank, node, data)

    return Declining


class _DecliningThreadBackend(ThreadBackend):
    def prepare_outputs(self, layout):
        self._out_arena = _declining(PrivateOutputArena)(layout)
        return self._out_arena


class _DecliningProcessBackend(ProcessBackend):
    def prepare_outputs(self, layout):
        self._out_arena = _declining(SharedOutputArena)(layout)
        return self._out_arena


def _segment_spy(backend_cls):
    """``backend_cls`` whose builds fail if a /dev/shm segment is linked
    when the output arena is made or while rank 0 runs -- checked in the
    rank's own worker, so a process build fails with a WorkerError."""

    class Spy(backend_cls):
        prepared = 0

        def prepare_outputs(self, layout):
            before = _segments()
            arena = super().prepare_outputs(layout)
            assert _segments() <= before, "the output arena linked a segment"
            self.prepared += 1
            return arena

        def spawn_ranks(self, num_ranks, program_factory, **options):
            before = _segments()

            def spying(env):
                if env.rank == 0 and not _segments() <= before:
                    raise AssertionError("a segment is linked mid-run")
                return program_factory(env)

            return super().spawn_ranks(num_ranks, spying, **options)

    return Spy


#: Both real backends stage outputs in a mapping whose views are the results.
STAGING_BACKENDS = pytest.mark.parametrize(
    "backend_cls", [ThreadBackend, ProcessBackend], ids=["thread", "process"]
)


class TestOutputArena:
    def test_prepare_outputs_round_trip_and_end_run(self):
        from repro.cluster.topology import ProcessorGrid

        backend = ThreadBackend()
        layout = OutputLayout((4, 4), ProcessorGrid((1, 0)), ((0,), (0, 1)))
        arena = backend.prepare_outputs(layout)
        assert isinstance(arena, PrivateOutputArena)
        assert arena.nodes == ((0,), (0, 1))
        assert arena.stage(0, (0,), np.ones(2))
        assert arena.stage(1, (0,), np.full(2, 2.0))
        out = arena.collect([(0,)])
        np.testing.assert_array_equal(out[(0,)].data, [1.0, 1.0, 2.0, 2.0])
        # An unstaged slot reads as zero without any zero pass.
        assert not arena.collect([(0, 1)])[(0, 1)].data.any()
        backend.end_run()
        # Staging is per-run state and now declines; the collected views
        # own the buffer and outlive the run.
        assert not arena.stage(0, (0,), np.ones(2))
        del arena
        gc.collect()
        np.testing.assert_array_equal(out[(0,)].data, [1.0, 1.0, 2.0, 2.0])
        out[(0,)].data[0] = 7.0
        assert out[(0,)].data[0] == 7.0

    @STAGING_BACKENDS
    def test_results_are_views_that_outlive_run_rebuild_and_backend(self, backend_cls):
        # Aliasing regression: the arrays handed out are the buffer the
        # ranks wrote, so nothing a later run or shutdown does may reach it.
        first = _integer_facts((8, 6, 4), seed=5)
        second = _integer_facts((8, 6, 4), seed=6)
        backend = backend_cls().open()
        try:
            run = construct_cube_parallel(first, (1, 1, 0), backend=backend)
            assert not any(arr.data.flags.owndata for arr in run.results.values())
            want = {node: arr.data.copy() for node, arr in run.results.items()}
            backend.end_run()
            other = construct_cube_parallel(second, (1, 1, 0), backend=backend)
        finally:
            backend.close()
        del backend
        gc.collect()
        for node, arr in run.results.items():
            assert arr.data.tobytes() == want[node].tobytes(), node
        reference = cube_reference(second)
        for node, arr in other.results.items():
            np.testing.assert_array_equal(arr.data, reference[node].data)

    @STAGING_BACKENDS
    def test_built_cube_is_writable_and_absorbs_a_delta(self, backend_cls):
        schema = Schema.simple(item=10, branch=6, time=4)
        base = _integer_facts(schema.shape, seed=1)
        delta = _integer_facts(schema.shape, seed=2)
        cube = DataCube.build(schema, base, num_processors=4, backend=backend_cls.name)
        assert all(arr.data.flags.writeable for arr in cube.aggregates.values())
        apply_delta(cube, delta)
        reference = cube_reference(merge_sparse(base, delta))
        for node, arr in cube.aggregates.items():
            np.testing.assert_array_equal(arr.data, reference[node].data)

    @STAGING_BACKENDS
    def test_build_links_no_segment(self, backend_cls):
        data = _integer_facts((8, 6, 4), seed=5)
        before = _segments()
        backend = _segment_spy(backend_cls)()
        try:
            run = construct_cube_parallel(data, (1, 1, 0), backend=backend)
        finally:
            backend.close()
        assert backend.prepared == 1
        assert _segments() <= before
        reference = cube_reference(data)
        for node, arr in run.results.items():
            np.testing.assert_array_equal(arr.data, reference[node].data)

    @pytest.mark.parametrize("measure", [SUM, MIN], ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "backend_cls", [_DecliningThreadBackend, _DecliningProcessBackend]
    )
    def test_staged_and_in_band_portions_merge_exactly(self, backend_cls, measure):
        # Nothing may depend on an explicit zero pass: a node whose
        # portions arrive half through the arena, half in-band, is the sum
        # of two arrays that are zero wherever the other one was written.
        data = _integer_facts((8, 6, 4), seed=9)
        backend = backend_cls()
        try:
            run = construct_cube_parallel(
                data, (1, 1, 0), backend=backend, measure=measure
            )
        finally:
            backend.close()
        routes = {}
        for written in run.metrics.rank_results:
            for node, portion in written.items():
                routes.setdefault(node, set()).add(isinstance(portion, StagedResult))
        assert any(len(r) == 2 for r in routes.values()), "no node was mixed"
        reference = cube_reference(data, measure=measure)
        for node, arr in run.results.items():
            np.testing.assert_array_equal(arr.data, reference[node].data)

    def test_traced_build_records_staged_writebacks(self):
        data = random_sparse((8, 6, 4), sparsity=0.3, seed=5)
        run = construct_cube_parallel(
            data, (1, 1, 0), backend="thread", trace=True
        )
        staged = [
            s for s in run.metrics.spans
            if s.name == "build.writeback" and s.attrs.get("staged")
        ]
        assert staged, "thread builds should stage writebacks into the arena"
