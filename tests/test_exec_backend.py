"""Unit tests for the execution-backend subsystem (:mod:`repro.exec`).

Covers the registry, the deprecation shim on direct ``run_spmd`` cube
builds, the :class:`TimeoutPolicy` abstraction, construction-time
``BuildConfig`` validation, the process backend's input path (the fork,
no staging segment), its message region, and its guard rails.
Cross-backend result parity lives in ``test_backend_parity.py``.
"""

import multiprocessing
import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.arrays.dense import DenseArray
from repro.arrays.sparse import SparseArray
from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.runtime import (
    MONOTONIC_TIMEOUTS,
    SIMULATED_TIMEOUTS,
    BarrierOp,
    ComputeOp,
    RecvOp,
    SendOp,
    TimeoutPolicy,
    run_spmd,
)
from repro.cluster.topology import ProcessorGrid
from repro.core.config import BuildConfig
from repro.core.parallel import construct_cube_parallel
from repro.exec import (
    Backend,
    ProcessBackend,
    SimBackend,
    available_backends,
    get_backend,
)
from repro.exec.shm import MessageRegion, OutputLayout
from repro.sched import ShuffleScheduler


# -- registry --------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "sim" in available_backends()
        assert "process" in available_backends()

    def test_get_backend_returns_fresh_instances(self):
        a = get_backend("sim")
        b = get_backend("sim")
        assert isinstance(a, SimBackend)
        assert a is not b

    def test_get_backend_process(self):
        backend = get_backend("process")
        assert isinstance(backend, ProcessBackend)
        assert backend.name == "process"

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="unknown backend 'mpi'"):
            get_backend("mpi")
        with pytest.raises(ValueError, match="process"):
            get_backend("mpi")


# -- cube programs and generic SPMD programs run without warnings ----------------------


def _cube_program_factory():
    from repro.arrays.measures import SUM
    from repro.cluster.topology import ProcessorGrid
    from repro.core.parallel import _extract_local_inputs
    from repro.sched import Fig5Scheduler

    data = DenseArray.full_cube_input(np.arange(32, dtype=float).reshape(8, 4))
    grid = ProcessorGrid((1, 0))
    return Fig5Scheduler().rank_program(
        (8, 4), (1, 0), grid, _extract_local_inputs(data, grid), measure=SUM
    )


class TestRunSpmdDeprecation:
    def test_backend_route_does_not_warn(self):
        program = _cube_program_factory()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SimBackend().spawn_ranks(2, program)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_generic_spmd_programs_do_not_warn(self):
        def program(env):
            if env.rank == 0:
                yield SendOp(dst=1, tag=0, payload=np.ones(4))
            else:
                yield RecvOp(src=0, tag=0)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_spmd(2, program)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]


# -- TimeoutPolicy ---------------------------------------------------------------------


class TestTimeoutPolicy:
    def test_simulated_preset_is_identity(self):
        assert SIMULATED_TIMEOUTS.clock == "simulated"
        assert SIMULATED_TIMEOUTS.effective(0.25) == 0.25

    def test_monotonic_preset_floors(self):
        assert MONOTONIC_TIMEOUTS.clock == "monotonic"
        assert MONOTONIC_TIMEOUTS.effective(1e-9) == MONOTONIC_TIMEOUTS.min_timeout_s
        assert MONOTONIC_TIMEOUTS.effective(10.0) == 10.0

    def test_scale(self):
        policy = TimeoutPolicy(scale=3.0)
        assert policy.effective(2.0) == 6.0

    def test_detection_timeout_simulated_uses_cost_model(self):
        machine = MachineModel()
        t = SIMULATED_TIMEOUTS.detection_timeout(machine)
        assert t > 0

    def test_detection_timeout_monotonic_uses_floor(self):
        machine = MachineModel()
        t = MONOTONIC_TIMEOUTS.detection_timeout(machine)
        assert t == MONOTONIC_TIMEOUTS.detection_floor_s

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clock": "wall"},
            {"scale": 0.0},
            {"scale": -1.0},
            {"min_timeout_s": -0.1},
            {"detection_floor_s": -1.0},
            {"detection_control_messages": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TimeoutPolicy(**kwargs)


# -- BuildConfig construction-time validation -----------------------------------------


class TestBuildConfigValidation:
    def test_default_backend_is_sim(self):
        assert BuildConfig().backend == "sim"

    def test_unknown_backend_name(self):
        with pytest.raises(ValueError, match="unknown backend 'mpi'"):
            BuildConfig(backend="mpi")

    def test_backend_instance_accepted(self):
        cfg = BuildConfig(backend=SimBackend())
        assert isinstance(cfg.backend, SimBackend)

    def test_backend_wrong_type(self):
        with pytest.raises(TypeError, match="backend must be"):
            BuildConfig(backend=42)

    def test_process_rejects_fault_plan(self):
        from repro.cluster.faults import FaultPlan

        plan = FaultPlan().crash(0, 1.0)
        with pytest.raises(ValueError, match="simulator-only"):
            BuildConfig(backend="process", fault_plan=plan)

    def test_process_rejects_machines(self):
        with pytest.raises(ValueError, match="simulator-only"):
            BuildConfig(backend="process", machines={0: MachineModel()})

    def test_recv_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="recv_timeout"):
            BuildConfig(recv_timeout=0.0)

    def test_checkpoint_requires_flat_reduction(self):
        with pytest.raises(ValueError, match="flat"):
            BuildConfig(checkpoint=True, reduction="binomial")

    def test_legacy_kwarg_funnel_validates_too(self):
        # The kwarg path merges into a BuildConfig, so the same
        # construction-time validation fires.
        data = np.arange(32, dtype=float).reshape(8, 4)
        with pytest.raises(ValueError, match="unknown backend"):
            construct_cube_parallel(data, (1, 0), backend="mpi")


# -- process inputs are read through the fork ------------------------------------------


class TestProcessInputs:
    @pytest.mark.parametrize("scheduler, segments", [("fig5", 0), ("shuffle", 0)])
    def test_build_creates_no_input_segment(self, monkeypatch, scheduler, segments):
        # Workers are forked after the partition and read the host's blocks,
        # and the output arena and the message region are anonymous
        # mappings shared across the fork: no build creates a named segment.
        created = []
        real = shared_memory.SharedMemory

        def counting(*args, **kwargs):
            if kwargs.get("create") or args[1:2] == (True,):
                created.append(kwargs.get("size"))
            return real(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", counting)
        rng = np.random.default_rng(5)
        dense = np.where(rng.random((8, 6, 4)) < 0.4, rng.integers(1, 9, (8, 6, 4)), 0)
        data = SparseArray.from_dense(dense.astype(float), chunk_shape=(3, 4, 2))
        res = construct_cube_parallel(data, (1, 1, 0), backend="process", scheduler=scheduler)
        assert len(created) == segments
        np.testing.assert_array_equal(res.results[()].data, dense.sum())
        np.testing.assert_array_equal(res.results[(0, 2)].data, dense.sum(axis=1))


# -- process messages travel through a region sized by the declared volume ------------


class _KeepsRegion(ProcessBackend):
    """Keeps the build's message region for inspection after the run."""

    def prepare_outputs(self, layout):
        arena = super().prepare_outputs(layout)
        self.region = self._messages
        return arena


class _UnderDeclared(ShuffleScheduler):
    """A shuffle that declares half of what it sends."""

    def declared_volume(self, shape, bits):
        return super().declared_volume(shape, bits) // 2


class TestProcessMessages:
    SHAPE, BITS = (8, 6, 4), (1, 1, 0)

    def _build(self, scheduler, **options):
        data = random_sparse(self.SHAPE, sparsity=0.3, seed=21)
        backend = _KeepsRegion()
        run = construct_cube_parallel(
            data, self.BITS, scheduler=scheduler, backend=backend, **options
        )
        sim = construct_cube_parallel(
            data, self.BITS, scheduler=scheduler, backend="sim", **options
        )
        assert set(run.results) == set(sim.results)
        for node, arr in sim.results.items():
            assert run.results[node].data.tobytes() == arr.data.tobytes(), node
        assert run.metrics.comm.total_elements == sim.metrics.comm.total_elements
        assert run.metrics.comm.total_bytes == sim.metrics.comm.total_bytes
        assert run.metrics.comm.total_messages == sim.metrics.comm.total_messages
        return run, int(backend.region._used), backend.region.nbytes

    @pytest.mark.parametrize("scheduler", ["fig5", "shuffle"])
    def test_declared_volume_fills_the_region_exactly(self, scheduler):
        run, used, nbytes = self._build(scheduler)
        assert used == nbytes == run.expected_comm_volume_elements * 8
        assert run.metrics.comm.total_elements == run.expected_comm_volume_elements

    def test_chunked_reduction_slabs_use_the_region(self):
        run, used, nbytes = self._build("fig5", max_message_elements=5)
        assert used == nbytes > 0

    def test_under_declared_volume_overflows_into_the_pipe(self):
        # Payloads that no longer fit are pickled as before: same cube,
        # same volume, same bytes.
        run, used, nbytes = self._build(_UnderDeclared())
        sent = run.metrics.comm.total_bytes
        assert 0 < used <= nbytes < sent
        assert run.metrics.comm.total_elements == ShuffleScheduler().declared_volume(
            self.SHAPE, self.BITS
        )

    def test_concurrent_parks_claim_disjoint_slots(self):
        # More writers than cores race for one bump offset: a lost update
        # would hand two payloads one slot (a value overwritten, the
        # region not filled exactly).
        ctx = multiprocessing.get_context("fork")
        sizes = [i % 7 + 1 for i in range(2000)]
        writers = 6
        layout = OutputLayout(
            (1,), ProcessorGrid((0,)), ((0,),), declared_volume=writers * sum(sizes)
        )
        region = MessageRegion(layout, ctx.Lock())
        slots = ctx.Queue()

        def park(k):
            slots.put([region.park(np.full(n, k * 10_000.0 + i)) for i, n in enumerate(sizes)])

        procs = [ctx.Process(target=park, args=(k,)) for k in range(writers)]
        for proc in procs:
            proc.start()
        got = [slots.get(timeout=60) for _ in range(writers)]
        for proc in procs:
            proc.join(timeout=30)
            assert not proc.is_alive()
        assert int(region._used) == region.nbytes
        for parked in got:
            assert all(isinstance(slot, tuple) for slot in parked)
            for i, slot in enumerate(parked):
                values = region.unpark(slot)
                assert values.size == sizes[i] and (values == values[0]).all()
                assert values[0] % 10_000 == i

    def test_duplicated_delivery_overflows_into_the_pipe(self):
        # The duplicate is charged like the simulator's, and whichever
        # copy no longer fits the exactly sized region is pickled.
        plan = FaultPlan(seed=5).duplicate_messages(1.0, src=3, max_events=1)
        run, used, nbytes = self._build("fig5", fault_plan=plan)
        assert run.metrics.faults.messages_duplicated == 1
        assert used <= nbytes < run.metrics.comm.total_bytes


# -- process backend guard rails -------------------------------------------------------


class TestProcessBackend:
    def test_generic_program_runs_for_real(self):
        def program(env):
            if env.rank == 0:
                yield SendOp(dst=1, tag=0, payload=np.arange(8, dtype=float))
                yield BarrierOp()
            else:
                payload = yield RecvOp(src=0, tag=0)
                np.testing.assert_array_equal(payload, np.arange(8, dtype=float))
                yield ComputeOp(element_ops=8.0)
                yield BarrierOp()

        backend = ProcessBackend()
        metrics = backend.spawn_ranks(2, program)
        assert metrics.backend == "process"
        assert metrics.num_ranks == 2
        assert metrics.comm.total_messages == 1

    def test_rejects_faults(self):
        from repro.cluster.faults import FaultPlan

        def program(env):
            yield BarrierOp()

        with pytest.raises(ValueError, match="simulator-only"):
            ProcessBackend().spawn_ranks(
                2, program, faults=FaultPlan().crash(0, 1.0)
            )

    def test_rejects_per_rank_machines(self):
        def program(env):
            yield BarrierOp()

        with pytest.raises(ValueError, match="simulator-only"):
            ProcessBackend().spawn_ranks(
                2, program, machines={0: MachineModel()}
            )

    def test_worker_error_propagates(self):
        from repro.exec.process import WorkerError

        def program(env):
            if env.rank == 1:
                raise RuntimeError("boom in rank 1")
            yield ComputeOp(element_ops=1.0)

        with pytest.raises(WorkerError, match="boom in rank 1"):
            ProcessBackend().spawn_ranks(2, program)

    def test_watchdog_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(watchdog_s=0.0)

    def test_timeouts_are_monotonic(self):
        assert ProcessBackend().timeouts is MONOTONIC_TIMEOUTS
        assert SimBackend().timeouts is SIMULATED_TIMEOUTS

    def test_checkpointed_build_on_process_backend(self, tmp_path):
        data = np.arange(8 * 4 * 4, dtype=float).reshape(8, 4, 4)
        run = construct_cube_parallel(
            data,
            (1, 1, 0),
            backend="process",
            checkpoint=True,
            checkpoint_dir=tmp_path,
        )
        ref = construct_cube_parallel(data, (1, 1, 0))
        for node, arr in ref.results.items():
            assert run.results[node].data.tobytes() == arr.data.tobytes()

    def test_traced_build_has_a_host_span_per_fork_and_one_reap(self):
        data = np.arange(8 * 4 * 4, dtype=float).reshape(8, 4, 4)
        traced = construct_cube_parallel(data, (1, 1, 0), backend="process", trace=True)
        host = [s for s in traced.metrics.spans if s.rank < 0]
        forks = [s for s in host if s.name == "exec.fork"]
        assert sorted(s.attrs["rank"] for s in forks) == [0, 1, 2, 3]
        assert [s.name for s in host].count("exec.reap") == 1
        plain = construct_cube_parallel(data, (1, 1, 0), backend="process")
        assert not plain.metrics.spans

    def test_backend_repr(self):
        assert "process" in repr(ProcessBackend())
        assert isinstance(get_backend("sim"), Backend)
