"""Unit tests for the execution-backend subsystem (:mod:`repro.exec`).

Covers the registry, the deprecation shim on direct ``run_spmd`` cube
builds, the :class:`TimeoutPolicy` abstraction, construction-time
``BuildConfig`` validation, the process backend's input path (the fork,
no staging segment), and its guard rails.  Cross-backend result parity lives in
``test_backend_parity.py``.
"""

import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.arrays.dense import DenseArray
from repro.arrays.sparse import SparseArray
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
from repro.core.config import BuildConfig
from repro.core.parallel import construct_cube_parallel
from repro.exec import (
    Backend,
    ProcessBackend,
    SimBackend,
    available_backends,
    get_backend,
)


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
        # and fig5's output arena is an anonymous mapping shared across the
        # fork (shuffle stages none): no build creates a named segment.
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

    def test_backend_repr(self):
        assert "process" in repr(ProcessBackend())
        assert isinstance(get_backend("sim"), Backend)
