"""Unit tests for parallel cube construction (Fig 5) on the simulator."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.arrays.sparse import SparseArray
from repro.cluster.machine import MachineModel
from repro.core.comm_model import total_comm_volume
from repro.core.memory_model import parallel_memory_bound_exact
from repro.core.parallel import (
    construct_cube_parallel,
    sequential_fraction_at_first_level,
)
from repro.core.aggregation_tree import (
    AggregationTree,
    ComputeChildren,
    Finalize,
    WriteBack,
)
from repro.core.sequential import verify_cube
from repro.sched import Fig5Scheduler

#: The list every Fig 5 rank walks (step indices are message tags).
fig5_schedule = Fig5Scheduler().schedule


class TestSchedule:
    def test_finalize_follows_local_aggregate(self):
        steps = fig5_schedule(3)
        produced = set()
        for step in steps:
            if isinstance(step, ComputeChildren):
                produced.update(step.children)
            elif isinstance(step, Finalize):
                assert step.child in produced

    def test_writeback_after_finalize(self):
        steps = fig5_schedule(4)
        finalized = set()
        for step in steps:
            if isinstance(step, Finalize):
                finalized.add(step.child)
            elif isinstance(step, WriteBack):
                assert step.node in finalized

    def test_every_node_finalized_once(self):
        steps = fig5_schedule(4)
        finals = [s.child for s in steps if isinstance(s, Finalize)]
        assert len(finals) == len(set(finals)) == 2 ** 4 - 1

    def test_finalize_dim_is_aggregated_dim(self):
        tree = AggregationTree(3)
        for step in fig5_schedule(3):
            if isinstance(step, Finalize):
                assert step.dim == tree.aggregated_dim(step.child)


class TestCorrectness:
    @pytest.mark.parametrize(
        "shape,bits",
        [
            ((8, 4), (1, 0)),
            ((8, 4), (1, 1)),
            ((8, 6, 4), (1, 1, 1)),
            ((8, 6, 4), (2, 0, 0)),
            ((8, 6, 4), (0, 0, 0)),
            ((8, 6, 4, 4), (1, 1, 1, 0)),
            ((8, 6, 4, 4), (2, 1, 0, 0)),
            ((8, 6, 4, 4), (3, 0, 0, 0)),
        ],
    )
    def test_matches_reference(self, shape, bits):
        data = random_sparse(shape, 0.3, seed=20)
        res = construct_cube_parallel(data, bits)
        verify_cube(res.results, data)

    def test_dense_input(self):
        rng = np.random.default_rng(21)
        data = rng.uniform(size=(6, 4, 4))
        res = construct_cube_parallel(data, (1, 1, 0))
        verify_cube(res.results, data)

    def test_uneven_blocks(self):
        # Sizes not divisible by processor counts.
        data = random_sparse((7, 5, 3), 0.4, seed=22)
        res = construct_cube_parallel(data, (1, 1, 0))
        verify_cube(res.results, data)

    def test_binomial_reduction_same_results(self):
        data = random_sparse((8, 8, 4), 0.3, seed=23)
        flat = construct_cube_parallel(data, (2, 1, 0), reduction="flat")
        binom = construct_cube_parallel(data, (2, 1, 0), reduction="binomial")
        for node in flat.results:
            assert np.allclose(flat.results[node].data, binom.results[node].data)

    def test_single_processor_degenerates_to_sequential(self):
        data = random_sparse((6, 4, 2), 0.5, seed=24)
        res = construct_cube_parallel(data, (0, 0, 0))
        assert res.comm_volume_elements == 0
        verify_cube(res.results, data)

    def test_collect_results_false(self):
        data = random_sparse((4, 4), 0.5, seed=25)
        res = construct_cube_parallel(data, (1, 0), collect_results=False)
        assert res.results is None
        with pytest.raises(ValueError):
            res[(0,)]

    def test_rejects_bad_bits_length(self):
        data = random_sparse((4, 4), 0.5, seed=26)
        with pytest.raises(ValueError):
            construct_cube_parallel(data, (1,))

    def test_rejects_unknown_reduction(self):
        data = random_sparse((4, 4), 0.5, seed=27)
        with pytest.raises(ValueError):
            construct_cube_parallel(data, (1, 0), reduction="quantum")


class TestFactsAreEncodedOnce:
    """Ingest is the only encoder: builds re-base offsets, never re-encode."""

    SHAPE, BITS, CHUNKS = (8, 6, 4), (1, 1, 0), (3, 4, 2)  # chunks straddle blocks

    @pytest.fixture
    def data(self):
        return random_sparse(self.SHAPE, 0.4, seed=28, chunk_shape=self.CHUNKS)

    @pytest.fixture
    def no_reencode(self, data, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("facts were re-encoded after ingest")

        monkeypatch.setattr(SparseArray, "from_coords", classmethod(refuse))

    @pytest.mark.parametrize("backend", ["sim", "thread", "process"])
    @pytest.mark.parametrize("scheduler", ["fig5", "shuffle"])
    def test_parallel_build_never_calls_from_coords(
        self, data, no_reencode, backend, scheduler
    ):
        res = construct_cube_parallel(
            data, self.BITS, backend=backend, scheduler=scheduler
        )
        verify_cube(res.results, data)

    @pytest.mark.parametrize("procs", [1, 4])
    def test_datacube_build_never_calls_from_coords(self, data, no_reencode, procs):
        from repro.olap import DataCube, Schema

        # (6, 8, 4) is not in plan order, so the build also transposes.
        facts = data.transpose((1, 0, 2))
        cube = DataCube.build(Schema.simple(a=6, b=8, c=4), facts, num_processors=procs)
        assert cube.plan.order != (0, 1, 2)
        dense = facts.to_dense()
        assert np.allclose(cube.aggregates[(0, 2)].data, dense.sum(axis=1))
        assert np.allclose(cube.aggregates[()].data, dense.sum())

    @pytest.mark.parametrize("backend", ["sim", "thread", "process"])
    def test_build_leaves_the_input_arrays_untouched(self, data, backend):
        # Rank blocks may share ``values`` with the source chunks.
        before = [(c.offsets.tobytes(), c.values.tobytes()) for c in data.chunks]
        res = construct_cube_parallel(data, self.BITS, backend=backend)
        verify_cube(res.results, data)
        assert before == [(c.offsets.tobytes(), c.values.tobytes()) for c in data.chunks]


class TestCommunicationVolume:
    @pytest.mark.parametrize(
        "shape,bits",
        [
            ((8, 4), (1, 1)),
            ((8, 6, 4), (1, 1, 1)),
            ((8, 6, 4), (2, 1, 0)),
            ((8, 6, 4, 4), (1, 1, 1, 0)),
            ((8, 6, 4, 4), (3, 0, 0, 0)),
            ((7, 5, 3), (1, 1, 0)),  # uneven blocks: Lemma 1 still exact
        ],
    )
    def test_measured_equals_theorem3_exactly(self, shape, bits):
        data = random_sparse(shape, 0.3, seed=28)
        res = construct_cube_parallel(data, bits, collect_results=False)
        assert res.comm_volume_elements == total_comm_volume(shape, bits)
        assert res.comm_volume_elements == res.expected_comm_volume_elements

    def test_volume_independent_of_sparsity(self):
        # Outputs are dense: communication is the same at any sparsity.
        shape, bits = (8, 6, 4), (1, 1, 1)
        v = [
            construct_cube_parallel(
                random_sparse(shape, s, seed=29), bits, collect_results=False
            ).comm_volume_elements
            for s in (0.05, 0.25, 0.8)
        ]
        assert v[0] == v[1] == v[2]

    def test_binomial_volume_equal_to_flat(self):
        data = random_sparse((8, 8, 4), 0.3, seed=30)
        flat = construct_cube_parallel(data, (2, 1, 0), collect_results=False)
        binom = construct_cube_parallel(
            data, (2, 1, 0), reduction="binomial", collect_results=False
        )
        assert flat.comm_volume_elements == binom.comm_volume_elements


class TestMemory:
    @pytest.mark.parametrize(
        "shape,bits",
        [
            ((8, 4, 2), (1, 1, 0)),
            ((8, 8, 8), (1, 1, 1)),
            ((8, 6, 4, 2), (2, 1, 0, 0)),
        ],
    )
    def test_rank_peaks_within_theorem4_bound(self, shape, bits):
        data = random_sparse(shape, 0.3, seed=31)
        res = construct_cube_parallel(data, bits, collect_results=False)
        bound = parallel_memory_bound_exact(shape, bits)
        for peak in res.metrics.rank_peak_memory_elements:
            assert peak <= bound

    def test_full_holders_hit_bound(self):
        # With divisible extents, the busiest rank reaches the bound exactly.
        shape, bits = (8, 4, 2), (1, 1, 0)
        data = random_sparse(shape, 0.5, seed=32)
        res = construct_cube_parallel(data, bits, collect_results=False)
        assert max(res.metrics.rank_peak_memory_elements) == parallel_memory_bound_exact(
            shape, bits
        )


class TestTiming:
    def test_more_processors_faster(self):
        shape = (16, 16, 8, 8)
        data = random_sparse(shape, 0.25, seed=33)
        machine = MachineModel.paper_cluster()
        t = []
        for bits in [(0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)]:
            res = construct_cube_parallel(
                data, bits, machine=machine, collect_results=False
            )
            t.append(res.simulated_time_s)
        assert t[0] > t[1] > t[2]

    def test_better_partition_faster_at_same_p(self):
        # The Figure 7 effect: 3-d partition beats 1-d on 8 processors.
        shape = (16, 16, 16, 16)
        data = random_sparse(shape, 0.10, seed=34)
        machine = MachineModel.paper_cluster()
        t3 = construct_cube_parallel(
            data, (1, 1, 1, 0), machine=machine, collect_results=False
        ).simulated_time_s
        t1 = construct_cube_parallel(
            data, (3, 0, 0, 0), machine=machine, collect_results=False
        ).simulated_time_s
        assert t3 < t1


class TestFirstLevelFraction:
    def test_matches_paper_98_percent(self):
        # Paper: ~98 % of computation at the first level for equal extents.
        frac = sequential_fraction_at_first_level((64, 64, 64, 64))
        assert frac > 0.97

    def test_small_cube(self):
        assert 0 < sequential_fraction_at_first_level((2, 2)) <= 1


class TestBuildConfig:
    def test_config_equals_legacy_keywords(self):
        from repro.core.config import BuildConfig

        shape = (8, 8, 4)
        data = random_sparse(shape, 0.3, seed=40)
        machine = MachineModel.paper_cluster()
        legacy = construct_cube_parallel(
            data, (1, 0, 0), machine=machine, reduction="binomial"
        )
        cfg = BuildConfig(machine=machine, reduction="binomial")
        via_config = construct_cube_parallel(data, (1, 0, 0), config=cfg)
        assert legacy.comm_volume_elements == via_config.comm_volume_elements
        for node, arr in legacy.results.items():
            assert np.array_equal(arr.data, via_config.results[node].data)

    def test_explicit_keyword_overrides_config(self):
        from repro.core.config import BuildConfig

        shape = (8, 4)
        data = random_sparse(shape, 0.3, seed=41)
        cfg = BuildConfig(collect_results=False)
        run = construct_cube_parallel(
            data, (1, 0), config=cfg, collect_results=True
        )
        assert run.results is not None  # keyword won over config

    def test_config_validation(self):
        import dataclasses

        from repro.core.config import BuildConfig
        from repro.core.spanning_tree import minimal_parent_tree

        with pytest.raises(ValueError, match="unknown reduction"):
            BuildConfig(reduction="quantum")
        with pytest.raises(ValueError, match="must be positive"):
            BuildConfig(max_message_elements=0)
        # The tree and the step list belong to the scheduler, not the config.
        with pytest.raises(TypeError, match="tree"):
            BuildConfig(tree=minimal_parent_tree((4, 4)))
        with pytest.raises(TypeError, match="schedule"):
            BuildConfig(schedule=[])
        assert len(dataclasses.fields(BuildConfig)) == 15

    def test_unknown_keyword_raises_type_error_naming_it(self):
        data = random_sparse((8, 4), 0.3, seed=41)
        with pytest.raises(TypeError, match="reducton"):
            construct_cube_parallel(data, (1, 0), reducton="flat")

    def test_plan_run_parallel_accepts_config(self):
        from repro.core.config import BuildConfig
        from repro.core.plan import plan_cube

        shape = (8, 6, 4)
        data = random_sparse(shape, 0.3, seed=42)
        plan = plan_cube(shape, num_processors=4)
        run = plan.run_parallel(data, config=BuildConfig(collect_results=True))
        assert run.results is not None
