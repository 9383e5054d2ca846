"""Unit tests for the pluggable construction schedulers (repro.sched).

Covers the registry (exact names + parameterized families), each
scheduler's declared invariants against measured runs, the scheduler mode
of ``verify_plan``, BuildConfig's construction-time capability validation,
the deprecation shims for the moved planning helpers, and the pinned
golden regression proving the fig5 extraction is bit-identical to the
pre-refactor construction path.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.core.comm_model import total_comm_volume
from repro.core.config import BuildConfig
from repro.core.memory_model import parallel_memory_bound_exact
from repro.core.parallel import construct_cube_parallel
from repro.core.partial import partial_comm_volume
from repro.core.plan import plan_cube
from repro.sched import (
    Fig5Scheduler,
    MarginalsScheduler,
    Scheduler,
    ShuffleScheduler,
    available_schedulers,
    get_scheduler,
    order_k_nodes,
    resolve_scheduler,
    shuffle_comm_volume,
    shuffle_targets,
)

GOLDEN = Path(__file__).parent / "golden" / "fig5_construction.json"


class TestRegistry:
    def test_builtin_schedulers_registered(self):
        specs = available_schedulers()
        assert "fig5" in specs
        assert "shuffle" in specs
        assert "marginals-<k>[-shuffle]" in specs

    def test_get_scheduler_returns_fresh_instances(self):
        a = get_scheduler("fig5")
        b = get_scheduler("fig5")
        assert isinstance(a, Fig5Scheduler)
        assert a is not b

    def test_marginals_family_parses_order(self):
        s = get_scheduler("marginals-2")
        assert isinstance(s, MarginalsScheduler)
        assert s.k == 2 and s.base == "fig5"
        assert s.spec == "marginals-2"

    def test_marginals_family_parses_shuffle_base(self):
        s = get_scheduler("marginals-3-shuffle")
        assert s.k == 3 and s.base == "shuffle"
        assert s.spec == "marginals-3-shuffle"

    def test_spec_round_trips_through_registry(self):
        for spec in ("fig5", "shuffle", "marginals-1", "marginals-2-shuffle"):
            assert get_scheduler(spec).spec == spec

    def test_unknown_scheduler_lists_available(self):
        with pytest.raises(ValueError, match="unknown scheduler 'mapreduce'"):
            get_scheduler("mapreduce")
        with pytest.raises(ValueError, match="shuffle"):
            get_scheduler("mapreduce")

    def test_malformed_marginals_spec_rejected(self):
        for bad in ("marginals-", "marginals-x", "marginals-2-batch"):
            with pytest.raises(ValueError, match="unknown scheduler"):
                get_scheduler(bad)

    def test_resolve_passes_instances_through(self):
        inst = ShuffleScheduler()
        assert resolve_scheduler(inst) is inst
        assert isinstance(resolve_scheduler("shuffle"), ShuffleScheduler)

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError, match="registered spec string"):
            resolve_scheduler(42)

    def test_custom_scheduler_plugs_in_as_an_instance(self):
        class Custom(Fig5Scheduler):
            """A third-party scheduler."""

            name = "custom-fig5"

        # Not a table name: a custom scheduler is passed as an instance,
        # and it threads through a construction end to end.
        assert "custom-fig5" not in available_schedulers()
        data = random_sparse((4, 4), 0.5, seed=1)
        run = construct_cube_parallel(data, (1, 0), scheduler=Custom())
        assert run.scheduler == "custom-fig5"

    def test_custom_scheduler_instance_threads_through_plans_and_cubes(self):
        from repro.olap import DataCube, Dimension, Schema

        class Custom(Fig5Scheduler):
            name = "custom-fig5"

        shape = (8, 4, 4)
        plan = plan_cube(shape, 4, scheduler=Custom())
        assert plan.scheduler == "custom-fig5"
        assert "scheduler=custom-fig5" in plan.describe()
        assert plan.comm_volume_elements == total_comm_volume(plan.ordered_shape, plan.bits)
        assert plan.target_nodes is None
        assert Custom().plan(shape, 4).scheduler == "custom-fig5"
        data = random_sparse(shape, 0.5, seed=2)
        run = plan.run_parallel(data)
        assert run.scheduler == "custom-fig5"

        schema = Schema.of(*(Dimension(f"d{i}", s) for i, s in enumerate(shape)))
        cube = DataCube.build(schema, data, num_processors=2, scheduler=Custom())
        assert cube.build_stats.scheduler == "custom-fig5"
        ref = DataCube.build(schema, data, num_processors=2)
        assert set(cube.aggregates) == set(ref.aggregates)
        for node, arr in ref.aggregates.items():
            np.testing.assert_array_equal(cube.aggregates[node].data, arr.data)

    def test_scheduler_instance_keeps_its_parameters_on_the_plan(self):
        # A parameterized instance is kept whole, not rebuilt from its spec.
        sched = Fig5Scheduler(targets=[(0,), (1, 2)])
        plan = plan_cube((8, 4, 4), 2, scheduler=sched)
        assert plan.sched is sched
        assert sorted(plan.target_nodes) == [(0,), (1, 2)]
        assert plan.comm_volume_elements == sched.declared_volume(plan.ordered_shape, plan.bits)

    def test_describe_is_nonempty_for_all(self):
        for spec in ("fig5", "shuffle", "marginals-1", "marginals-1-shuffle"):
            assert get_scheduler(spec).description


class TestTargets:
    def test_fig5_materializes_full_cube(self):
        assert Fig5Scheduler().target_nodes(4) is None

    def test_shuffle_targets_every_proper_subset(self):
        targets = shuffle_targets(3)
        assert set(targets) == {(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}

    def test_order_k_nodes(self):
        assert order_k_nodes(4, 2) == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        )
        assert order_k_nodes(3, 0) == ((),)
        with pytest.raises(ValueError):
            order_k_nodes(3, 3)
        with pytest.raises(ValueError):
            order_k_nodes(3, -1)

    def test_marginals_shape_validation(self):
        with pytest.raises(ValueError, match="marginals-5"):
            get_scheduler("marginals-5").validate_shape((4, 4, 4))
        with pytest.raises(ValueError, match="k must satisfy"):
            plan_cube((4, 4), 2, scheduler="marginals-7")


class TestDeclaredVolumes:
    SHAPE, BITS = (8, 6, 4, 4), (1, 1, 1, 0)

    def test_fig5_declared_volume_is_theorem3(self):
        s = get_scheduler("fig5")
        assert s.declared_volume(self.SHAPE, self.BITS) == total_comm_volume(
            self.SHAPE, self.BITS
        )

    def test_fig5_declared_memory_is_theorem4(self):
        s = get_scheduler("fig5")
        assert s.declared_memory_bound(
            self.SHAPE, self.BITS
        ) == parallel_memory_bound_exact(self.SHAPE, self.BITS)

    def test_shuffle_closed_form(self):
        # Every target receives q_T - 1 partials of its node size, where
        # q_T is the number of ranks collapsed onto each lead.
        assert shuffle_comm_volume((8, 4), (1, 1)) == (
            (2 - 1) * 4      # target (1): reduce over dim 0's 2 parts
            + (2 - 1) * 8    # target (0): reduce over dim 1's 2 parts
            + (4 - 1) * 1    # target (): reduce over all 4 ranks
        )

    def test_marginals_fig5_base_uses_pruned_lemma1(self):
        s = get_scheduler("marginals-2")
        assert s.declared_volume(self.SHAPE, self.BITS) == partial_comm_volume(
            self.SHAPE, self.BITS, order_k_nodes(4, 2)
        )

    def test_marginals_shuffle_base_uses_shuffle_form(self):
        s = get_scheduler("marginals-2-shuffle")
        assert s.declared_volume(self.SHAPE, self.BITS) == shuffle_comm_volume(
            self.SHAPE, self.BITS, order_k_nodes(4, 2)
        )

    @pytest.mark.parametrize(
        "spec", ["fig5", "shuffle", "marginals-1", "marginals-2", "marginals-2-shuffle"]
    )
    def test_measured_volume_equals_declared(self, spec):
        data = random_sparse(self.SHAPE, 0.3, seed=11)
        run = construct_cube_parallel(
            data, self.BITS, scheduler=spec, collect_results=False
        )
        declared = get_scheduler(spec).declared_volume(self.SHAPE, self.BITS)
        assert run.comm_volume_elements == declared
        assert run.expected_comm_volume_elements == declared

    @pytest.mark.parametrize(
        "spec", ["fig5", "shuffle", "marginals-1", "marginals-2-shuffle"]
    )
    def test_measured_peak_within_declared_bound(self, spec):
        data = random_sparse(self.SHAPE, 0.3, seed=12)
        run = construct_cube_parallel(
            data, self.BITS, scheduler=spec, collect_results=False
        )
        bound = get_scheduler(spec).declared_memory_bound(self.SHAPE, self.BITS)
        assert run.max_peak_memory_elements <= bound

    def test_uneven_extents_still_exact(self):
        # Split points are uneven: closed forms must track actual portions.
        shape, bits = (7, 5, 3), (1, 1, 0)
        for spec in ("shuffle", "marginals-1", "marginals-1-shuffle"):
            data = random_sparse(shape, 0.4, seed=13)
            run = construct_cube_parallel(
                data, bits, scheduler=spec, collect_results=False
            )
            assert run.comm_volume_elements == get_scheduler(
                spec
            ).declared_volume(shape, bits)


class TestResults:
    @pytest.mark.parametrize(
        "spec", ["shuffle", "marginals-1", "marginals-2", "marginals-2-shuffle"]
    )
    def test_aggregates_match_reference(self, spec):
        from repro.core.sequential import cube_reference

        shape, bits = (8, 6, 4), (1, 1, 0)
        data = random_sparse(shape, 0.3, seed=14)
        ref = cube_reference(data)
        run = construct_cube_parallel(data, bits, scheduler=spec)
        targets = get_scheduler(spec).target_nodes(len(shape))
        expected_nodes = set(ref) if targets is None else set(targets)
        assert set(run.results) == expected_nodes
        for node in run.results:
            assert np.allclose(run.results[node].data, ref[node].data)

    def test_scheduler_instance_accepted_everywhere(self):
        sched = MarginalsScheduler(1, base="shuffle")
        data = random_sparse((6, 4), 0.4, seed=15)
        run = construct_cube_parallel(data, (1, 0), scheduler=sched)
        assert run.scheduler == "marginals-1-shuffle"
        plan = plan_cube((6, 4), 2, scheduler=sched)
        assert plan.scheduler == "marginals-1-shuffle"

    def test_scheduler_plan_helper(self):
        plan = ShuffleScheduler().plan((8, 6, 4), num_processors=4)
        assert plan.scheduler == "shuffle"
        assert plan.comm_volume_elements == shuffle_comm_volume(
            plan.ordered_shape, plan.bits
        )

    def test_shuffle_rejects_chunked_messages_in_program(self):
        from repro.cluster.topology import ProcessorGrid

        with pytest.raises(ValueError, match="max_message_elements"):
            ShuffleScheduler().rank_program(
                (4, 4), (1, 0), ProcessorGrid((1, 0)), [],
                max_message_elements=8,
            )


class TestVerifyPlanSchedulerMode:
    @pytest.mark.parametrize(
        "spec", ["fig5", "shuffle", "marginals-1", "marginals-2", "marginals-2-shuffle"]
    )
    def test_all_schedulers_verify_clean(self, spec):
        from repro.analysis import verify_plan

        v = verify_plan((8, 6, 4, 4), (1, 1, 1, 0), scheduler=spec)
        assert v.ok, v.describe()
        assert v.scheduler == spec
        assert v.predicted_volume_elements == v.closed_form_volume_elements
        assert v.predicted_peak_memory_elements <= v.memory_bound_elements

    def test_describe_labels_theorems_only_for_fig5(self):
        from repro.analysis import verify_plan

        fig5 = verify_plan((8, 4), (1, 1))
        assert "Theorem 3" in fig5.describe()
        shuffle = verify_plan((8, 4), (1, 1), scheduler="shuffle")
        assert "Theorem 3" not in shuffle.describe()
        assert "declared by 'shuffle'" in shuffle.describe()

    def test_scheduler_exclusive_with_fig5_overrides(self):
        # detection_round is rejected by exactly the schedulers that have
        # no fault-tolerant program, by name.
        from repro.analysis import verify_plan

        for spec in ("shuffle", "marginals-1", "marginals-1-shuffle"):
            with pytest.raises(ValueError, match="no fault-tolerant program"):
                verify_plan((8, 4), (1, 1), scheduler=spec, detection_round=True)

    def test_shuffle_protocol_defects_are_caught(self):
        from repro.analysis import seed_model_defect, verify_schedule

        sym = get_scheduler("shuffle").symbolic_ops((8, 6, 4), (1, 1, 0))
        assert not verify_schedule(sym).diagnostics
        for kind in ("dropped-recv", "tag-collision", "wrong-lead"):
            mutated = seed_model_defect(sym, kind)
            assert verify_schedule(mutated).diagnostics, f"{kind} not caught"

    def test_shuffle_intermediate_rounds_are_lead_checked(self):
        # Every data send of a multi-round shuffle reduction -- not only
        # the last round -- carries its node and goes to a rank that
        # holds it: no exemption is needed for SPMD004.
        from repro.analysis import verify_schedule
        from repro.analysis.model import MSend

        prog = get_scheduler("shuffle").symbolic_ops((4, 4, 4), (1, 1, 0))
        data = [op for s in prog.streams for op in s if isinstance(op, MSend)]
        assert data and all(op.edge is not None for op in data)
        assert not verify_schedule(prog).diagnostics

    def test_check_model_accepts_a_scheduler_instance(self):
        # Regression: check_model resolved its scheduler with
        # get_scheduler, a TypeError on an instance.
        from repro.analysis import check_model

        shape, bits = (4, 4, 4), (1, 1, 0)
        by_instance = check_model(shape, bits, scheduler=ShuffleScheduler())
        assert by_instance.certified
        assert by_instance.certificate() == check_model(
            shape, bits, scheduler="shuffle"
        ).certificate()

    def test_verify_plan_takes_detection_round_with_a_fig5_instance(self):
        # Regression: verify_plan special-cased the *string* "fig5", so an
        # instance plus detection_round was "mutually exclusive".
        from repro.analysis import verify_plan

        shape, bits = (4, 4, 4), (1, 1, 0)
        ft = verify_plan(
            shape, bits, scheduler=get_scheduler("fig5"), detection_round=True
        )
        assert ft.ok, ft.describe()
        assert ft.describe() == verify_plan(shape, bits, detection_round=True).describe()


class TestBuildConfigValidation:
    def test_fig5_allows_everything(self):
        BuildConfig(scheduler="fig5", checkpoint=True)
        BuildConfig(scheduler="fig5", max_message_elements=16)

    def test_shuffle_rejects_checkpoint_by_name(self):
        with pytest.raises(ValueError, match="checkpoint"):
            BuildConfig(scheduler="shuffle", checkpoint=True)

    def test_shuffle_rejects_chunked_messages_by_name(self):
        with pytest.raises(ValueError, match="max_message_elements"):
            BuildConfig(scheduler="shuffle", max_message_elements=16)

    def test_shuffle_rejects_schedule_override_by_name(self):
        # There is no override to reject any more: the step list is the
        # scheduler's (Fig5Scheduler(tree=..., targets=...)), not a field.
        with pytest.raises(TypeError, match="schedule"):
            BuildConfig(scheduler="shuffle", schedule=[])
        with pytest.raises(TypeError, match="tree"):
            BuildConfig(scheduler="shuffle", tree=object())

    def test_marginals_fig5_base_allows_chunked_messages(self):
        BuildConfig(scheduler="marginals-2", max_message_elements=16)

    def test_marginals_shuffle_base_rejects_chunked_messages(self):
        with pytest.raises(ValueError, match="max_message_elements"):
            BuildConfig(scheduler="marginals-2-shuffle", max_message_elements=16)

    def test_marginals_rejects_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            BuildConfig(scheduler="marginals-1", checkpoint=True)

    def test_unknown_scheduler_fails_at_config_time(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            BuildConfig(scheduler="mapreduce")

    def test_construct_rejects_checkpoint_with_shuffle(self):
        data = random_sparse((4, 4), 0.5, seed=16)
        with pytest.raises(ValueError, match="checkpoint"):
            construct_cube_parallel(
                data, (1, 0), scheduler="shuffle", checkpoint=True
            )

    def test_marginals_constructor_validates_arguments(self):
        with pytest.raises(ValueError, match="non-negative int"):
            MarginalsScheduler(-1)
        with pytest.raises(ValueError, match="unknown marginals base"):
            MarginalsScheduler(1, base="spark")


class TestDeprecationShims:
    def test_importing_core_stays_silent(self):
        import subprocess
        import sys

        code = (
            "import warnings; warnings.simplefilter('error'); "
            "import repro, repro.core.parallel, repro.core.partial, "
            "repro.sched"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestFig5GoldenRegression:
    """The refactor must not change one bit of the fig5 construction.

    The golden file was written by the pre-refactor construction path
    (hardwired schedule in core.parallel); the extracted fig5 scheduler
    must reproduce identical aggregate bytes, message count, volume, and
    peak memory.
    """

    def _golden(self):
        return json.loads(GOLDEN.read_text())

    def _run(self, g):
        data = random_sparse(
            tuple(g["shape"]), g["sparsity"], seed=g["seed"]
        )
        return construct_cube_parallel(data, tuple(g["bits"]))

    def test_aggregate_hashes_unchanged(self):
        g = self._golden()
        run = self._run(g)
        got = {
            ",".join(str(d) for d in node): hashlib.sha256(
                arr.data.tobytes()
            ).hexdigest()
            for node, arr in run.results.items()
        }
        assert got == g["sha256"]

    def test_metrics_unchanged(self):
        g = self._golden()
        run = self._run(g)
        assert run.comm_volume_elements == g["comm_volume_elements"]
        assert run.metrics.comm.total_messages == g["total_messages"]
        assert run.max_peak_memory_elements == g["max_peak_memory_elements"]
        assert run.scheduler == "fig5"

    def test_explicit_fig5_scheduler_identical_to_default(self):
        g = self._golden()
        data = random_sparse(tuple(g["shape"]), g["sparsity"], seed=g["seed"])
        default = construct_cube_parallel(data, tuple(g["bits"]))
        explicit = construct_cube_parallel(
            data, tuple(g["bits"]), scheduler=Fig5Scheduler()
        )
        for node, arr in default.results.items():
            assert arr.data.tobytes() == explicit.results[node].data.tobytes()


class TwoRoundScheduler(Scheduler):
    """Toy third-party scheduler: two gather rounds on a 1-D grid.

    For a 2-D shape partitioned along dimension 0 only, it materializes
    ``(1,)`` and ``()`` straight from the input block, one reduction round
    each.  It implements :meth:`rank_program` and the two declared forms
    and nothing else -- verification comes from the program.
    """

    name = "two-round"

    def __init__(self, volume_error=0):
        self.volume_error = volume_error

    def target_nodes(self, n):
        return ((1,), ())

    def rank_program(
        self, shape, bits, grid, local_inputs, *,
        reduction="flat", measure=None, max_message_elements=None,
        outputs=None,
    ):
        from repro.arrays.aggregate import aggregate_dense
        from repro.cluster.collectives import reduce_to_lead
        from repro.sched.base import make_combiner

        combine = make_combiner(measure)
        inputs = list(local_inputs)

        def program(env):
            block = inputs[env.rank]
            group = grid.reduction_group(env.rank, 0)
            written = {}
            yield env.disk_read(block.nbytes)
            for tag, target in enumerate(self.target_nodes(2), start=1):
                part = aggregate_dense(block, target, measure=measure)
                yield env.compute(block.size)
                env.alloc(target, part.size)
                final = yield from reduce_to_lead(
                    env, group, part, tag=tag, combine=combine,
                    element_ops=part.size,
                )
                env.free(target)
                if final is not None:
                    yield env.disk_write(final.nbytes)
                    written[target] = final
            return written

        return program

    def declared_volume(self, shape, bits):
        return (2 ** bits[0] - 1) * (shape[1] + 1) + self.volume_error

    def declared_memory_bound(self, shape, bits):
        return shape[1]


class TestThirdPartyScheduler:
    SHAPE, BITS = (8, 4), (2, 0)

    def test_verified_and_model_checked_for_free(self):
        from repro.analysis import check_model, verify_plan

        sched = TwoRoundScheduler()
        v = verify_plan(self.SHAPE, self.BITS, scheduler=sched)
        assert v.diagnostics == [], v.describe()
        assert v.scheduler == "two-round"
        assert v.predicted_volume_elements == 3 * (4 + 1)
        result = check_model(self.SHAPE, self.BITS, scheduler=sched)
        assert result.certified, result.certificate()
        assert len(result.report.diagnostics) == 0

    def test_ledger_high_water_equals_measured_peaks(self):
        from repro.analysis.model import analyze_lifetime

        sched = TwoRoundScheduler()
        data = np.arange(32, dtype=float).reshape(self.SHAPE)
        run = construct_cube_parallel(data, self.BITS, scheduler=sched)
        static = analyze_lifetime(sched.symbolic_ops(self.SHAPE, self.BITS))
        assert static.from_ledger
        assert static.rank_high_water == tuple(
            run.metrics.rank_peak_memory_elements
        )
        assert run.metrics.comm.total_elements == sched.declared_volume(
            self.SHAPE, self.BITS
        )
        np.testing.assert_array_equal(run.results[(1,)].data, data.sum(axis=0))
        np.testing.assert_array_equal(run.results[()].data, data.sum())

    def test_wrong_declared_volume_trips_spmd006(self):
        from repro.analysis import verify_plan

        v = verify_plan(
            self.SHAPE, self.BITS, scheduler=TwoRoundScheduler(volume_error=1)
        )
        assert [d.rule for d in v.report.errors] == ["SPMD006"]


class TestSchedulerProtocol:
    def test_scheduler_is_abstract(self):
        with pytest.raises(TypeError):
            Scheduler()  # type: ignore[abstract]

    def test_base_validate_options_rejects_unknown_reduction(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            ShuffleScheduler().validate_options(reduction="quantum")
