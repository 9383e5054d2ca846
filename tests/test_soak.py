"""Soak scenarios: long chains of operations across the whole stack."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse, zipf_sparse
from repro.arrays.measures import COUNT, SUM
from repro.arrays.persist import load_cube, load_sparse, save_cube, save_sparse
from repro.core.parallel import construct_cube_parallel
from repro.core.plan import plan_cube
from repro.core.sequential import cube_reference
from repro.olap import (
    DataCube,
    GroupByQuery,
    QueryEngine,
    Schema,
    apply_delta,
    greedy_select_views,
)
from repro.olap.workload import WorkloadSpec, generate_workload
from repro.serve import replay


class TestFiveDimensionalEndToEnd:
    """n=5: 32 lattice nodes, deeper recursion, mixed partition."""

    @pytest.fixture(scope="class")
    def setup(self):
        shape = (8, 7, 6, 5, 4)
        data = random_sparse(shape, 0.15, seed=314)
        return shape, data, cube_reference(data)

    def test_parallel_all_nodes(self, setup):
        shape, data, ref = setup
        res = construct_cube_parallel(data, (2, 1, 0, 1, 0))
        assert len(res.results) == 2 ** 5 - 1
        for node, arr in ref.items():
            assert np.allclose(res.results[node].data, arr.data), node

    def test_volume_and_memory_theory(self, setup):
        shape, data, _ref = setup
        from repro.core.comm_model import total_comm_volume
        from repro.core.memory_model import parallel_memory_bound_exact

        bits = (2, 1, 0, 1, 0)
        res = construct_cube_parallel(data, bits, collect_results=False)
        assert res.comm_volume_elements == total_comm_volume(shape, bits)
        assert max(
            res.metrics.rank_peak_memory_elements
        ) <= parallel_memory_bound_exact(shape, bits)


class TestWarehouseSoak:
    """Plan -> build -> select views -> serve -> refresh x3 -> persist -> reload."""

    def test_full_lifecycle(self, tmp_path):
        schema = Schema.simple(item=40, branch=8, week=12, channel=3)
        base = zipf_sparse(schema.shape, nnz=6000, seed=271)

        # View selection tuned to a generated workload.
        queries = generate_workload(
            schema, WorkloadSpec(num_queries=80, zipf_exponent=1.5), seed=272
        )
        from repro.olap.workload import workload_node_frequencies

        freqs = workload_node_frequencies(schema, queries)
        sel = greedy_select_views(schema.shape, budget_elements=1200, workload=freqs)
        views = sel.views or [()]

        cube = DataCube.build_partial(schema, base, views=views, num_processors=4)
        report0 = replay(cube, queries, mode="per-query")

        # Three nightly refreshes.
        expected_dense = base.to_dense().copy()
        for night in range(3):
            delta = zipf_sparse(schema.shape, nnz=400, seed=300 + night)
            apply_delta(cube, delta)
            expected_dense += delta.to_dense()

        # Every materialized view reflects all deltas.
        for node in cube.aggregates:
            drop = tuple(d for d in range(4) if d not in node)
            expected = expected_dense.sum(axis=drop) if drop else expected_dense
            assert np.allclose(cube.aggregates[node].data, expected), node

        # Queries still answer correctly after refreshes.
        eng = QueryEngine(cube)
        ans = eng.execute(GroupByQuery(group_by=("branch",)))
        assert np.allclose(ans.values, expected_dense.sum(axis=(0, 2, 3)))

        # Persist + reload; replay gives identical costs and answers.
        save_cube(tmp_path / "cube.npz", cube.aggregates, schema.shape)
        save_sparse(tmp_path / "facts.npz", cube.base)
        aggs, shape, measure = load_cube(tmp_path / "cube.npz")
        reloaded = DataCube(
            schema=schema,
            plan=cube.plan,
            aggregates=aggs,
            base=load_sparse(tmp_path / "facts.npz"),
            measure_name=measure,
        )
        report1 = replay(reloaded, queries, mode="per-query")
        assert (
            report1.cells_scanned
            == replay(cube, queries, mode="per-query").cells_scanned
        )
        ans2 = QueryEngine(reloaded).execute(GroupByQuery(group_by=("branch",)))
        assert np.allclose(ans2.values, ans.values)
        # The initial replay used the same engine logic (sanity anchor).
        assert report0.queries == report1.queries


class TestMeasureMatrixSoak:
    """Every constructor path x SUM/COUNT on one dataset, all consistent."""

    def test_matrix(self):
        shape = (10, 8, 6)
        data = random_sparse(shape, 0.25, seed=555)
        for measure in (SUM, COUNT):
            ref = cube_reference(data, measure=measure)
            plan = plan_cube(shape, num_processors=4)
            runs = {
                "sequential": plan.run_sequential(data, measure=measure).results,
                "parallel": plan.run_parallel(data, measure=measure).results,
            }
            from repro.baselines.level_sync import construct_cube_level_sync

            runs["level_sync"] = construct_cube_level_sync(
                data, (1, 1, 0), measure=measure
            ).results
            for name, results in runs.items():
                for node, arr in ref.items():
                    assert np.allclose(
                        results[node].data, arr.data
                    ), (measure.name, name, node)
