"""Unit tests for workload generation and replay."""

import pytest

from repro.arrays.dataset import random_sparse
from repro.olap import DataCube, Schema, canonicalize_query, greedy_select_views
from repro.olap.workload import (
    WorkloadSpec,
    generate_workload,
    workload_node_frequencies,
)
from repro.serve import ServiceStats, replay


@pytest.fixture
def schema():
    return Schema.simple(item=12, branch=6, time=8)


class TestSpec:
    def test_defaults_valid(self):
        WorkloadSpec()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_queries=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(filter_probability=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(range_fraction=-0.1)
        with pytest.raises(ValueError):
            WorkloadSpec(zipf_exponent=1.0)


class TestGenerate:
    def test_count_and_determinism(self, schema):
        a = generate_workload(schema, WorkloadSpec(num_queries=50), seed=3)
        b = generate_workload(schema, WorkloadSpec(num_queries=50), seed=3)
        assert len(a) == 50
        assert a == b

    def test_different_seeds_differ(self, schema):
        a = generate_workload(schema, seed=1)
        b = generate_workload(schema, seed=2)
        assert a != b

    def test_queries_well_formed(self, schema):
        for q in generate_workload(schema, WorkloadSpec(num_queries=80), seed=4):
            # group-bys never cover every dimension (filters may).
            assert len(q.group_by) < len(schema.dimensions)
            for name in q.group_by:
                schema.index(name)
            for name, flt in q.where.items():
                dim = schema.dimension(name)
                if isinstance(flt, tuple):
                    lo, hi = flt
                    assert 0 <= lo < hi <= dim.size
                else:
                    assert 0 <= flt < dim.size

    def test_skew_prefers_small_group_bys(self, schema):
        queries = generate_workload(
            schema, WorkloadSpec(num_queries=300, zipf_exponent=1.5), seed=5
        )
        sizes = [len(q.group_by) for q in queries]
        assert sizes.count(0) + sizes.count(1) > len(sizes) // 2

    def test_zero_queries(self, schema):
        assert generate_workload(schema, WorkloadSpec(num_queries=0)) == []


class TestFrequencies:
    def test_normalized(self, schema):
        queries = generate_workload(schema, WorkloadSpec(num_queries=60), seed=6)
        freqs = workload_node_frequencies(schema, queries)
        assert abs(sum(freqs.values()) - 1.0) < 1e-12
        for node in freqs:
            assert len(node) < len(schema.dimensions)

    def test_empty_workload(self, schema):
        assert workload_node_frequencies(schema, []) == {}


class TestReplay:
    def test_full_cube_no_fallbacks(self, schema):
        data = random_sparse(schema.shape, 0.3, seed=7)
        cube = DataCube.build(schema, data)
        queries = generate_workload(schema, WorkloadSpec(num_queries=40), seed=8)
        report = replay(cube, queries, mode="per-query")
        assert isinstance(report, ServiceStats)
        assert report.queries == 40
        # Only queries whose filters mention every dimension hit the base --
        # after canonicalization, which drops no-op full-range filters.
        n = len(schema.dimensions)
        fully_mentioned = sum(
            1
            for q in queries
            if len(canonicalize_query(schema, q).mentioned) == n
        )
        assert report.base_fallbacks == fully_mentioned
        assert report.cells_scanned > 0

    def test_partial_cube_costs_more(self, schema):
        data = random_sparse(schema.shape, 0.3, seed=9)
        queries = generate_workload(schema, WorkloadSpec(num_queries=60), seed=10)
        full = DataCube.build(schema, data)
        tiny = DataCube.build_partial(schema, data, views=[()])
        full_report = replay(full, queries, mode="per-query")
        tiny_report = replay(tiny, queries, mode="per-query")
        assert tiny_report.cells_scanned >= full_report.cells_scanned

    def test_workload_tuned_selection_beats_uniform(self, schema):
        # Select views against the workload's own frequencies; replay cost
        # should not exceed the uniform-prior selection's.
        data = random_sparse(schema.shape, 0.3, seed=11)
        queries = generate_workload(
            schema, WorkloadSpec(num_queries=120, zipf_exponent=1.6), seed=12
        )
        freqs = workload_node_frequencies(schema, queries)
        budget = 12 * 6 + 12  # room for a couple of small views
        tuned_sel = greedy_select_views(schema.shape, budget, workload=freqs)
        uniform_sel = greedy_select_views(schema.shape, budget)
        tuned = DataCube.build_partial(schema, data, views=tuned_sel.views or [()])
        uniform = DataCube.build_partial(
            schema, data, views=uniform_sel.views or [()]
        )
        tuned_cost = replay(tuned, queries, mode="per-query").cells_scanned
        uniform_cost = replay(uniform, queries, mode="per-query").cells_scanned
        assert tuned_cost <= uniform_cost
