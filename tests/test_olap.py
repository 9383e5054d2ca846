"""Unit tests for the OLAP layer."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse, zipf_sparse
from repro.arrays.measures import MAX, SUM
from repro.olap import (
    DataCube,
    Dimension,
    GroupByQuery,
    Hierarchy,
    QueryEngine,
    Schema,
)
from repro.olap.granularity import fold_axis


@pytest.fixture
def schema():
    return Schema.of(
        Dimension("item", 6, labels=tuple(f"i{k}" for k in range(6))),
        Dimension(
            "time",
            4,
            labels=("q1", "q2", "q3", "q4"),
            hierarchies=(Hierarchy("half", (0, 0, 1, 1), ("h1", "h2")),),
        ),
        Dimension("branch", 3, labels=("east", "west", "north")),
    )


@pytest.fixture
def cube(schema):
    data = random_sparse(schema.shape, 0.5, seed=1)
    return DataCube.build(schema, data, num_processors=4)


class TestSchema:
    def test_shape_and_names(self, schema):
        assert schema.shape == (6, 4, 3)
        assert schema.names == ("item", "time", "branch")

    def test_index(self, schema):
        assert schema.index("branch") == 2
        with pytest.raises(KeyError):
            schema.index("nope")

    def test_node_of(self, schema):
        assert schema.node_of(["branch", "item"]) == (0, 2)

    def test_names_of(self, schema):
        assert schema.names_of((0, 2)) == ("item", "branch")

    def test_simple_constructor(self):
        s = Schema.simple(a=3, b=5)
        assert s.shape == (3, 5)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Schema.of(Dimension("x", 2), Dimension("x", 3))

    def test_dimension_label_roundtrip(self, schema):
        d = schema.dimension("time")
        assert d.index_of("q3") == 2
        assert d.label_of(2) == "q3"

    def test_unlabelled_dimension(self):
        d = Dimension("x", 3)
        assert d.label_of(1) == "x[1]"
        with pytest.raises(ValueError):
            d.index_of("anything")

    def test_rejects_bad_labels_length(self):
        with pytest.raises(ValueError):
            Dimension("x", 3, labels=("a",))

    def test_hierarchy_validation(self):
        with pytest.raises(ValueError):
            Hierarchy("h", (0, 2), ("only",))
        with pytest.raises(ValueError):
            Dimension("x", 3, hierarchies=(Hierarchy("h", (0,), ("g",)),))

    def test_hierarchy_lookup(self, schema):
        h = schema.dimension("time").hierarchy("half")
        assert h.num_groups == 2
        with pytest.raises(KeyError):
            schema.dimension("time").hierarchy("year")


class TestHierarchyRollup:
    def test_rollup_axis(self):
        h = Hierarchy("h", (0, 1, 0, 1), ("even", "odd"))
        data = np.arange(8.0).reshape(4, 2)
        out = fold_axis(data, 0, h, SUM)
        assert out.shape == (2, 2)
        assert np.allclose(out[0], data[0] + data[2])
        assert np.array_equal(fold_axis(data, 0, h, MAX)[0], data[2])

    def test_rollup_wrong_axis_length(self):
        h = Hierarchy("h", (0, 1), ("a", "b"))
        with pytest.raises(ValueError):
            fold_axis(np.zeros((3, 3)), 0, h, SUM)


class TestDataCube:
    def test_build_sequential_and_parallel_agree(self, schema):
        data = random_sparse(schema.shape, 0.5, seed=2)
        seq = DataCube.build(schema, data, num_processors=1)
        par = DataCube.build(schema, data, num_processors=8)
        for node in seq.aggregates:
            assert np.allclose(
                seq.aggregates[node].data, par.aggregates[node].data
            ), node

    def test_group_by_matches_dense(self, schema, cube):
        dense = cube.base.to_dense()
        got = cube.group_by("item", "branch")
        assert np.allclose(got.data, dense.sum(axis=1))

    def test_group_by_order_independent(self, cube):
        a = cube.group_by("item", "branch")
        b = cube.group_by("branch", "item")
        assert np.allclose(a.data, b.data)

    def test_group_by_all_dims_rejected(self, cube):
        with pytest.raises(KeyError):
            cube.group_by("item", "time", "branch")

    def test_grand_total(self, cube):
        assert np.isclose(cube.grand_total, cube.base.to_dense().sum())

    def test_value_by_label(self, cube):
        dense = cube.base.to_dense()
        v = cube.value(item="i2", branch="west")
        assert np.isclose(v, dense[2, :, 1].sum())

    def test_slice_sum(self, cube):
        dense = cube.base.to_dense()
        out = cube.slice_sum({"branch": 0}, by=["time"])
        assert np.allclose(out, dense[:, :, 0].sum(axis=0))

    def test_rollup(self, cube):
        dense = cube.base.to_dense()
        out = cube.rollup("time", "half", "branch")
        assert out.shape == (2, 3)
        expected_h1 = dense[:, 0:2, :].sum(axis=(0, 1))
        assert np.allclose(out[0], expected_h1)

    def test_top_k(self, schema):
        data = zipf_sparse(schema.shape, nnz=400, seed=3)
        cube = DataCube.build(schema, data)
        top = cube.top_k("item", 3)
        assert len(top) == 3
        values = [v for _, v in top]
        assert values == sorted(values, reverse=True)

    def test_rejects_shape_mismatch(self, schema):
        with pytest.raises(ValueError):
            DataCube.build(schema, random_sparse((2, 2, 2), 0.5, seed=4))

    def test_describe(self, cube):
        assert "DataCube" in cube.describe()

    def test_memory_footprint(self, cube):
        assert cube.memory_footprint_elements == cube.memory_footprint_elements

    @pytest.mark.parametrize("measure", [SUM, MAX], ids=["sum", "max"])
    def test_partial_cube_reads_match_the_full_cube(self, measure):
        schema = Schema.simple(a=4, b=3, c=2)
        data = np.arange(24.0).reshape(4, 3, 2)
        full = DataCube.build(schema, data, num_processors=4, measure=measure)
        part = DataCube.build(
            schema, data, num_processors=4, scheduler="marginals-1", measure=measure
        )
        assert sorted(part.aggregates) == [(0,), (1,), (2,)]
        assert part.grand_total == full.grand_total
        for names in (("a", "b"), ("b", "c"), ("a",), ()):
            np.testing.assert_array_equal(
                part.group_by(*names).data, full.group_by(*names).data
            )
        np.testing.assert_array_equal(
            part.slice_sum({"a": 1}, by=["b"]), full.slice_sum({"a": 1}, by=["b"])
        )
        assert part.value(a=1, b=2) == full.value(a=1, b=2)
        # A materialized view is handed out as itself.
        assert part.group_by("a") is part.aggregates[(0,)]


class TestQueryEngine:
    def test_point_filter(self, cube):
        dense = cube.base.to_dense()
        eng = QueryEngine(cube)
        ans = eng.execute(GroupByQuery(group_by=("time",), where={"item": 1}))
        assert np.allclose(ans.values, dense[1].sum(axis=1))
        assert ans.served_by == ("item", "time")

    def test_label_filter(self, cube):
        dense = cube.base.to_dense()
        eng = QueryEngine(cube)
        ans = eng.execute(GroupByQuery(where={"branch": "north"}))
        assert np.isclose(ans.values, dense[:, :, 2].sum())

    def test_range_filter_summed(self, cube):
        dense = cube.base.to_dense()
        eng = QueryEngine(cube)
        ans = eng.execute(GroupByQuery(group_by=("item",), where={"time": (1, 3)}))
        assert np.allclose(ans.values, dense[:, 1:3, :].sum(axis=(1, 2)))

    def test_range_filter_grouped(self, cube):
        dense = cube.base.to_dense()
        eng = QueryEngine(cube)
        ans = eng.execute(
            GroupByQuery(group_by=("time",), where={"time": (0, 2), "branch": 1})
        )
        assert np.allclose(ans.values, dense[:, 0:2, 1].sum(axis=0))

    def test_empty_query_returns_grand_total(self, cube):
        eng = QueryEngine(cube)
        ans = eng.execute(GroupByQuery())
        assert np.isclose(ans.values, cube.grand_total)

    def test_rejects_all_dims(self, cube):
        eng = QueryEngine(cube)
        with pytest.raises(ValueError):
            eng.execute(GroupByQuery(group_by=("item", "time", "branch")))

    def test_rejects_out_of_range(self, cube):
        eng = QueryEngine(cube)
        with pytest.raises(ValueError):
            eng.execute(GroupByQuery(where={"item": 99}))
        with pytest.raises(ValueError):
            eng.execute(GroupByQuery(where={"time": (2, 9)}))

    def test_accounting(self, cube):
        eng = QueryEngine(cube)
        eng.execute(GroupByQuery(group_by=("item",)))
        eng.execute(GroupByQuery(group_by=("time",)))
        assert eng.queries_answered == 2
        assert eng.total_cells_scanned == 6 + 4

    def test_answer_many(self, cube):
        eng = QueryEngine(cube)
        out = eng.execute_many(
            [GroupByQuery(group_by=("item",)), GroupByQuery(group_by=("branch",))]
        )
        assert len(out) == 2
