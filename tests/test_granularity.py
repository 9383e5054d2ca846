"""Unit tests for multi-granularity roll-up views."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.arrays.measures import MAX, MIN
from repro.arrays.sparse import SparseArray
from repro.olap import DataCube, Dimension, Hierarchy, Schema, apply_delta
from repro.olap.granularity import GranularityEngine


@pytest.fixture
def schema():
    month_of_week = tuple(w // 4 for w in range(12))  # 12 weeks -> 3 months
    region_of_branch = (0, 0, 1, 1, 1, 2)  # 6 branches -> 3 regions
    return Schema.of(
        Dimension("item", 10),
        Dimension(
            "week", 12,
            hierarchies=(Hierarchy("month", month_of_week, ("m1", "m2", "m3")),),
        ),
        Dimension(
            "branch", 6,
            labels=tuple(f"b{i}" for i in range(6)),
            hierarchies=(
                Hierarchy("region", region_of_branch, ("east", "mid", "west")),
            ),
        ),
    )


@pytest.fixture
def cube(schema):
    data = random_sparse(schema.shape, 0.4, seed=41)
    return DataCube.build(schema, data, num_processors=4)


class TestView:
    def test_base_grain_equals_group_by(self, cube):
        eng = GranularityEngine(cube)
        out = eng.view({"item": None, "branch": None})
        assert np.array_equal(out, cube.group_by("item", "branch").data)

    def test_single_rollup(self, cube):
        eng = GranularityEngine(cube)
        dense = cube.base.to_dense()
        out = eng.view({"week": "month"})
        weekly = dense.sum(axis=(0, 2))
        expected = np.array([weekly[0:4].sum(), weekly[4:8].sum(), weekly[8:12].sum()])
        assert np.allclose(out, expected)

    def test_double_rollup(self, cube):
        eng = GranularityEngine(cube)
        dense = cube.base.to_dense()
        out = eng.view({"week": "month", "branch": "region"})
        assert out.shape == (3, 3)
        wb = dense.sum(axis=0)  # week x branch
        expected = np.zeros((3, 3))
        for w in range(12):
            for b in range(6):
                expected[w // 4, (0, 0, 1, 1, 1, 2)[b]] += wb[w, b]
        assert np.allclose(out, expected)

    def test_mixed_grain(self, cube):
        eng = GranularityEngine(cube)
        dense = cube.base.to_dense()
        out = eng.view({"item": None, "week": "month"})
        assert out.shape == (10, 3)
        iw = dense.sum(axis=2)
        assert np.allclose(out[:, 0], iw[:, 0:4].sum(axis=1))

    def test_empty_grain_is_grand_total(self, cube):
        eng = GranularityEngine(cube)
        assert np.isclose(float(eng.view({})), cube.grand_total)

    def test_min_measure_rollup(self, schema):
        data = random_sparse(schema.shape, 0.4, seed=42)
        cube = DataCube.build(schema, data, measure=MIN)
        eng = GranularityEngine(cube)
        out = eng.view({"branch": "region"})
        per_branch = cube.group_by("branch").data
        assert np.allclose(out[0], min(per_branch[0], per_branch[1]))
        assert np.allclose(out[2], per_branch[5])

    def test_max_measure_rollup(self, schema):
        data = random_sparse(schema.shape, 0.4, seed=43)
        cube = DataCube.build(schema, data, measure=MAX)
        eng = GranularityEngine(cube)
        out = eng.view({"week": "month"})
        per_week = cube.group_by("week").data
        assert np.allclose(out[1], per_week[4:8].max())


class TestCacheAndNavigation:
    def test_cache_hits(self, cube):
        eng = GranularityEngine(cube)
        eng.view({"week": "month"})
        eng.view({"week": "month"})
        assert eng.derivations == 1

    def test_invalidate_after_delta(self, schema, cube):
        eng = GranularityEngine(cube)
        before = eng.view({"week": "month"}).copy()
        delta = random_sparse(schema.shape, 0.1, seed=44)
        apply_delta(cube, delta)
        eng.invalidate()
        after = eng.view({"week": "month"})
        assert not np.allclose(before, after)
        dense = cube.base.to_dense()
        weekly = dense.sum(axis=(0, 2))
        assert np.allclose(after[0], weekly[0:4].sum())

    def test_a_refresh_retires_cached_views(self, schema, cube):
        # No invalidate(): the view cached before the refresh is not served.
        eng = GranularityEngine(cube)
        before = eng.view({"week": "month"}).copy()
        delta = SparseArray.from_coords(schema.shape, np.array([[0, 0, 0]]), np.array([5.0]))
        apply_delta(cube, delta)
        after = eng.view({"week": "month"})
        assert after[0] == before[0] + 5.0
        assert np.array_equal(after[1:], before[1:])
        assert eng.derivations == 2

    def test_roll_up_and_drill_down(self, cube):
        eng = GranularityEngine(cube)
        grain = {"week": None, "branch": None}
        up = eng.roll_up(grain, "week", "month")
        assert up["week"] == "month" and up["branch"] is None
        down = eng.drill_down(up, "week")
        assert down == grain

    def test_roll_up_validates(self, cube):
        eng = GranularityEngine(cube)
        with pytest.raises(KeyError):
            eng.roll_up({"week": None}, "week", "fortnight")
        with pytest.raises(KeyError):
            eng.roll_up({"week": None}, "branch", "region")

    def test_labels(self, cube):
        eng = GranularityEngine(cube)
        labels = eng.labels({"week": "month", "branch": None})
        assert labels["week"] == ("m1", "m2", "m3")
        assert labels["branch"][0] == "b0"


class TestPartialCube:
    def test_rollup_from_cover(self, schema):
        # Only (week, branch) materialized; grain views still derive.
        data = random_sparse(schema.shape, 0.4, seed=45)
        cube = DataCube.build_partial(schema, data, views=[("week", "branch")])
        eng = GranularityEngine(cube)
        out = eng.view({"week": "month", "branch": "region"})
        assert out.shape == (3, 3)
        dense = data.to_dense()
        assert np.isclose(out.sum(), dense.sum())


ORACLE = {  # measure -> (reduce cells over axes, fold aggregates into a group)
    "sum": (np.sum, np.sum),
    "min": (np.min, np.min),
    "max": (np.max, np.max),
    "count": (lambda x, axis: np.ones_like(x).sum(axis=axis), np.sum),
}


def _oracle(x, measure, keep, rolled):
    """``measure`` of dense ``x`` over the ``keep`` axes, with each axis in
    ``rolled`` (axis -> hierarchy) folded into its groups."""
    reduce, fold = ORACLE[measure]
    drop = tuple(ax for ax in range(x.ndim) if ax not in keep)
    out = reduce(x, axis=drop)
    for ax, h in rolled.items():
        at = keep.index(ax)
        groups = [
            fold(np.take(out, [m for m, g in enumerate(h.mapping) if g == grp], axis=at), axis=at)
            for grp in range(h.num_groups)
        ]
        out = np.stack(groups, axis=at)
    return out


@pytest.mark.parametrize("scheduler", ["fig5", "marginals-1"])
@pytest.mark.parametrize("measure", ["sum", "min", "max", "count"])
class TestMeasureOracle:
    """Roll-ups fold with the cube's measure, on a full cube and on a cube
    that materialized only the 1-d group-bys (2-d grains come from the base)."""

    @pytest.fixture
    def setup(self, schema, measure, scheduler):
        x = np.random.default_rng(46).integers(1, 50, size=schema.shape).astype(float)
        cube = DataCube.build(schema, x, num_processors=4, measure=measure, scheduler=scheduler)
        return x, cube

    def test_grain_views(self, schema, setup, measure):
        x, cube = setup
        eng = GranularityEngine(cube)
        month = schema.dimension("week").hierarchy("month")
        region = schema.dimension("branch").hierarchy("region")
        cases = [
            ({"week": "month"}, (1,), {1: month}),
            ({"item": None, "week": "month"}, (0, 1), {1: month}),
            ({"week": "month", "branch": "region"}, (1, 2), {1: month, 2: region}),
            ({}, (), {}),
        ]
        for grain, keep, rolled in cases:
            assert np.array_equal(eng.view(grain), _oracle(x, measure, keep, rolled)), grain

    def test_cube_rollup(self, schema, setup, measure):
        x, cube = setup
        month = schema.dimension("week").hierarchy("month")
        got = cube.rollup("week", "month", "branch")
        assert np.array_equal(got, _oracle(x, measure, (1, 2), {1: month}))
        assert np.array_equal(cube.rollup("week", "month"), _oracle(x, measure, (1,), {1: month}))
