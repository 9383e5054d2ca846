"""Unit tests for incremental cube maintenance."""

import numpy as np
import pytest

import repro.core.parallel
from repro.arrays import aggregate
from repro.arrays.dataset import random_sparse
from repro.arrays.measures import COUNT, MAX, MIN, SUM
from repro.arrays.sparse import BlockChunk, SparseArray, SparseChunk
from repro.core.plan import CubePlan
from repro.core.sequential import cube_reference
from repro.olap import DataCube, Schema, apply_delta, merge_sparse, refresh_full


@pytest.fixture
def schema():
    return Schema.simple(item=10, branch=6, time=4)


def make_delta(schema, seed):
    return random_sparse(schema.shape, 0.1, seed=seed)


class TestMergeSparse:
    def test_union(self):
        a = SparseArray.from_coords((4, 4), np.array([[0, 0]]), np.array([1.0]))
        b = SparseArray.from_coords((4, 4), np.array([[1, 1]]), np.array([2.0]))
        m = merge_sparse(a, b)
        assert m.nnz == 2
        assert m.to_dense()[0, 0] == 1.0 and m.to_dense()[1, 1] == 2.0

    def test_coinciding_cells_summed(self):
        a = SparseArray.from_coords((4, 4), np.array([[2, 2]]), np.array([1.5]))
        b = SparseArray.from_coords((4, 4), np.array([[2, 2]]), np.array([2.5]))
        assert merge_sparse(a, b).to_dense()[2, 2] == 4.0

    def test_shape_mismatch(self):
        a = SparseArray.from_dense(np.ones((2, 2)))
        b = SparseArray.from_dense(np.ones((3, 3)))
        with pytest.raises(ValueError):
            merge_sparse(a, b)

    def test_refresh_keeps_the_base_grid_and_shares_untouched_chunks(self):
        schema = Schema.simple(x=8, y=8, z=8)
        base = random_sparse(schema.shape, 0.3, seed=1, chunk_shape=(4, 4, 4))
        coords = np.array([[0, 0, 0], [1, 2, 3], [5, 6, 7]])
        delta = SparseArray.from_coords(schema.shape, coords, np.array([1.0, 2.0, 3.0]))
        cube = DataCube.build(schema, base)
        apply_delta(cube, delta, update_base=True)
        merged = cube.base
        assert len(base.chunks) == 8
        assert [(c.origin, c.shape) for c in merged.chunks] == [
            (c.origin, c.shape) for c in base.chunks
        ]
        touched = {(0, 0, 0), (4, 4, 4)}
        for old, new in zip(base.chunks, merged.chunks):
            assert (new is old) == (old.origin not in touched), old.origin
            assert (np.diff(new.offsets) > 0).all()
        np.testing.assert_array_equal(
            merged.to_dense(), base.to_dense() + delta.to_dense()
        )

    def test_unsorted_rank_block_base(self, monkeypatch):
        monkeypatch.setattr(aggregate, "_SLAB", 7)  # a streamed block, merged materialised
        source = random_sparse((8, 8), 0.4, seed=3, chunk_shape=(4, 4))
        block = source.extract_block((slice(2, 8), slice(0, 8)))
        assert isinstance(block.chunks[0], BlockChunk)
        assert not (np.diff(block.chunks[0].offsets) > 0).all()
        delta = random_sparse((6, 8), 0.3, seed=4)
        merged = merge_sparse(block, delta)
        assert len(merged.chunks) == 1
        assert (np.diff(merged.chunks[0].offsets) > 0).all()
        np.testing.assert_array_equal(
            merged.to_dense(), block.to_dense() + delta.to_dense()
        )

    def test_chunks_off_a_balanced_grid_are_reingested(self):
        values = np.array([1.0, 2.0])
        base = SparseArray((8,), [
            SparseChunk((0,), (2,), np.array([1]), values[:1]),
            SparseChunk((2,), (6,), np.array([0]), values[1:]),
        ])
        delta = SparseArray.from_coords((8,), np.array([[7]]), np.array([3.0]))
        merged = merge_sparse(base, delta)
        assert [(c.origin, c.shape) for c in merged.chunks] == [((0,), (8,))]
        np.testing.assert_array_equal(merged.to_dense(), [0, 1, 2, 0, 0, 0, 0, 3])

    def test_explicit_chunk_shape_reingests(self):
        a = random_sparse((8, 8), 0.3, seed=5)
        b = random_sparse((8, 8), 0.3, seed=6)
        merged = merge_sparse(a, b, chunk_shape=(4, 4))
        assert len(merged.chunks) == 4
        np.testing.assert_array_equal(merged.to_dense(), a.to_dense() + b.to_dense())


def _disjoint_integer_facts(shape, seed):
    """Integer-valued base and delta facts on disjoint cells, so that
    MIN / MAX / COUNT of the merged facts equal the fold (a coinciding cell
    would merge into one summed fact)."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(-6, 6, size=shape).astype(float)
    owner = rng.integers(0, 3, size=shape)
    base = SparseArray.from_dense(np.where(owner == 1, cells, 0.0), chunk_shape=(3, 3, 2))
    delta = SparseArray.from_dense(np.where(owner == 2, cells, 0.0), chunk_shape=(3, 3, 2))
    return base, delta


BUILDS = {
    "sequential": lambda schema, base, m: DataCube.build(schema, base, measure=m),
    "partial": lambda schema, base, m: DataCube.build_partial(
        schema, base, views=[("item", "branch"), ("time",), ()],
        num_processors=4, measure=m,
    ),
    **{
        f"{backend}-{scheduler}": (
            lambda schema, base, m, backend=backend, scheduler=scheduler: DataCube.build(
                schema, base, num_processors=4, measure=m,
                backend=backend, scheduler=scheduler,
            )
        )
        for backend in ("sim", "thread", "process")
        for scheduler in ("fig5", "marginals-1")
    },
}


class TestFold:
    @pytest.mark.parametrize("build", sorted(BUILDS))
    @pytest.mark.parametrize("measure", [SUM, COUNT, MIN, MAX], ids=lambda m: m.name)
    def test_equals_reference_of_merged_facts(self, build, measure):
        schema = Schema.simple(item=6, branch=5, time=4)
        base, delta = _disjoint_integer_facts(schema.shape, seed=len(build))
        cube = BUILDS[build](schema, base, measure)
        views = set(cube.aggregates)
        apply_delta(cube, delta)
        assert set(cube.aggregates) == views
        reference = cube_reference(merge_sparse(base, delta), measure, targets=views)
        for node, arr in cube.aggregates.items():
            np.testing.assert_array_equal(arr.data, reference[node].data, err_msg=str(node))

    def test_strided_view_is_updated_in_place(self, schema):
        base = make_delta(schema, 30)
        delta = make_delta(schema, 31)
        cube = DataCube.build(schema, base)
        node = (0, 2)
        buffer = np.zeros((schema.shape[0], 2 * schema.shape[2]))
        strided = buffer[:, ::2]
        strided[...] = cube.aggregates[node].data
        assert not strided.flags.c_contiguous
        cube.aggregates[node].data = strided
        apply_delta(cube, delta)
        assert cube.aggregates[node].data is strided
        expected = (base.to_dense() + delta.to_dense()).sum(axis=1)
        np.testing.assert_allclose(buffer[:, ::2], expected)
        assert not buffer[:, 1::2].any()

    def test_float_sum_is_old_value_then_delta_facts_in_order(self, schema):
        base = make_delta(schema, 32)
        delta = make_delta(schema, 33)
        cube = DataCube.build(schema, base, num_processors=4, backend="thread")
        before = {node: arr.data.copy() for node, arr in cube.aggregates.items()}
        apply_delta(cube, delta)
        coords, values = delta.all_coords_values()
        first = np.zeros(len(values), dtype=np.intp)  # index of the added axis
        for node, old in before.items():
            np.add.at(old[None], (first, *coords[:, list(node)].T), values)
            assert cube.aggregates[node].data.tobytes() == old.tobytes(), node

    def test_builds_no_delta_cube(self, schema, monkeypatch):
        cube = DataCube.build(schema, make_delta(schema, 34), num_processors=4)

        def refuse(*args, **kwargs):
            raise AssertionError("apply_delta ran a cube construction")

        monkeypatch.setattr(repro.core.parallel, "construct_cube_parallel", refuse)
        for name in ("run_parallel", "run_sequential"):
            monkeypatch.setattr(CubePlan, name, refuse)
        stats = apply_delta(cube, make_delta(schema, 35))
        assert stats.nodes_updated == len(cube.aggregates)


class TestApplyDeltaIsAllOrNothing:
    def _snapshot(self, cube):
        views = {node: arr.data.copy() for node, arr in cube.aggregates.items()}
        return views, cube.base, cube.refreshes

    def _assert_unchanged(self, cube, snapshot):
        views, base, refreshes = snapshot
        for node, arr in cube.aggregates.items():
            assert arr.data.tobytes() == views[node].tobytes(), node
        assert cube.base is base
        assert cube.refreshes == refreshes

    def test_failed_base_merge_folds_nothing(self, schema, monkeypatch):
        cube = DataCube.build(schema, make_delta(schema, 40), num_processors=4)
        delta = make_delta(schema, 41)
        snapshot = self._snapshot(cube)

        def fail(*args, **kwargs):
            raise MemoryError("merge failed")

        monkeypatch.setattr("repro.olap.maintenance.merge_sparse", fail)
        with pytest.raises(MemoryError, match="merge failed"):
            apply_delta(cube, delta)
        self._assert_unchanged(cube, snapshot)
        # A retry after the failure folds the delta exactly once.
        monkeypatch.undo()
        apply_delta(cube, delta)
        rebuilt = DataCube.build(schema, merge_sparse(snapshot[1], delta), num_processors=4)
        for node, arr in rebuilt.aggregates.items():
            np.testing.assert_allclose(cube.aggregates[node].data, arr.data, err_msg=str(node))

    @pytest.mark.parametrize("spoil", ["read-only", "wrong shape"])
    def test_unfoldable_last_view_folds_nothing(self, schema, spoil):
        cube = DataCube.build(schema, make_delta(schema, 42))
        last = list(cube.aggregates)[-1]
        if spoil == "read-only":
            cube.aggregates[last].data.flags.writeable = False
        else:
            cube.aggregates[last].data = np.zeros(cube.aggregates[last].data.shape[:-1])
        snapshot = self._snapshot(cube)
        with pytest.raises(ValueError, match="read-only or not of its cuboid's shape"):
            apply_delta(cube, make_delta(schema, 43))
        self._assert_unchanged(cube, snapshot)


class TestApplyDelta:
    @pytest.mark.parametrize("procs", [1, 4])
    def test_equals_rebuild_for_sum(self, schema, procs):
        base = make_delta(schema, 1)
        delta = make_delta(schema, 2)
        cube = DataCube.build(schema, base, num_processors=procs)
        stats = apply_delta(cube, delta)
        rebuilt = DataCube.build(
            schema, merge_sparse(base, delta), num_processors=procs
        )
        assert stats.facts_absorbed == delta.nnz
        for node in rebuilt.aggregates:
            assert np.allclose(
                cube.aggregates[node].data, rebuilt.aggregates[node].data
            ), node

    def test_min_inserts(self, schema):
        base = make_delta(schema, 3)
        delta = make_delta(schema, 4)
        cube = DataCube.build(schema, base, measure=MIN)
        apply_delta(cube, delta)
        rebuilt = DataCube.build(schema, merge_sparse(base, delta), measure=MIN)
        for node in rebuilt.aggregates:
            a = cube.aggregates[node].data
            b = rebuilt.aggregates[node].data
            # Cells where base and delta overlap may differ (merge sums
            # coinciding values) -- restrict to non-overlapping facts.
            overlap = (base.to_dense() != 0) & (delta.to_dense() != 0)
            if not overlap.any():
                assert np.array_equal(a, b), node

    def test_count_inserts(self, schema):
        base = make_delta(schema, 5)
        delta = make_delta(schema, 6)
        cube = DataCube.build(schema, base, measure=COUNT)
        before = cube.grand_total
        apply_delta(cube, delta, update_base=False)
        assert cube.grand_total == before + delta.nnz

    def test_partial_cube_updates_only_views(self, schema):
        base = make_delta(schema, 7)
        delta = make_delta(schema, 8)
        cube = DataCube.build_partial(schema, base, views=[("item",), ()])
        stats = apply_delta(cube, delta, update_base=False)
        assert stats.nodes_updated == 2
        dense = base.to_dense() + delta.to_dense()
        assert np.allclose(cube.group_by("item").data, dense.sum(axis=(1, 2)))

    def test_base_updated(self, schema):
        base = make_delta(schema, 9)
        delta = make_delta(schema, 10)
        cube = DataCube.build(schema, base)
        apply_delta(cube, delta)
        assert np.allclose(
            cube.base.to_dense(), base.to_dense() + delta.to_dense()
        )

    def test_queries_see_new_facts(self, schema):
        from repro.olap import GroupByQuery, QueryEngine

        base = make_delta(schema, 11)
        delta = make_delta(schema, 12)
        cube = DataCube.build(schema, base, num_processors=2)
        apply_delta(cube, delta)
        eng = QueryEngine(cube)
        ans = eng.execute(GroupByQuery(group_by=("branch",)))
        expected = (base.to_dense() + delta.to_dense()).sum(axis=(0, 2))
        assert np.allclose(ans.values, expected)

    def test_rejects_empty_delta(self, schema):
        cube = DataCube.build(schema, make_delta(schema, 13))
        empty = SparseArray.from_dense(np.zeros(schema.shape))
        with pytest.raises(ValueError):
            apply_delta(cube, empty)

    def test_dense_base_update_is_refused_before_any_view_changes(self, schema):
        cube = DataCube.build(schema, make_delta(schema, 22).to_dense())
        before = {node: arr.data.copy() for node, arr in cube.aggregates.items()}
        with pytest.raises(ValueError, match="sparse base"):
            apply_delta(cube, make_delta(schema, 23))
        for node, arr in cube.aggregates.items():
            np.testing.assert_array_equal(arr.data, before[node])
        apply_delta(cube, make_delta(schema, 23), update_base=False)

    def test_rejects_shape_mismatch(self, schema):
        cube = DataCube.build(schema, make_delta(schema, 14))
        with pytest.raises(ValueError):
            apply_delta(cube, random_sparse((2, 2, 2), 0.5, seed=1))

    def test_repeated_deltas_accumulate(self, schema):
        base = make_delta(schema, 15)
        cube = DataCube.build(schema, base)
        total = base.to_dense().copy()
        for seed in (16, 17, 18):
            delta = make_delta(schema, seed)
            apply_delta(cube, delta)
            total += delta.to_dense()
        assert np.isclose(cube.grand_total, total.sum())


class TestRefreshFull:
    def test_full_rebuild_matches(self, schema):
        base = make_delta(schema, 19)
        cube = DataCube.build(schema, base, num_processors=2)
        fresh = refresh_full(cube)
        for node in cube.aggregates:
            assert np.allclose(
                fresh.aggregates[node].data, cube.aggregates[node].data
            )

    def test_partial_rebuild_keeps_views(self, schema):
        base = make_delta(schema, 20)
        cube = DataCube.build_partial(schema, base, views=[("item", "branch")])
        fresh = refresh_full(cube)
        assert set(fresh.aggregates) == set(cube.aggregates)

    def test_requires_base(self, schema):
        cube = DataCube.build(schema, make_delta(schema, 21), keep_base=False)
        with pytest.raises(ValueError):
            refresh_full(cube)
