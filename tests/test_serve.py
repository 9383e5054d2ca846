"""Tests for the serving subsystem: canonicalization, caching, batching."""

import gc
import itertools
from collections import OrderedDict

import numpy as np
import pytest

from repro.arrays import aggregate
from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_to_dense
from repro.arrays.dataset import random_sparse
from repro.arrays.measures import get_measure
from repro.arrays.sparse import SparseArray
from repro.core.lattice import node_size
from repro.olap import (
    CanonicalQuery,
    DataCube,
    Dimension,
    GroupByQuery,
    QueryEngine,
    Schema,
    canonicalize_query,
)
from repro.olap.maintenance import apply_delta
from repro.olap.query import BASE, resolve_filter
from repro.olap.workload import WorkloadSpec, generate_workload
from repro.serve import (
    CubeService,
    ResultCache,
    ServiceStats,
    replay,
    run_batch,
)


@pytest.fixture
def schema():
    return Schema.of(
        Dimension("item", 4, labels=("ink", "pen", "pad", "gum")),
        Dimension("branch", 3),
        Dimension("year", 3, labels=(2001, 2002, 2003)),
    )


@pytest.fixture
def cube(schema):
    rng = np.random.default_rng(3)
    return DataCube.build(schema, rng.random(schema.shape))


class TestResolveFilter:
    def test_string_label(self, schema):
        assert resolve_filter(schema.dimension("item"), "pad") == 2

    def test_unknown_label_raises(self, schema):
        with pytest.raises(KeyError):
            resolve_filter(schema.dimension("item"), "rug")

    def test_int_is_index_on_string_labeled(self, schema):
        assert resolve_filter(schema.dimension("item"), 1) == 1

    def test_int_is_label_on_integer_labeled(self, schema):
        # 2002 is a member label, not (an out-of-range) index.
        assert resolve_filter(schema.dimension("year"), 2002) == 1

    def test_integer_labeled_rejects_bare_positions(self, schema):
        # 0 is not a member of {2001, 2002, 2003}: refuse to guess.
        with pytest.raises(KeyError, match="use a .lo, hi. range"):
            resolve_filter(schema.dimension("year"), 0)

    def test_width_one_range_is_positional_escape_hatch(self, schema):
        assert resolve_filter(schema.dimension("year"), (0, 1)) == (0, 1)

    def test_range_bounds_checked(self, schema):
        with pytest.raises(ValueError):
            resolve_filter(schema.dimension("branch"), (1, 9))
        with pytest.raises(ValueError):
            resolve_filter(schema.dimension("branch"), (2, 1))

    def test_malformed_values_raise(self, schema):
        with pytest.raises(ValueError):
            resolve_filter(schema.dimension("branch"), (1, 2, 3))
        with pytest.raises(TypeError):
            resolve_filter(schema.dimension("branch"), 1.5)
        with pytest.raises(TypeError):
            resolve_filter(schema.dimension("branch"), True)

    @pytest.mark.parametrize(
        "bounds", [(0.5, 2.7), (0, 2.0), (1.0, 2), (True, 2), (0, False), ("0", 2)]
    )
    def test_range_bounds_must_be_indices(self, schema, bounds):
        # Bounds were once passed through int(): (0.5, 2.7) answered (0, 2).
        msg = f"range filter on 'branch' must be (lo, hi) member indices, got {bounds!r}"
        with pytest.raises(TypeError) as err:
            resolve_filter(schema.dimension("branch"), bounds)
        assert str(err.value) == msg

    def test_numpy_integer_range_bounds_accepted(self, schema):
        assert resolve_filter(schema.dimension("branch"), (np.int64(0), np.int32(2))) == (0, 2)


class TestCanonicalization:
    def test_labels_resolve_to_same_canonical_query(self, schema):
        a = canonicalize_query(schema, GroupByQuery((), {"item": "pen"}))
        b = canonicalize_query(schema, GroupByQuery((), {"item": 1}))
        assert a == b == CanonicalQuery(point_filters=((0, 1),))

    def test_full_range_filter_dropped(self, schema):
        q = GroupByQuery(("item",), {"branch": (0, 3)})
        assert canonicalize_query(schema, q) == CanonicalQuery(group_by=(0,))

    def test_width_one_range_becomes_point(self, schema):
        q = GroupByQuery(("item",), {"branch": (1, 2)})
        cq = canonicalize_query(schema, q)
        assert cq.point_filters == ((1, 1),)
        assert cq.range_filters == ()

    def test_width_one_range_on_grouped_dim_stays_range(self, schema):
        q = GroupByQuery(("branch",), {"branch": (1, 2)})
        cq = canonicalize_query(schema, q)
        assert cq.range_filters == ((1, 1, 2),)
        assert cq.group_by == (1,)

    def test_point_filter_collapses_grouped_dim(self, schema):
        q = GroupByQuery(("item", "branch"), {"branch": 2})
        cq = canonicalize_query(schema, q)
        assert cq.group_by == (0,)
        assert cq.point_filters == ((1, 2),)

    def test_full_group_by_rejected(self, schema):
        with pytest.raises(ValueError, match="base array"):
            canonicalize_query(
                schema, GroupByQuery(("item", "branch", "year"))
            )

    def test_unknown_dimension_raises(self, schema):
        with pytest.raises(KeyError):
            canonicalize_query(schema, GroupByQuery(("color",)))

    def test_mentioned_sorted_and_deduped(self, schema):
        q = GroupByQuery(("year", "item"), {"branch": (0, 2)})
        assert canonicalize_query(schema, q).mentioned == (0, 1, 2)


class TestResultCache:
    def key(self, i):
        return CanonicalQuery(point_filters=((0, i),))

    def result(self, i):
        from repro.olap.query import QueryResult

        return QueryResult(float(i), ("item",), 1)

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(self.key(0), self.result(0))
        cache.put(self.key(1), self.result(1))
        assert cache.get(self.key(0)) is not None  # 0 now most recent
        cache.put(self.key(2), self.result(2))  # evicts 1
        assert cache.get(self.key(1)) is None
        assert cache.get(self.key(0)) is not None
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(self.key(0), self.result(0))
        assert len(cache) == 0
        assert cache.get(self.key(0)) is None
        assert cache.stats.misses == 1

    def test_invalidate_counts_and_clears(self):
        cache = ResultCache(capacity=4)
        cache.put(self.key(0), self.result(0))
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.invalidate() == 0  # empty: not counted again
        assert cache.stats.invalidations == 1

    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        cache.put(self.key(0), self.result(0))
        cache.get(self.key(0))
        cache.get(self.key(1))
        assert cache.stats.hit_rate == 0.5

    def test_invalidate_racing_a_get_or_put_is_a_miss_or_a_no_op(self):
        # An invalidate() on another thread can empty the entries between a
        # get's lookup and its move_to_end, or in the middle of a put.  The
        # dict below stands in for that thread: it clears itself there.
        class ClearedOnMove(OrderedDict):
            def move_to_end(self, key, last=True):
                self.clear()
                super().move_to_end(key, last)

        cache = ResultCache(capacity=4)
        cache.put(self.key(0), self.result(0))
        cache._entries = ClearedOnMove(cache._entries)
        assert cache.get(self.key(0)) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.put(self.key(1), self.result(1))
        assert len(cache) == 0

    def test_invalidate_racing_an_eviction_is_a_no_op(self):
        class ClearedOnEvict(OrderedDict):
            def popitem(self, last=True):
                self.clear()
                return super().popitem(last)

        cache = ResultCache(capacity=1)
        cache.put(self.key(0), self.result(0))
        cache._entries = ClearedOnEvict(cache._entries)
        cache.put(self.key(1), self.result(1))
        assert len(cache) == 0
        assert cache.stats.evictions == 0


class TestBitIdenticalPaths:
    """The acceptance bar: batched/cached results == per-query, bitwise."""

    @pytest.fixture
    def big(self):
        schema = Schema.simple(d0=6, d1=5, d2=5, d3=4, d4=3)
        rng = np.random.default_rng(11)
        cube = DataCube.build(schema, rng.random(schema.shape))
        queries = generate_workload(
            schema,
            WorkloadSpec(
                num_queries=400, zipf_exponent=1.5, filter_probability=0.5
            ),
            seed=13,
        )
        return cube, queries

    def assert_same(self, ref, got):
        assert len(ref) == len(got)
        for r, g in zip(ref, got):
            rv, gv = np.asarray(r.values), np.asarray(g.values)
            assert rv.shape == gv.shape
            assert np.array_equal(rv, gv)  # bitwise: no tolerance
            assert r.served_by == g.served_by
            assert r.cells_scanned == g.cells_scanned
            assert r.is_fallback == g.is_fallback

    def test_batched_matches_per_query(self, big):
        cube, queries = big
        ref = QueryEngine(cube).execute_many(queries)
        service = CubeService(cube, result_cache_size=0)
        self.assert_same(ref, service.execute_batch(queries))

    def test_cached_matches_per_query(self, big):
        cube, queries = big
        ref = QueryEngine(cube).execute_many(queries)
        service = CubeService(cube, result_cache_size=4096)
        got = [service.execute(q) for q in queries]
        self.assert_same(ref, got)
        # And warm repeats still match.
        self.assert_same(ref, [service.execute(q) for q in queries])

    def test_batched_matches_on_partial_cube_with_fallbacks(self):
        schema = Schema.simple(a=5, b=4, c=3)
        data = random_sparse(schema.shape, 0.4, seed=5)
        cube = DataCube.build_partial(schema, data, views=[("a", "b")])
        queries = generate_workload(
            schema,
            WorkloadSpec(num_queries=120, filter_probability=0.6),
            seed=6,
        )
        ref = QueryEngine(cube).execute_many(queries)
        service = CubeService(cube, result_cache_size=0)
        got = service.execute_batch(queries)
        self.assert_same(ref, got)
        assert any(r.is_fallback for r in ref)  # fallbacks exercised


def reference_answer(cube, cq):
    """The 10.0.0 arithmetic every path must reproduce bit for bit.

    The smallest cover (or the whole base, aggregated with the cube's
    measure) is reduced to the mentioned dimensions, basic-indexed, and
    rolled up one axis at a time, highest axis first.
    """
    schema = cube.schema
    measure = get_measure(cube.measure_name)
    rollup = measure.rollup
    mentioned = cq.mentioned
    n = len(schema.dimensions)
    covers = [v for v in cube.aggregates if set(mentioned) <= set(v)]
    if len(mentioned) < n and covers:
        cover = min(covers, key=lambda v: (node_size(v, schema.shape), v))
        data = cube.aggregates[cover].data
        for ax in reversed([i for i, d in enumerate(cover) if d not in mentioned]):
            data = rollup.reduce_dense(data, (ax,))
    elif isinstance(cube.base, SparseArray):
        data = aggregate_sparse_to_dense(
            cube.base, tuple(range(n)), mentioned, measure=measure
        ).data
    else:
        data = aggregate_dense(cube.base, mentioned, measure).data
    points = dict(cq.point_filters)
    ranges = {d: (lo, hi) for d, lo, hi in cq.range_filters}
    index, axes, kept = [], [], 0
    for d in mentioned:
        if d in points:
            index.append(points[d])
            continue
        if d in ranges and d not in cq.group_by:
            axes.append(kept)
        index.append(slice(*ranges[d]) if d in ranges else slice(None))
        kept += 1
    out = data[tuple(index)]
    for ax in sorted(axes, reverse=True):
        out = rollup.reduce_dense(out, (ax,))
    return np.asarray(out, dtype=np.float64)


class TestFloatBitIdentity:
    """Every serving path against :func:`reference_answer`, bitwise, on
    floats of mixed magnitude, where any change in the order of additions
    shows."""

    SHAPE = dict(a=9, b=4, c=3, d=10)

    def cube(self, kind, measure):
        schema = Schema.simple(**self.SHAPE)
        rng = np.random.default_rng(21)
        size = int(np.prod(schema.shape))
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-4, 5, size)
        if kind.endswith("dense"):
            data = values.reshape(schema.shape)
        else:
            flat = rng.choice(size, size=size // 2, replace=False)
            coords = np.stack(np.unravel_index(flat, schema.shape), axis=1)
            data = SparseArray.from_coords(
                schema.shape, coords, values[: len(flat)], chunk_shape=(4, 2, 3, 4)
            )
        if kind.startswith("partial"):
            views = [("a", "b", "d"), ("b", "c"), ("a",)]
            return DataCube.build_partial(schema, data, views=views, measure=measure)
        return DataCube.build(schema, data, measure=measure)

    def queries(self, schema):
        queries = generate_workload(
            schema, WorkloadSpec(num_queries=150, filter_probability=0.6), seed=22
        )
        # Base fallbacks on any cube (every dimension mentioned), in point
        # lookalike groups that a batch gathers from one box.
        queries += [GroupByQuery(("a", "b", "d"), {"c": c}) for c in range(3)]
        queries += [
            GroupByQuery(("b", "c"), {"a": a, "d": (1, 10)}) for a in (0, 4, 8)
        ]
        return queries

    def assert_reference(self, cube, queries, results):
        for q, r in zip(queries, results):
            want = reference_answer(cube, canonicalize_query(cube.schema, q))
            got = np.asarray(r.values, dtype=np.float64)
            assert got.shape == want.shape, q
            assert got.tobytes() == want.tobytes(), q

    @pytest.mark.parametrize("measure", ["sum", "count", "min", "max"])
    @pytest.mark.parametrize(
        "kind, slab",
        [
            ("full-sparse", None),
            ("partial-sparse", None),
            ("full-sparse", 5),  # several slabs per chunk
            ("partial-sparse", 5),
            ("full-dense", None),
            ("partial-dense", None),
        ],
    )
    def test_every_path_matches_reference(self, kind, slab, measure, monkeypatch):
        if slab is not None:
            monkeypatch.setattr(aggregate, "_SLAB", slab)
        cube = self.cube(kind, measure)
        queries = self.queries(cube.schema)
        ref = QueryEngine(cube).execute_many(queries)
        self.assert_reference(cube, queries, ref)
        assert any(r.is_fallback for r in ref)

        batched = CubeService(cube, result_cache_size=0)
        self.assert_reference(cube, queries, batched.execute_batch(queries))
        assert batched.last_batch_report.vectorized_groups > 0

        cached = CubeService(cube, result_cache_size=4096)
        self.assert_reference(cube, queries, [cached.execute(q) for q in queries])
        self.assert_reference(cube, queries, [cached.execute(q) for q in queries])
        assert cached.cache_stats.hits >= len(queries)

        def fail():
            raise RuntimeError("rebuild failed")

        assert not cached.refresh_with(fail, max_retries=0)
        stale = cached.execute_batch(queries)
        assert all(r.stale for r in stale)
        self.assert_reference(cube, queries, stale)


class TestBatchSharing:
    def test_duplicates_computed_once(self, cube):
        q = GroupByQuery(("item",))
        service = CubeService(cube, result_cache_size=0)
        results = service.execute_batch([q] * 10)
        report = service.last_batch_report
        assert report.queries == 10
        assert report.unique_queries == 1
        assert report.shared_passes == 1
        for r in results[1:]:
            assert np.array_equal(
                np.asarray(r.values), np.asarray(results[0].values)
            )

    def test_point_lookalikes_vectorized(self, cube):
        queries = [
            GroupByQuery(("item",), {"branch": b}) for b in range(3)
        ]
        service = CubeService(cube, result_cache_size=0)
        service.execute_batch(queries)
        report = service.last_batch_report
        assert report.vectorized_groups == 1
        assert report.shared_passes == 1

    def test_actual_cells_below_standalone_when_sharing(self, cube):
        queries = [
            GroupByQuery(("item",), {"branch": b}) for b in range(3)
        ] * 4
        service = CubeService(cube, result_cache_size=0)
        service.execute_batch(queries)
        report = service.last_batch_report
        assert report.cells_scanned_actual < report.cells_scanned_standalone

    def test_run_batch_positions_preserved(self, cube):
        engine = QueryEngine(cube)
        qs = [
            canonicalize_query(cube.schema, GroupByQuery(("item",))),
            canonicalize_query(cube.schema, GroupByQuery(("branch",))),
            canonicalize_query(cube.schema, GroupByQuery(("item",))),
        ]
        results, report = run_batch(engine, qs)
        assert report.unique_queries == 2
        assert np.array_equal(
            np.asarray(results[0].values), np.asarray(results[2].values)
        )
        assert results[1].served_by == ("branch",)


class TestServiceCaching:
    def test_warm_cache_serves_with_zero_cells(self, cube):
        service = CubeService(cube)
        q = GroupByQuery(("item",), {"branch": (0, 2)})
        service.execute(q)
        cells_after_miss = service.cells_scanned_actual
        r = service.execute(q)
        assert service.cells_scanned_actual == cells_after_miss
        assert service.cache.stats.hits == 1
        assert r.served_by == ("item", "branch")

    def test_canonically_equal_queries_share_entry(self, cube):
        service = CubeService(cube)
        service.execute(GroupByQuery((), {"item": "pen"}))
        service.execute(GroupByQuery((), {"item": 1}))
        assert service.cache.stats.hits == 1
        assert len(service.cache) == 1

    @pytest.mark.parametrize(
        "seen, lookalike",
        [(1, True), (1, 1.0), (1, np.float64(1.0)), ((0, 2), (0.0, 2)), ((0, 2), (False, 2))],
    )
    def test_memo_never_answers_a_query_canonicalization_rejects(
        self, cube, seen, lookalike
    ):
        # ``True`` and ``1.0`` equal ``1`` and hash alike; a memo keyed on
        # the raw values alone answered them with the index-1 result.
        service = CubeService(cube)
        service.execute(GroupByQuery((), {"branch": seen}))
        rejected = GroupByQuery((), {"branch": lookalike})
        with pytest.raises(TypeError):
            QueryEngine(cube).execute(rejected)
        with pytest.raises(TypeError):
            service.execute(rejected)
        with pytest.raises(TypeError):
            service.execute_batch([rejected])

    def test_memo_serves_numpy_integers_like_ints(self, cube):
        service = CubeService(cube)
        want = service.execute(GroupByQuery((), {"branch": 1})).values
        assert service.execute(GroupByQuery((), {"branch": np.int64(1)})).values == want
        assert service.cache.stats.hits == 1

    def test_cover_is_the_smallest_superset_view(self, schema):
        # Views of equal size tie on the smaller view tuple.
        data = random_sparse(schema.shape, 0.5, seed=9)
        views = [(0, 1), (0, 2), (1, 2), (1,), (2,)]  # sizes 12, 12, 9, 3, 3
        cube = DataCube.build_partial(schema, data, views=views)
        engine, service = QueryEngine(cube), CubeService(cube)
        sizes = schema.shape
        for k in range(3):
            for mentioned in itertools.combinations(range(3), k):
                covering = [
                    (node_size(v, sizes), v) for v in cube.aggregates if set(mentioned) <= set(v)
                ]
                want = min(covering)[1] if covering else None
                assert engine.resolve_cover(mentioned) == want, mentioned
                query = GroupByQuery(schema.names_of(mentioned))
                assert service.compile(service.canonicalize(query)).cover == want, mentioned
        assert engine.resolve_cover((0, 1, 2)) is None
        everything = GroupByQuery(schema.names_of((0, 1)), {schema.names_of((2,))[0]: (0, 1)})
        assert service.compile(service.canonicalize(everything)).cover is None

    def test_manual_invalidate_drops_the_cover_table(self, schema):
        data = random_sparse(schema.shape, 0.5, seed=10)
        cube = DataCube.build_partial(schema, data, views=[(0, 1), (0,)])
        service = CubeService(cube)
        assert service.execute(GroupByQuery(("item",))).served_by == ("item",)
        cube.aggregates.pop((0,))  # an out-of-band change of the views
        service.invalidate()
        assert service.execute(GroupByQuery(("item",))).served_by == ("item", "branch")

    def test_cover_memo_reused(self, cube):
        # The memo holds compiled shapes: queries that differ only in their
        # filter values compile once, and the shapes of one mentioned set
        # share one cover lookup.
        service = CubeService(cube)
        service.execute(GroupByQuery(("item",), {"branch": 0}))
        service.execute(GroupByQuery(("item",), {"branch": 2}))
        service.execute(GroupByQuery(("item", "branch")))
        assert list(service._shapes) == [(0, 1)]
        points, grouped = service._shapes[(0, 1)].values()
        assert points.cover == grouped.cover == (0, 1)
        again = canonicalize_query(cube.schema, GroupByQuery(("item",), {"branch": 1}))
        assert service.compile(again) is points

    def test_refresh_invalidates_results_not_cover_memo(self, schema):
        data = random_sparse(schema.shape, 0.5, seed=8)
        cube = DataCube.build(schema, data)
        service = CubeService(cube)
        q = GroupByQuery(("item",))
        stale = service.execute(q)
        memo = {m: dict(shapes) for m, shapes in service._shapes.items()}
        assert len(memo) == 1
        delta = random_sparse(schema.shape, 0.2, seed=9)
        apply_delta(cube, delta)
        assert service.refreshes_seen == 1
        assert len(service.cache) == 0
        assert service._shapes == memo
        fresh = service.execute(q)
        expected = QueryEngine(cube).execute(q)
        assert np.array_equal(
            np.asarray(fresh.values), np.asarray(expected.values)
        )
        assert not np.allclose(
            np.asarray(stale.values), np.asarray(fresh.values)
        )

    @pytest.mark.parametrize("batched", [False, True])
    def test_refresh_during_a_miss_is_never_served(self, batched):
        # A refresh that commits while a miss is being answered (here:
        # from inside the answer's roll-up) must not leave the pre-refresh
        # answer in the cache.
        schema = Schema.simple(a=8, b=6, c=4)
        cube = DataCube.build(schema, random_sparse(schema.shape, 0.5, seed=8))
        delta = random_sparse(schema.shape, 0.3, seed=9)
        service = CubeService(cube)
        q = GroupByQuery(("a",), {"b": (0, 3)})
        rollup = service.engine.reduce_axes
        fired = []

        def rollup_then_refresh(data, axes):
            out = rollup(data, axes)
            if axes and not fired:  # the answer's own roll-up, not step 1
                fired.append(True)
                apply_delta(cube, delta)
            return out

        service.engine.reduce_axes = rollup_then_refresh
        before = service.execute_batch([q])[0] if batched else service.execute(q)
        assert fired and service.refreshes_seen == 1
        after = service.execute(q)
        expected = QueryEngine(cube).execute(q)
        assert np.array_equal(np.asarray(after.values), np.asarray(expected.values))
        assert not np.allclose(np.asarray(before.values), np.asarray(after.values))

    def test_entry_from_an_older_cube_is_dropped(self, cube):
        service = CubeService(cube)
        q = service.canonicalize(GroupByQuery(("item",)))
        service.cache.put(q, service.engine.execute(q), tag=cube.refreshes - 1)
        assert service.execute(q).cells_scanned == service.cells_scanned_actual
        assert service.cache.stats.hits == 0 and len(service.cache) == 1

    def test_dropped_service_unsubscribes_on_next_refresh(self, schema):
        data = random_sparse(schema.shape, 0.5, seed=8)
        cube = DataCube.build(schema, data)
        service = CubeService(cube)
        assert len(cube.refresh_listeners) == 1
        del service
        gc.collect()
        cube.notify_refresh()
        assert len(cube.refresh_listeners) == 0

    def test_manual_invalidate_clears_everything(self, cube):
        service = CubeService(cube)
        service.execute(GroupByQuery(("item",)))
        assert service.invalidate() == 1
        assert len(service.cache) == 0
        assert len(service._shapes) == 0

    def test_describe_mentions_counters(self, cube):
        service = CubeService(cube)
        service.execute(GroupByQuery(("item",)))
        text = service.describe()
        assert "1 queries" in text and "cache" in text


class TestServedAnswersAreReadOnly:
    """A cache hit returns the cached result, and duplicates in one batch
    share one: a write into a served answer must not reach later readers."""

    @pytest.fixture
    def arange_cube(self):
        return DataCube.build(Schema.simple(a=4, b=3, c=2), np.arange(24.0).reshape(4, 3, 2))

    def test_execute_answers_are_read_only(self, arange_cube):
        q = GroupByQuery(("a",))
        want = QueryEngine(arange_cube).execute(q).values
        service = CubeService(arange_cube)
        for served in (service.execute(q), service.execute(q)):  # a miss, then a hit
            with pytest.raises(ValueError):
                served.values[0] = -1.0
        assert service.cache.stats.hits == 1
        assert np.array_equal(service.execute(q).values, want)

    @pytest.mark.parametrize("cache_size", [1024, 0])
    def test_duplicates_in_one_batch_are_read_only(self, arange_cube, cache_size):
        q = GroupByQuery(("a",))
        want = QueryEngine(arange_cube).execute(q).values
        service = CubeService(arange_cube, result_cache_size=cache_size)
        first, second = service.execute_batch([q, GroupByQuery(("a",), {"b": (0, 3)})])
        with pytest.raises(ValueError):
            first.values[0] = -1.0
        assert np.array_equal(second.values, want)
        assert np.array_equal(service.execute(q).values, want)


class TestReplay:
    @pytest.fixture
    def setup(self):
        schema = Schema.simple(a=5, b=4, c=4, d=3)
        rng = np.random.default_rng(2)
        cube = DataCube.build(schema, rng.random(schema.shape))
        queries = generate_workload(
            schema, WorkloadSpec(num_queries=300), seed=4
        )
        return cube, queries

    @pytest.mark.parametrize("mode", ["per-query", "batched", "cached"])
    def test_modes_report_sane_stats(self, setup, mode):
        cube, queries = setup
        stats = replay(cube, queries, mode=mode)
        assert isinstance(stats, ServiceStats)
        assert stats.mode == mode
        assert stats.queries == 300
        assert stats.throughput_qps > 0
        assert 0 <= stats.latency_p50_ms <= stats.latency_p95_ms
        assert stats.latency_p95_ms <= stats.latency_p99_ms
        assert stats.cells_scanned > 0
        assert "latency p95" in stats.format()

    def test_modes_agree_on_fallbacks(self, setup):
        cube, queries = setup
        counts = {
            mode: replay(cube, queries, mode=mode).base_fallbacks
            for mode in ("per-query", "batched", "cached")
        }
        assert len(set(counts.values())) == 1

    def test_cached_mode_reports_hits(self, setup):
        cube, queries = setup
        stats = replay(cube, queries, mode="cached")
        assert stats.cache_hits + stats.cache_misses == 300
        assert stats.cache_hit_rate > 0

    def test_rejects_unknown_mode_and_bad_batch(self, setup):
        cube, queries = setup
        with pytest.raises(ValueError, match="unknown mode"):
            replay(cube, queries, mode="turbo")
        with pytest.raises(ValueError, match="batch_size"):
            replay(cube, queries, batch_size=0)


class TestQueryResultShape:
    def test_execute_returns_structured_result(self, cube):
        r = QueryEngine(cube).execute(GroupByQuery(("item",)))
        assert r.served_by == ("item",)
        assert r.cells_scanned == 4
        assert r.is_fallback is False
        assert isinstance(r.values, np.ndarray)

    def test_scalar_result_is_float(self, cube):
        r = QueryEngine(cube).execute(GroupByQuery())
        assert isinstance(r.values, float)

    def test_results_do_not_alias_cube_storage(self, cube):
        r = QueryEngine(cube).execute(GroupByQuery(("item",)))
        r.values[0] = -1.0
        assert cube.aggregates[(0,)].data[0] != -1.0

    def test_fallback_flag_set(self, schema):
        data = random_sparse(schema.shape, 0.4, seed=5)
        cube = DataCube.build_partial(schema, data, views=[("item",)])
        r = QueryEngine(cube).execute(GroupByQuery(("branch",)))
        assert r.is_fallback is True
        assert r.served_by == BASE


class TestDegradedServing:
    """Graceful degradation: a failed rebuild never takes serving down."""

    def test_successful_rebuild_stays_fresh(self, cube):
        svc = CubeService(cube)
        calls = []
        assert svc.refresh_with(lambda: calls.append(1)) is True
        assert calls == [1]
        assert svc.degraded is False
        r = svc.execute(GroupByQuery(("item",)))
        assert r.stale is False

    def test_failed_rebuild_serves_stale_flagged_results(self, cube):
        svc = CubeService(cube)
        before = svc.execute(GroupByQuery(("item",))).values.copy()

        def crash():
            raise RuntimeError("rank 1 died mid-rebuild")

        slept = []
        ok = svc.refresh_with(crash, max_retries=2, sleep=slept.append)
        assert ok is False
        assert svc.degraded is True
        # Exponential backoff between the 3 attempts.
        assert slept == [0.05, 0.1]
        # Serving continues, values unchanged, every answer flagged.
        r = svc.execute(GroupByQuery(("item",)))
        assert r.stale is True
        assert np.array_equal(r.values, before)
        assert "DEGRADED" in svc.describe()

    def test_degraded_counters_and_recovery(self, cube):
        svc = CubeService(cube)

        def crash():
            raise RuntimeError("still down")

        svc.refresh_with(crash, max_retries=1, sleep=lambda s: None)
        svc.execute_batch([GroupByQuery(("item",)), GroupByQuery(("year",))])
        m = {c.name: c.value for c in svc.metrics.counters()}
        assert m["serve.degraded.entered"] == 1
        assert m["serve.degraded.queries"] == 2
        assert m["serve.degraded.rebuild_failures"] == 2
        assert m["serve.degraded.rebuild_retries"] == 1

        # The next successful rebuild exits degraded mode.
        assert svc.refresh_with(lambda: None) is True
        assert svc.degraded is False
        r = svc.execute(GroupByQuery(("item",)))
        assert r.stale is False
        m = {c.name: c.value for c in svc.metrics.counters()}
        assert m["serve.degraded.recovered"] == 1

    def test_cache_entries_are_never_flagged(self, cube):
        # A hit cached while fresh must come back stale-flagged during
        # degradation but fresh again after recovery: the flag lives on
        # copies, not on the cached entries.
        svc = CubeService(cube)
        q = GroupByQuery(("item",))
        svc.execute(q)
        svc.refresh_with(
            lambda: (_ for _ in ()).throw(RuntimeError("down")),
            max_retries=0,
        )
        assert svc.execute(q).stale is True
        assert svc.refresh_with(lambda: None) is True
        assert svc.execute(q).stale is False

    def test_negative_retries_rejected(self, cube):
        svc = CubeService(cube)
        with pytest.raises(ValueError, match="max_retries"):
            svc.refresh_with(lambda: None, max_retries=-1)

    def test_listener_error_never_folds_a_delta_twice(self):
        # A refresh listener that raises once, after apply_delta has folded
        # the views and merged the base: the commit stands, the error
        # propagates, and no retry folds the delta a second time.
        schema = Schema.of(Dimension("a", 8), Dimension("b", 6), Dimension("c", 4))
        cube = DataCube.build(schema, random_sparse(schema.shape, 0.3, seed=10))
        svc = CubeService(cube)
        errors = [RuntimeError("listener down")]

        def flaky():
            if errors:
                raise errors.pop()

        cube.subscribe_refresh(flaky)
        svc.execute(GroupByQuery(("a",)))
        total = float(cube.aggregates[()].data)
        coords = np.array([[0, 0, 0], [1, 2, 3], [7, 5, 3], [4, 4, 0], [2, 1, 1]])
        delta = SparseArray.from_coords(schema.shape, coords, np.ones(5))
        with pytest.raises(RuntimeError, match="listener down"):
            svc.refresh_with(lambda: apply_delta(cube, delta), sleep=lambda s: None)
        assert cube.refreshes == 1
        assert float(cube.aggregates[()].data) == total + 5
        assert svc.degraded is False and len(svc.cache) == 0
        assert svc.refresh_with(lambda: apply_delta(cube, delta)) is True
        assert float(cube.aggregates[()].data) == total + 10

    def test_every_listener_runs_and_the_first_error_is_raised(self, cube):
        calls = []

        def failing(name):
            def listener():
                calls.append(name)
                raise RuntimeError(name)

            return listener

        cube.subscribe_refresh(failing("first"))
        cube.subscribe_refresh(lambda: calls.append("done") or False)  # unsubscribes
        cube.subscribe_refresh(failing("second"))
        with pytest.raises(RuntimeError, match="first"):
            cube.notify_refresh()
        assert calls == ["first", "done", "second"]
        assert len(cube.refresh_listeners) == 2  # raising listeners stay subscribed


class TestServiceBackendPool:
    """A service-owned execution backend keeps one warm pool across refreshes."""

    def test_refreshes_reuse_the_service_pool(self, schema):
        from repro.core.parallel import construct_cube_parallel
        from repro.exec import ThreadBackend

        rng = np.random.default_rng(9)
        data = rng.random(schema.shape)
        cube = DataCube.build(schema, data)
        svc = CubeService(cube, backend=ThreadBackend(workers=2))
        pool = svc.backend.pool
        assert pool is not None and not pool.closed, (
            "the service must open (warm) its backend at construction"
        )

        def rebuild():
            construct_cube_parallel(data, (1, 0, 0), backend=svc.backend)

        assert svc.refresh_with(rebuild) is True
        after_first = pool.total_tasks
        assert after_first == 2
        assert svc.refresh_with(rebuild) is True
        # Same pool object, same live workers, twice the completed tasks:
        # the second rebuild paid no thread-spawn cost.
        assert svc.backend.pool is pool
        assert pool.total_tasks == 2 * after_first

        svc.close()
        assert pool.closed
        assert svc.backend is None
        svc.close()  # idempotent

    def test_context_manager_closes_backend(self, cube):
        from repro.exec import ThreadBackend

        with CubeService(cube, backend=ThreadBackend(workers=2)) as svc:
            pool = svc.backend.pool
            assert not pool.closed
        assert pool.closed

    def test_service_without_backend(self, cube):
        svc = CubeService(cube)
        assert svc.backend is None
        svc.close()
