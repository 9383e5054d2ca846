"""Unit tests for the telemetry core: tracer, registry, and stat views."""

import pickle

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)
from repro.obs.span import op_span
from repro.util import percentile


class TestPercentileUtil:
    def test_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.2, 2.6]
        got = percentile(values, (50.0, 95.0, 99.0))
        want = np.percentile(np.asarray(values), [50, 95, 99])
        assert got == tuple(float(w) for w in want)

    def test_empty_is_zeros(self):
        assert percentile([], (50.0, 99.0)) == (0.0, 0.0)

    def test_single_value(self):
        assert percentile([7.0], (0.0, 50.0, 100.0)) == (7.0, 7.0, 7.0)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.full_name == "x"

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_counter_labels_render_sorted(self):
        reg = MetricsRegistry()
        c = reg.counter("collective.bytes", tag=3, src=1, dst=0)
        assert c.full_name == "collective.bytes{dst=0,src=1,tag=3}"

    def test_gauge_sets(self):
        g = Gauge("depth")
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram_percentiles_match_numpy(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 16.0
        assert h.percentiles((50.0,)) == (float(np.percentile([1, 2, 3, 10], 50)),)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a", k=1) is reg.counter("a", k=1)
        assert reg.counter("a", k=1) is not reg.counter("a", k=2)
        assert len(reg) == 2

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1.0
        assert snap["histograms"]["h"]["max"] == 4.0

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(5.0)
        b.gauge("g").set(3.0)
        b.gauge("only_b").set(7.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.gauge("g").value == 5.0  # max wins: peaks stay peaks
        assert a.gauge("only_b").value == 7.0
        assert a.histogram("h").observations == [1.0, 2.0]

    def test_pickle_roundtrip_recreates_lock(self):
        reg = MetricsRegistry()
        reg.counter("c", r=0).inc(9)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.counter("c", r=0).value == 9
        clone.counter("c", r=0).inc()  # lock works after unpickling
        assert clone.counter("c", r=0).value == 10


class TestTracer:
    def test_span_context_records_parent(self):
        clock = iter([0.0, 1.0, 2.0, 3.0]).__next__
        tr = Tracer(rank=0, clock=clock)
        with tr.span("outer"):
            with tr.span("inner", node="AB"):
                pass
        assert [s.name for s in tr.spans] == ["inner", "outer"]
        inner, outer = tr.spans
        assert inner.parent == "outer"
        assert outer.parent is None
        assert inner.attrs == {"node": "AB"}
        assert outer.duration == 3.0

    def test_end_span_explicit_style(self):
        clock = iter([5.0, 9.0]).__next__
        tr = Tracer(rank=2, clock=clock)
        t0 = tr.clock()
        tr.end_span("phase", t0, attrs={"n": 1})
        (s,) = tr.spans
        assert (s.t_start, s.t_end, s.rank) == (5.0, 9.0, 2)

    def test_instant_and_sample(self):
        tr = Tracer(rank=1, clock=lambda: 2.5)
        tr.instant("boom", detail="x")
        tr.sample("memory_elements", 42.0)
        (marker,) = tr.spans
        assert (marker.name, marker.cat, marker.attrs) == ("boom", "event", {"detail": "x"})
        assert marker.t_start == marker.t_end == 2.5
        assert tr.samples[0].value == 42.0

    def test_span_validates_time_order(self):
        with pytest.raises(ValueError):
            Span(name="bad", rank=0, t_start=2.0, t_end=1.0)

    def test_op_span_requires_the_channel_on_send_and_recv(self):
        with pytest.raises(ValueError, match="requires peer and tag"):
            op_span(0, "send", 0.0, 1.0, peer=1)
        op = op_span(0, "disk", 0.0, 1.0, detail="read")
        assert (op.cat, op.attrs) == ("op", {"detail": "read"})

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything"):
            NULL_TRACER.instant("x")
            NULL_TRACER.sample("y", 1.0)
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.spans == []
        assert isinstance(NULL_TRACER, NullTracer)


class TestTracingObservesOnly:
    def test_untraced_build_same_makespan_and_no_obs_allocations(self):
        # Tracing must observe, never perturb, the simulated timeline; and
        # a build with tracing off touches no telemetry objects at all.
        import tracemalloc

        from repro.arrays.dataset import random_sparse
        from repro.core.parallel import construct_cube_parallel

        data = random_sparse((8, 8, 4), 0.3, seed=0)

        def build(trace):
            return construct_cube_parallel(
                data, (1, 1, 0), trace=trace, collect_results=False
            )

        assert build(False).metrics.makespan_s == build(True).metrics.makespan_s
        tracemalloc.start()
        build(False)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        obs_bytes = sum(
            stat.size
            for stat in snapshot.statistics("filename")
            if "repro/obs/" in stat.traceback[0].filename.replace("\\", "/")
        )
        assert obs_bytes == 0, (
            f"untraced build allocated {obs_bytes} bytes inside repro/obs"
        )


class TestServeViews:
    def test_cache_stats_is_registry_view(self):
        from repro.serve.cache import ResultCache

        reg = MetricsRegistry()
        cache = ResultCache(capacity=2, metrics=reg)
        from repro.olap.query import CanonicalQuery

        q = CanonicalQuery(group_by=(0,))
        assert cache.get(q) is None
        assert cache.stats.misses == 1
        assert reg.counter("serve.cache.misses").value == 1
        assert cache.stats.hit_rate == 0.0

    def test_service_counters_live_in_registry(self):
        from repro.olap.cube import DataCube
        from repro.olap.query import GroupByQuery
        from repro.olap.schema import Schema
        from repro.serve.service import CubeService

        schema = Schema.simple(a=4, b=3)
        cube = DataCube.build(schema, np.arange(12, dtype=float).reshape(4, 3))
        reg = MetricsRegistry()
        svc = CubeService(cube, metrics=reg)
        svc.execute(GroupByQuery(group_by=("a",)))
        svc.execute(GroupByQuery(group_by=("a",)))
        assert svc.queries_served == 2
        assert svc.batches_executed == 2
        assert reg.counter("serve.queries").value == 2
        assert reg.counter("serve.cache.hits").value == 1
        assert svc.cache_stats.hits == 1
        assert svc.cells_scanned_actual > 0

    def test_service_spans_and_invalidation_instant(self):
        from repro.olap.cube import DataCube
        from repro.olap.query import GroupByQuery
        from repro.olap.schema import Schema
        from repro.serve.service import CubeService

        schema = Schema.simple(a=4, b=3)
        cube = DataCube.build(schema, np.arange(12, dtype=float).reshape(4, 3))
        tr = Tracer(rank=-1)
        svc = CubeService(cube, tracer=tr)
        svc.execute(GroupByQuery(group_by=("b",)))
        assert [s.name for s in tr.spans] == ["serve.batch"]
        assert tr.spans[0].attrs["misses"] == 1
        svc._handle_refresh()
        assert [(s.name, s.cat, s.duration) for s in tr.spans[1:]] == [
            ("serve.cache.invalidated", "serve", 0.0)
        ]
        assert svc.refreshes_seen == 1

    def test_replay_stats_come_from_histogram(self):
        from repro.olap.cube import DataCube
        from repro.olap.schema import Schema
        from repro.olap.workload import WorkloadSpec, generate_workload
        from repro.serve.replay import replay

        schema = Schema.simple(a=6, b=5, c=4)
        rng = np.random.default_rng(0)
        cube = DataCube.build(schema, rng.random(schema.shape))
        queries = generate_workload(
            schema, WorkloadSpec(num_queries=60), seed=0
        )
        reg = MetricsRegistry()
        stats = replay(cube, queries, mode="cached", metrics=reg)
        obs = reg.histogram("serve.latency_ms").observations
        assert len(obs) == 60
        want = np.percentile(np.asarray(obs), [50, 95, 99])
        assert stats.latency_p50_ms == float(want[0])
        assert stats.latency_p95_ms == float(want[1])
        assert stats.latency_p99_ms == float(want[2])
        assert stats.cache_hits == reg.counter("serve.cache.hits").value
