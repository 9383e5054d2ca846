"""The high-throughput serving facade over a materialized cube.

:class:`CubeService` is what a dashboard or API layer talks to.  On top of
the bare :class:`repro.olap.query.QueryEngine` it adds the three
optimizations the serving workload rewards:

- **canonicalization + compiled query shapes** -- each distinct shape
  (group-by, point- and range-filtered dimensions) resolves its serving
  view and axes once, not per query;
- **a bounded LRU result cache** keyed on the canonical query, with
  hit/miss/eviction counters and automatic invalidation when the cube
  absorbs a delta (:func:`repro.olap.maintenance.apply_delta`);
- **batched execution** -- :meth:`CubeService.execute_batch` groups
  queries by serving view and answers each group in one vectorized pass
  (:func:`repro.serve.batch.run_batch`).

All three paths return results bit-identical to
:meth:`QueryEngine.execute`.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from repro.exec.base import Backend
    from repro.obs.expo import ObsEndpoint

from repro.core.lattice import Node, node_size
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import NULL_TRACER, Tracer
from repro.olap.cube import DataCube
from repro.olap.query import (
    CanonicalQuery,
    GroupByQuery,
    QueryEngine,
    QueryResult,
    QueryShape,
)
from repro.serve.batch import BatchReport, run_batch
from repro.serve.cache import CacheStats, ResultCache

#: A compiled query's CanonicalQuery is written straight into its slots (in
#: field order), past the frozen ``__setattr__`` and ``__post_init__``.
_set_group_by, _set_points, _set_ranges, _set_mentioned, _set_shape = [
    getattr(CanonicalQuery, f).__set__ for f in CanonicalQuery.__slots__
]


class CubeService:
    """Serves group-by queries from a cube with caching and batching.

    Parameters
    ----------
    cube:
        The materialized :class:`DataCube` to serve from.
    result_cache_size:
        LRU capacity in entries; ``0`` disables result caching.
    metrics:
        :class:`~repro.obs.MetricsRegistry` to register the service's
        counters in (``serve.queries``, ``serve.batches``,
        ``serve.cells_scanned_*``, ``serve.refreshes``, the degraded-mode
        ``serve.degraded.*`` family, and the cache's ``serve.cache.*``).  Pass one to aggregate several services or to
        export alongside a build's registry; omitted, the service keeps a
        private one (exposed as :attr:`metrics`).
    tracer:
        :class:`~repro.obs.Tracer` receiving a ``serve.batch`` span per
        miss batch and a zero-width span per cache invalidation; default:
        the no-op tracer.

    The legacy integer attributes (``queries_served`` and friends) remain
    readable -- they are now views over the registry counters.

    The service subscribes to the cube's refresh notifications through a
    weak reference, so dropping the service does not leak it: the next
    refresh unsubscribes the dead listener.
    """

    def __init__(
        self,
        cube: DataCube,
        result_cache_size: int = 1024,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        backend: "Backend | None" = None,
    ):
        self.cube = cube
        self.engine = QueryEngine(cube)
        # A service-owned execution backend for rebuilds: opened once here
        # (warming a persistent worker pool on pooling backends such as
        # ThreadBackend), reused by every refresh_with rebuild that builds
        # through self.backend, and shut down by close().
        self._backend = backend.open() if backend is not None else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cache = ResultCache(result_cache_size, metrics=self.metrics)
        #: Compiled shapes by mentioned dimensions, then by shape.
        self._shapes: dict[Node, dict[tuple[Node, Node, Node], QueryShape]] = {}
        #: ``(cells, view, its dimensions)`` per materialized view, smallest
        #: first; built by the first cover lookup.
        self._covers: list[tuple[int, Node, frozenset[int]]] | None = None
        #: Canonicalization compiled per raw ``(group_by, where names)``:
        #: ``(grouped dims, filters, {pattern: (group_by, mentioned, shape)})``.
        self._raw_shapes: dict[tuple, tuple] = {}
        self._queries = self.metrics.counter("serve.queries")
        self._batches = self.metrics.counter("serve.batches")
        self._cells_actual = self.metrics.counter("serve.cells_scanned_actual")
        self._cells_standalone = self.metrics.counter(
            "serve.cells_scanned_standalone"
        )
        self._refreshes = self.metrics.counter("serve.refreshes")
        self._stale = False
        self._degraded_queries = self.metrics.counter("serve.degraded.queries")
        self._degraded_entered = self.metrics.counter("serve.degraded.entered")
        self._degraded_recovered = self.metrics.counter(
            "serve.degraded.recovered"
        )
        self._rebuild_failures = self.metrics.counter(
            "serve.degraded.rebuild_failures"
        )
        self._rebuild_retries = self.metrics.counter(
            "serve.degraded.rebuild_retries"
        )
        self._endpoint: "ObsEndpoint | None" = None
        self.last_batch_report: BatchReport | None = None
        self_ref = weakref.ref(self)

        def _on_refresh() -> bool:
            svc = self_ref()
            if svc is None:
                return False
            svc._handle_refresh()
            return True

        cube.subscribe_refresh(_on_refresh)

    # -- counter views (legacy attribute API) -------------------------------------

    @property
    def queries_served(self) -> int:
        """Total queries answered (cache hits included)."""
        return self._queries.value

    @property
    def batches_executed(self) -> int:
        """Calls to :meth:`execute_batch` (``execute`` counts as one)."""
        return self._batches.value

    @property
    def cells_scanned_actual(self) -> int:
        """Cube cells actually read across all batched passes."""
        return self._cells_actual.value

    @property
    def cells_scanned_standalone(self) -> int:
        """Cells a per-query engine would have read for the same misses."""
        return self._cells_standalone.value

    @property
    def refreshes_seen(self) -> int:
        """Cube refresh notifications absorbed (each invalidates the cache)."""
        return self._refreshes.value

    @property
    def degraded(self) -> bool:
        """Whether the service is in degraded (stale-serving) mode.

        Entered when :meth:`refresh_with` exhausts its retries; every
        answer is flagged ``stale=True`` until a later rebuild succeeds.
        """
        return self._stale

    # -- pipeline pieces ---------------------------------------------------------

    def canonicalize(self, query: GroupByQuery | CanonicalQuery) -> CanonicalQuery:
        """Normalize ``query`` by a table compiled per raw ``(group_by, where
        names)`` shape, bounded by wholesale clearing (no-op when canonical).
        A filter value that is not exactly an ``int`` index (never on an
        integer-labelled dimension), a known ``str`` label or a ``tuple`` of
        two in-range ``int`` bounds goes to :func:`canonicalize_query`, the
        one definition of filter semantics, which raises every error."""
        if isinstance(query, CanonicalQuery):
            return query
        where = query.where
        try:
            key = (query.group_by, tuple(where))
            entry = self._raw_shapes.get(key)
        except TypeError:  # an unhashable group-by
            return self.engine.canonicalize(query)
        if entry is None:
            entry = self._compile_raw(key)
            if entry is None:  # an unknown name, or a group-by over every dimension
                return self.engine.canonicalize(query)
        grouped, filters, patterns = entry
        points, ranges, mask = [], [], 0  # mask: the point/range pattern, 2 bits a filter
        for (d, size, limit, is_grouped, labels, bit), v in zip(filters, where.values()):
            t = type(v)
            if t is int and 0 <= v < limit:
                points.append((d, v))
            elif t is str and v in labels:
                points.append((d, labels[v]))
            elif (t is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is int
                  and 0 <= v[0] <= v[1] <= size):
                if v[1] - v[0] == size:
                    continue  # selects every member: a no-op
                if v[1] != v[0] + 1 or is_grouped:
                    ranges.append((d, *v))
                    mask |= bit << 1
                    continue
                points.append((d, v[0]))  # width-1 range, axis dropped either way
            else:
                return self.engine.canonicalize(query)
            mask |= bit
        points.sort()
        ranges.sort()
        pattern = patterns.get(mask)
        if pattern is None:  # a point filter collapses the axis, grouped or not
            group_by = tuple(sorted(grouped.difference([d for d, _ in points])))
            cq = CanonicalQuery(group_by, tuple(points), tuple(ranges))
            patterns[mask] = (group_by, cq.mentioned, cq.shape)
            return cq
        cq = object.__new__(CanonicalQuery)
        _set_group_by(cq, pattern[0])
        _set_points(cq, tuple(points))
        _set_ranges(cq, tuple(ranges))
        _set_mentioned(cq, pattern[1])
        _set_shape(cq, pattern[2])
        return cq

    def _compile_raw(self, key: tuple) -> tuple | None:
        """Raw shape ``key``'s entry: per filter, in ``where`` order, ``(dimension,
        size, index limit, grouped, string labels, pattern bit)``; ``None`` when
        ``canonicalize_query`` rejects the names."""
        group_by, names = key
        schema = self.cube.schema
        try:
            grouped = {schema.index(nm) for nm in group_by}
            dims = [schema.index(nm) for nm in names]
        except KeyError:
            return None
        if len(grouped) == len(schema.dimensions):
            return None
        filters = []
        for k, d in enumerate(dims):
            size, labels = schema.shape[d], schema.dimensions[d].labels or ()
            # Ints are labels, never indices, on an integer-labelled dimension;
            # of equal string labels the first wins, as in ``labels.index``.
            strings = all(isinstance(x, str) for x in labels)
            index = dict(zip(labels[::-1], range(size - 1, -1, -1))) if strings else {}
            filters.append((d, size, size if strings else 0, d in grouped, index, 1 << 2 * k))
        if len(self._raw_shapes) >= 65536:
            self._raw_shapes.clear()
        entry = self._raw_shapes[key] = (grouped, tuple(filters), {})
        return entry

    def _resolve_cover(self, mentioned: Node) -> Node | None:
        """:meth:`QueryEngine.resolve_cover` by table: the views sorted once
        by ``(cells, view)``, and the first that holds ``mentioned`` wins.

        The bare engine keeps its scan over every view: it is the
        per-query baseline that batched serving is measured against.
        """
        if len(mentioned) == len(self.cube.schema.dimensions):
            return None
        covers = self._covers
        if covers is None:
            shape = self.cube.schema.shape
            covers = self._covers = sorted(
                (node_size(v, shape), v, frozenset(v)) for v in self.cube.aggregates
            )
        q = set(mentioned)
        return next((v for _, v, dims in covers if q <= dims), None)

    def compile(self, cq: CanonicalQuery) -> QueryShape:
        """:meth:`QueryEngine.compile`, memoized on the query's shape; the
        shapes of one mentioned-dimension set share one cover lookup."""
        shapes = self._shapes.get(cq.mentioned)
        if shapes is None:
            shapes = self._shapes[cq.mentioned] = {}
        shape = shapes.get(cq.shape)
        if shape is None:
            like = next(iter(shapes.values()), None)
            if like is None:
                like = self.engine.cover_shape(cq.mentioned, self._resolve_cover(cq.mentioned))
            shape = shapes[cq.shape] = self.engine.compile(cq, like)
        return shape

    def _handle_refresh(self) -> None:
        """Cube absorbed a delta: drop cached results, keep compiled shapes.

        An in-place refresh changes aggregate *values* but not the set of
        materialized views, so compiled shapes stay valid while every
        cached result is stale.
        """
        self._refreshes.inc()
        dropped = self.cache.invalidate()
        if self.tracer.enabled:
            self.tracer.instant(
                "serve.cache.invalidated", cat="serve", dropped=dropped
            )

    def invalidate(self) -> int:
        """Manually drop all cached results (also resets compiled shapes
        and the cover table).

        For out-of-band cube mutations that bypass
        :func:`repro.olap.maintenance.apply_delta`.
        """
        self._shapes.clear()
        self._covers = None
        return self.cache.invalidate()

    def refresh_with(
        self,
        rebuild: Callable[[], None],
        max_retries: int = 3,
        backoff_s: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> bool:
        """Run ``rebuild`` (which refreshes :attr:`cube`) with graceful degradation.

        ``rebuild`` is any callable that brings the cube up to date -- e.g.
        a delta application, or a full reconstruction on a real backend
        that may crash.  Failures are retried up to ``max_retries`` times
        with exponential backoff (``backoff_s * 2**attempt`` between
        attempts); if every attempt raises, the service **keeps serving**:
        it enters degraded mode, answering from the pre-failure cube with
        every result flagged ``stale=True``, and returns ``False`` instead
        of raising.  The next successful ``rebuild`` (through this method)
        exits degraded mode.  An attempt that committed a refresh (the
        cube's ``refreshes`` count moved) is never retried: if a refresh
        listener raised after the commit, its error propagates.

        Observability: ``serve.degraded.rebuild_failures`` and
        ``.rebuild_retries`` count attempts, ``.entered`` / ``.recovered``
        count mode transitions, and the tracer gets
        ``serve.degraded.enter`` / ``serve.degraded.exit`` zero-width spans.
        """
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        last_error: BaseException | None = None
        for attempt in range(max_retries + 1):
            if attempt:
                self._rebuild_retries.inc()
                sleep(backoff_s * 2 ** (attempt - 1))
            committed = self.cube.refreshes
            try:
                rebuild()
            except Exception as exc:
                if self.cube.refreshes != committed:
                    raise  # committed: a listener failed after the refresh
                self._rebuild_failures.inc()
                last_error = exc
                continue
            if self._stale:
                self._stale = False
                self._degraded_recovered.inc()
                if self.tracer.enabled:
                    self.tracer.instant("serve.degraded.exit", cat="serve")
            return True
        if not self._stale:
            self._stale = True
            self._degraded_entered.inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "serve.degraded.enter",
                    cat="serve",
                    error=repr(last_error),
                    attempts=max_retries + 1,
                )
        return False

    # -- rebuild backend -----------------------------------------------------------

    @property
    def backend(self) -> "Backend | None":
        """The service-owned execution backend for rebuilds, if any.

        Opened (pool warmed) at construction; pass it as the ``backend=``
        of every rebuild's ``construct_cube_parallel`` so repeated
        refreshes reuse the same live workers -- builds only release
        per-run state on caller-owned instances, never the pool.
        """
        return self._backend

    # -- HTTP exposition -----------------------------------------------------------

    def serve_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "ObsEndpoint":
        """Expose ``/metrics``, ``/health``, and ``/ready`` over HTTP.

        Starts (and returns) an :class:`~repro.obs.expo.ObsEndpoint` on a
        background daemon thread -- ``port=0`` binds a free port, read it
        from ``endpoint.port``.  The probes carry this service's meaning:

        - ``/metrics`` renders :attr:`metrics` in Prometheus text format
          (the ``serve.*`` families, plus whatever else the caller
          registered in a shared registry);
        - ``/health`` answers 503 while the service is in degraded
          (stale-serving) mode, 200 otherwise;
        - ``/ready`` answers 200 only when the rebuild backend's worker
          pool is warm (no backend also counts as ready: the service can
          answer queries, it just rebuilds cold).

        Idempotent: repeated calls return the same endpoint.  The
        endpoint is shut down by :meth:`close`.
        """
        if self._endpoint is None:
            from repro.obs.expo import ObsEndpoint

            def health() -> tuple[bool, str]:
                if self._stale:
                    return (False, "degraded: serving stale results")
                return (True, "ok")

            def ready() -> tuple[bool, str]:
                backend = self._backend
                if backend is None:
                    return (True, "ready (no rebuild backend)")
                pool = getattr(backend, "pool", None)
                if pool is None:
                    return (True, "ready (backend has no pool)")
                if pool.warm:
                    return (True, f"ready ({pool.size} warm workers)")
                return (False, "not ready: worker pool is cold")

            self._endpoint = ObsEndpoint(
                lambda: self.metrics,
                health_fn=health,
                ready_fn=ready,
                host=host,
                port=port,
            ).start()
        return self._endpoint

    def close(self) -> None:
        """Shut down the rebuild backend and HTTP endpoint (idempotent)."""
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "CubeService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- serving -------------------------------------------------------------------

    def execute(self, query: GroupByQuery | CanonicalQuery) -> QueryResult:
        """Answer one query through the cache; a miss is a group of one."""
        cq = self.canonicalize(query)
        tag = self.cube.refreshes
        result = self.cache.get(cq, tag)
        if result is None:
            if self.tracer.enabled:
                with self.tracer.span("serve.batch", cat="serve", queries=1, misses=1):
                    (result,), _ = self.engine.answer(self.compile(cq), [cq])
            else:
                (result,), _ = self.engine.answer(self.compile(cq), [cq])
            cells = result.cells_scanned
            self._absorb_report(BatchReport(1, 1, 1, 0, cells, cells))
            self._keep([cq], [result], tag)
        return self._serve([result])[0]

    def execute_batch(
        self, queries: Sequence[GroupByQuery | CanonicalQuery]
    ) -> list[QueryResult]:
        """Answer many queries with shared passes and the result cache.

        Cache hits cost zero cube cells; misses are deduplicated, grouped
        by compiled shape, answered via :func:`repro.serve.batch.run_batch`,
        and inserted into the cache.  Results are positional and
        bit-identical to per-query execution.
        """
        canonical = [self.canonicalize(q) for q in queries]
        tag = self.cube.refreshes
        results = [self.cache.get(cq, tag) for cq in canonical]
        miss_indices = [i for i, r in enumerate(results) if r is None]
        if miss_indices:
            miss_queries = [canonical[i] for i in miss_indices]
            if self.tracer.enabled:
                with self.tracer.span("serve.batch", cat="serve", queries=len(canonical),
                                      misses=len(miss_queries)):
                    answers, report = run_batch(self.engine, miss_queries, compile=self.compile)
            else:
                answers, report = run_batch(self.engine, miss_queries, compile=self.compile)
            self._absorb_report(report)
            for i, result in zip(miss_indices, answers):
                results[i] = result
            self._keep(miss_queries, answers, tag)
        return self._serve(results)  # type: ignore[arg-type]

    def _keep(
        self, queries: list[CanonicalQuery], answers: list[QueryResult], tag: int
    ) -> None:
        """Make answers read-only (cache hits and a batch's duplicates share
        them); cache those computed at refresh count ``tag`` -- unless a refresh
        committed meanwhile; one that commits later is caught by the tag."""
        for result in answers:
            if not isinstance(result.values, float):
                result.values.flags.writeable = False
        if self.cube.refreshes == tag:
            for cq, result in zip(queries, answers):
                self.cache.put(cq, result, tag)

    def _serve(self, results: list[QueryResult]) -> list[QueryResult]:
        """Count the served queries; flag them in degraded mode."""
        self._queries.inc(len(results))
        self._batches.inc()
        if self._stale:
            # Degraded mode: flag copies, never the cached entries -- the
            # cache outlives the degradation and must stay unflagged.
            self._degraded_queries.inc(len(results))
            results = [replace(r, stale=True) for r in results]
        return results

    def _absorb_report(self, report: BatchReport) -> None:
        self._cells_actual.inc(report.cells_scanned_actual)
        self._cells_standalone.inc(report.cells_scanned_standalone)
        self.last_batch_report = report

    # -- introspection ----------------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction/invalidation counters of the result cache."""
        return self.cache.stats

    def describe(self) -> str:
        """One-paragraph summary of what the service has done so far."""
        s = self.cache.stats
        mode = " [DEGRADED: serving stale results]" if self._stale else ""
        return (
            f"CubeService{mode}: {self.queries_served} queries in "
            f"{self.batches_executed} batches; cache "
            f"{s.hits}h/{s.misses}m ({s.hit_rate:.1%}), "
            f"{s.evictions} evictions, {s.invalidations} invalidations; "
            f"{self.cells_scanned_actual} cells scanned "
            f"(vs {self.cells_scanned_standalone} stand-alone); "
            f"{self.refreshes_seen} refreshes seen"
        )
