"""Bounded LRU cache of query results, keyed on canonical queries.

Two textually different queries that canonicalize identically (``{"time":
(0, 365)}`` vs no filter at all, a label vs its index) share one cache
entry, because :class:`repro.olap.query.CanonicalQuery` is the key.  The
cache is a plain ``OrderedDict`` LRU with hit/miss/eviction counters and
an explicit :meth:`ResultCache.invalidate` that
:class:`repro.serve.CubeService` wires to cube refreshes.

Since the :mod:`repro.obs` unification, the counters are
:class:`repro.obs.Counter` instruments (``serve.cache.hits`` etc.) living
in a :class:`repro.obs.MetricsRegistry` -- pass one in to share it with a
service; by default the cache keeps a private registry.
:class:`CacheStats` is now a *view* over those instruments: same
attributes, same values, one source of truth.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.metrics import Counter, MetricsRegistry
from repro.olap.query import CanonicalQuery, QueryResult


class CacheStats:
    """View over the cache's registry counters (hits/misses/evictions/
    invalidations), API-compatible with the old dataclass.

    Constructing one without counters (``CacheStats()``) creates private
    instruments, so standalone use keeps working.
    """

    __slots__ = ("_hits", "_misses", "_evictions", "_invalidations")

    def __init__(
        self,
        hits: Counter | None = None,
        misses: Counter | None = None,
        evictions: Counter | None = None,
        invalidations: Counter | None = None,
    ):
        self._hits = hits if hits is not None else Counter("serve.cache.hits")
        self._misses = misses if misses is not None else Counter("serve.cache.misses")
        self._evictions = (
            evictions if evictions is not None else Counter("serve.cache.evictions")
        )
        self._invalidations = (
            invalidations
            if invalidations is not None
            else Counter("serve.cache.invalidations")
        )

    @property
    def hits(self) -> int:
        """Lookups served from cache."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Lookups that fell through to the cube."""
        return self._misses.value

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound."""
        return self._evictions.value

    @property
    def invalidations(self) -> int:
        """Wholesale clears (cube refreshes / manual invalidate)."""
        return self._invalidations.value

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations})"
        )


class ResultCache:
    """LRU map from :class:`CanonicalQuery` to :class:`QueryResult`.

    ``capacity <= 0`` disables caching entirely (every lookup misses and
    nothing is stored) -- the switch benchmarks use to isolate the batched
    path from the cached path.  ``metrics`` shares a
    :class:`~repro.obs.MetricsRegistry` with the owning service; omitted,
    the cache registers its counters in a private one.
    """

    def __init__(self, capacity: int = 1024, metrics: MetricsRegistry | None = None):
        self.capacity = int(capacity)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("serve.cache.hits")
        self._misses = self.metrics.counter("serve.cache.misses")
        self._evictions = self.metrics.counter("serve.cache.evictions")
        self._invalidations = self.metrics.counter("serve.cache.invalidations")
        self.stats = CacheStats(
            self._hits, self._misses, self._evictions, self._invalidations
        )
        self._entries: OrderedDict[CanonicalQuery, tuple[QueryResult, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CanonicalQuery, tag: int = 0) -> QueryResult | None:
        """Look up ``key``, refreshing its recency; counts a hit or miss.

        An entry put under another ``tag`` (a service tags each answer with
        the cube's refresh count read before computing it) is dropped and
        the lookup misses.  So does a lookup whose entry an
        :meth:`invalidate` on another thread clears before its recency is
        refreshed: the read path takes no lock.
        """
        entry = self._entries.get(key)
        if entry is not None and entry[1] == tag:
            try:
                self._entries.move_to_end(key)
                self._hits.inc()
                return entry[0]
            except KeyError:  # invalidated since the lookup: a miss
                pass
        elif entry is not None:
            self._entries.pop(key, None)
        self._misses.inc()
        return None

    def put(self, key: CanonicalQuery, result: QueryResult, tag: int = 0) -> None:
        """Store ``result`` under ``tag``, evicting the least recently used
        on overflow.  An :meth:`invalidate` on another thread that clears
        the entries mid-put leaves them cleared."""
        if self.capacity <= 0:
            return
        self._entries[key] = (result, tag)
        try:
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()
        except KeyError:  # invalidated mid-put
            pass

    def invalidate(self) -> int:
        """Drop every entry (cube refreshed); returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        if dropped:
            self._invalidations.inc()
        return dropped
