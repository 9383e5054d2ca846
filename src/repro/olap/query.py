"""Group-by queries answered from materialized views.

A warehouse answers a query from the *smallest materialized view that
covers it* -- with a fully materialized cube that is the exact group-by
over the query's mentioned dimensions; with a partially materialized cube
(see :mod:`repro.olap.view_selection`) it may be a strict superset, with
the extra dimensions aggregated on the fly; failing everything, the base
fact array.

The evaluation pipeline is deliberately split into two canonical steps --
(1) reduce the serving view onto the query's *mentioned* dimensions, then
(2) filter/keep/reduce those dimensions -- with every multi-axis reduction
executed one axis at a time in descending axis order, using the cube
measure's roll-up (a sum for SUM and COUNT cubes, a min/max for MIN/MAX
ones; :func:`rollup_axes_descending`).  That fixed decomposition is
what lets :mod:`repro.serve` share step 1 across a batch of queries and
still return results **bit-identical** to the one-at-a-time path: numpy's
tuple-axis ``sum`` groups additions differently, but per-axis reductions
commute bitwise with point/range selection on other axes.

:class:`QueryEngine` resolves covers, applies point/range filters, and
reports which view served each query and how many cells were scanned --
the cost model view selection optimizes.  :class:`QueryEngine.execute`
returns a structured :class:`QueryResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.arrays.aggregate import aggregate_sparse_to_dense
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, get_measure
from repro.arrays.sparse import SparseArray
from repro.core.lattice import Node, node_size
from repro.olap.cube import DataCube
from repro.olap.schema import Dimension

BASE = ("<base>",)


@dataclass(frozen=True)
class GroupByQuery:
    """The cube's measure, grouped by ``group_by``, filtered by ``where``.

    ``where`` maps dimension name -> member index, label, or ``(lo, hi)``
    half-open index range.  See :func:`resolve_filter` for how values are
    normalized (including integer-labeled dimensions).
    """

    group_by: tuple[str, ...] = ()
    where: Mapping[str, object] = field(default_factory=dict)

    def mentioned(self) -> tuple[str, ...]:
        """Dimension names the query groups by or filters on, in order."""
        return tuple(dict.fromkeys(tuple(self.group_by) + tuple(self.where)))


def resolve_filter(dim: Dimension, value: object) -> int | tuple[int, int]:
    """Normalize one ``where`` value to a member index or half-open range.

    The single place where filter values are interpreted:

    - a ``str`` is a member label (requires a labeled dimension);
    - a ``(lo, hi)`` tuple is a half-open *index* range, bounds-checked;
    - an ``int`` is a member index -- **unless** the dimension is
      integer-labeled (its labels are not strings, e.g. years ``(2001,
      2002, ...)``), in which case the int is looked up as a *label*.
      Labels win because positional indices are ambiguous on such
      dimensions; use a width-1 range ``(i, i + 1)`` for positional
      access.
    """
    if isinstance(value, str):
        return int(dim.index_of(value))
    if isinstance(value, tuple):
        if len(value) != 2:
            raise ValueError(f"range filter must be (lo, hi), got {value!r}")
        lo, hi = int(value[0]), int(value[1])
        if not 0 <= lo <= hi <= dim.size:
            raise ValueError(f"range {value} out of bounds for {dim.name!r}")
        return (lo, hi)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"filter on {dim.name!r} must be a label, index, or (lo, hi) "
            f"range, got {value!r}"
        )
    idx = int(value)
    if dim.labels is not None and any(
        not isinstance(lbl, str) for lbl in dim.labels
    ):
        # Integer-labeled dimension: ints are member labels, never indices.
        try:
            return dim.labels.index(idx)
        except ValueError:
            raise KeyError(
                f"no member {idx!r} in integer-labeled dimension "
                f"{dim.name!r}; use a (lo, hi) range for positional access"
            ) from None
    if not 0 <= idx < dim.size:
        raise ValueError(f"index {idx} out of bounds for {dim.name!r}")
    return idx


@dataclass(frozen=True)
class CanonicalQuery:
    """A :class:`GroupByQuery` normalized to hashable dimension-index form.

    Canonicalization resolves names and labels to indices, sorts and
    dedups, drops no-op full-range filters, folds width-1 ranges on
    non-grouped dimensions into point filters, and removes point-filtered
    dimensions from ``group_by`` (a point filter collapses the axis either
    way).  Two queries with the same canonical form have bit-identical
    answers, which is what makes this the result-cache key.
    """

    group_by: Node = ()
    point_filters: tuple[tuple[int, int], ...] = ()
    range_filters: tuple[tuple[int, int, int], ...] = ()

    @cached_property
    def mentioned(self) -> Node:
        """Sorted dimensions the query touches (group-bys and filters).

        Cached: the dataclass is frozen, and the serving hot path asks
        several times per query.
        """
        dims = set(self.group_by)
        dims.update(d for d, _ in self.point_filters)
        dims.update(d for d, _, _ in self.range_filters)
        return tuple(sorted(dims))


def canonicalize_query(schema, query: GroupByQuery) -> CanonicalQuery:
    """Normalize a query against ``schema`` (the one place filters resolve).

    Raises the same errors as direct execution would: ``KeyError`` for
    unknown dimensions/labels, ``ValueError`` for out-of-range filters or
    a group-by covering every dimension.
    """
    n = len(schema.dimensions)
    group_dims = {schema.index(nm) for nm in query.group_by}
    if len(group_dims) == n:
        raise ValueError(
            "grouping by every dimension reproduces the base array; "
            "read it directly"
        )
    if not query.where:
        return CanonicalQuery(group_by=tuple(sorted(group_dims)))
    points: dict[int, int] = {}
    ranges: dict[int, tuple[int, int]] = {}
    for name, value in query.where.items():
        d = schema.index(name)
        dim = schema.dimensions[d]
        resolved = resolve_filter(dim, value)
        if isinstance(resolved, tuple):
            lo, hi = resolved
            if (lo, hi) == (0, dim.size):
                continue  # selects every member: a no-op
            if hi == lo + 1 and d not in group_dims:
                points[d] = lo  # width-1 range, axis dropped either way
            else:
                ranges[d] = (lo, hi)
        else:
            points[d] = resolved
    # A point filter collapses the axis whether or not it is grouped.
    group_dims -= set(points)
    return CanonicalQuery(
        group_by=tuple(sorted(group_dims)),
        point_filters=tuple(sorted(points.items())),
        range_filters=tuple(
            (d, lo, hi) for d, (lo, hi) in sorted(ranges.items())
        ),
    )


#: A query-layer reduction: ``(data, axes) -> data`` reduced over ``axes``.
AxisReduce = Callable[[np.ndarray, Sequence[int]], np.ndarray]


def rollup_axes_descending(measure: Measure | str) -> AxisReduce:
    """The query layer's reduction for a cube of ``measure``.

    A cube cell already holds an aggregate, so a query rolls cells up with
    the measure's :attr:`~repro.arrays.measures.Measure.rollup` (MIN and
    MAX with themselves, SUM and COUNT with SUM), one axis at a time,
    highest axis first.  That fixed order (instead of one tuple-axis
    reduction) is what makes shared batch passes bit-identical to
    stand-alone execution: per-axis reductions commute bitwise with
    selection on the remaining axes.
    """
    rollup = get_measure(measure).rollup

    def reduce(data: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        for ax in sorted(axes, reverse=True):
            data = rollup.reduce_dense(data, (ax,))
        return data

    return reduce


def finish_from_partial(
    data: np.ndarray,
    mentioned: Node,
    cq: CanonicalQuery,
    reduce: AxisReduce,
) -> tuple[np.ndarray | float, int]:
    """Step 2 of evaluation: filter/keep/reduce a mentioned-dims partial.

    ``data`` has one axis per dimension in ``mentioned`` (sorted);
    ``reduce`` is the cube's :func:`rollup_axes_descending`.
    Returns ``(values, cells_scanned)`` where ``cells_scanned`` is the
    size of the indexed sub-array.
    """
    points = dict(cq.point_filters)
    ranges = {d: (lo, hi) for d, lo, hi in cq.range_filters}
    grouped = set(cq.group_by)
    index: list[object] = []
    sum_axes: list[int] = []
    kept = 0
    for d in mentioned:
        if d in points:
            index.append(points[d])
        elif d in ranges:
            lo, hi = ranges[d]
            index.append(slice(lo, hi))
            if d not in grouped:
                sum_axes.append(kept)
            kept += 1
        else:
            index.append(slice(None))
            kept += 1
    sub = np.asarray(data)[tuple(index)]
    cells = int(sub.size)
    out = reduce(sub, sum_axes)
    if isinstance(out, np.ndarray) and out.ndim > 0:
        if out.base is not None:
            out = out.copy()  # never alias the cube's own storage
        return out, cells
    return float(out), cells


def scan_cells_after_reduce(schema, cq: CanonicalQuery) -> int:
    """Size of the sub-array step 2 scans (the arithmetic form).

    Equals the ``cells_scanned`` that :func:`finish_from_partial` reports,
    without touching any data -- used by the batch path to attribute a
    stand-alone cost to results it computed via shared passes.
    """
    points = {d for d, _ in cq.point_filters}
    ranges = {d: hi - lo for d, lo, hi in cq.range_filters}
    cells = 1
    for d in cq.mentioned:
        if d in points:
            continue
        cells *= ranges.get(d, schema.dimensions[d].size)
    return cells


@dataclass
class QueryResult:
    """Structured outcome of one group-by query.

    Attributes
    ----------
    values:
        The aggregate values (an ``ndarray`` over the kept group-by
        dimensions in schema order, or a scalar ``float``).
    served_by:
        Dimension names of the materialized view that answered, or
        :data:`BASE` when the base fact array did.
    cells_scanned:
        Cells read from the serving view/base to answer this query
        stand-alone (shared batch passes may have paid less; see
        :class:`repro.serve.CubeService`).
    is_fallback:
        True when no materialized view covered the query and the base
        fact array answered it.
    stale:
        True when the answer was served by a :class:`~repro.serve.CubeService`
        in degraded mode: a rebuild/refresh failed, so the value reflects
        the cube *before* the failed refresh.  Correct as of that older
        cube -- flagged so consumers can surface the staleness.
    """

    values: np.ndarray | float
    served_by: tuple[str, ...]
    cells_scanned: int
    is_fallback: bool = False
    stale: bool = False


class QueryEngine:
    """Answers :class:`GroupByQuery` objects from a :class:`DataCube`."""

    def __init__(self, cube: DataCube):
        self.cube = cube
        self.queries_answered = 0
        self.total_cells_scanned = 0
        #: The cube's measure, and the reduction its queries roll up with.
        self.measure = get_measure(cube.measure_name)
        self.reduce_axes = rollup_axes_descending(self.measure)

    # -- canonical pipeline --------------------------------------------------------

    def canonicalize(self, query: GroupByQuery) -> CanonicalQuery:
        """Normalize ``query`` against this engine's schema."""
        return canonicalize_query(self.cube.schema, query)

    def resolve_cover(self, mentioned: Node) -> Node | None:
        """Smallest materialized view containing ``mentioned``.

        ``None`` means only the base fact array can answer (the query
        mentions every dimension, or no materialized view covers it).
        """
        shape = self.cube.schema.shape
        if len(mentioned) == len(self.cube.schema.dimensions):
            return None
        best: Node | None = None
        best_size = None
        q = set(mentioned)
        for v in self.cube.aggregates:
            if q <= set(v):
                size_v = node_size(v, shape)
                if best_size is None or (size_v, v) < (best_size, best):
                    best, best_size = v, size_v
        return best

    def _base_group_by(self, node: Node) -> DenseArray:
        """Aggregate the base facts onto ``node`` with the cube's measure
        (last resort)."""
        base = self.cube.base
        if base is None:
            raise LookupError(
                "no materialized view covers the query and the base array "
                "was not kept (build with keep_base=True)"
            )
        n = len(self.cube.schema.dimensions)
        if isinstance(base, SparseArray):
            return aggregate_sparse_to_dense(
                base, tuple(range(n)), node, measure=self.measure
            )
        from repro.arrays.aggregate import aggregate_dense

        return aggregate_dense(base, node, measure=self.measure)

    def reduce_to_mentioned(
        self, cover: Node | None, mentioned: Node
    ) -> tuple[np.ndarray, int]:
        """Step 1 of evaluation: project the serving view onto ``mentioned``.

        Returns ``(data, cells_scanned)`` where ``data`` has one axis per
        mentioned dimension and ``cells_scanned`` is the cost of the
        projection (zero when the cover is exactly the mentioned node).
        This is the pass :class:`repro.serve.CubeService` shares across a
        batch.
        """
        if cover is None:
            base = self.cube.base
            arr = self._base_group_by(mentioned)
            cells = base.nnz if isinstance(base, SparseArray) else base.size
            return arr.data, int(cells)
        arr = self.cube.aggregates[cover]
        mset = set(mentioned)
        axes = [i for i, d in enumerate(arr.dims) if d not in mset]
        if not axes:
            return arr.data, 0
        return self.reduce_axes(arr.data, axes), arr.size

    # -- answering ------------------------------------------------------------------

    def execute(self, query: GroupByQuery | CanonicalQuery) -> QueryResult:
        """Answer from the cheapest cover; falls back to the base array."""
        cq = (
            query
            if isinstance(query, CanonicalQuery)
            else self.canonicalize(query)
        )
        mentioned = cq.mentioned
        cover = self.resolve_cover(mentioned)
        data, reduce_cells = self.reduce_to_mentioned(cover, mentioned)
        values, finish_cells = finish_from_partial(data, mentioned, cq, self.reduce_axes)
        cells = reduce_cells + finish_cells
        served = BASE if cover is None else self.cube.schema.names_of(cover)
        self.queries_answered += 1
        self.total_cells_scanned += cells
        return QueryResult(values, served, cells, is_fallback=cover is None)

    def execute_many(
        self, queries: Sequence[GroupByQuery | CanonicalQuery]
    ) -> list[QueryResult]:
        """Execute queries one at a time (no shared passes or caching).

        The per-query baseline; use :class:`repro.serve.CubeService` for
        cached, batched serving.
        """
        return [self.execute(q) for q in queries]
