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

:class:`QueryEngine` compiles a query's shape into a :class:`QueryShape`
(its cover and the axes each step reads), runs step 1
(:meth:`~QueryEngine.partial`), and finishes every answer, alone or in a
gathered group, with step 2 (:meth:`~QueryEngine.answer`), reporting which
view served it and how many cells were scanned -- the cost model view
selection optimizes.  :class:`QueryEngine.execute` returns a structured
:class:`QueryResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_to_dense
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
      its bounds are ints like a point index (never ``bool`` or ``float``);
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
        lo, hi = value
        if (
            isinstance(lo, bool)
            or isinstance(hi, bool)
            or not isinstance(lo, (int, np.integer))
            or not isinstance(hi, (int, np.integer))
        ):
            raise TypeError(
                f"range filter on {dim.name!r} must be (lo, hi) member "
                f"indices, got {value!r}"
            )
        lo, hi = int(lo), int(hi)
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


@dataclass(frozen=True, slots=True)
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
    #: Sorted dimensions the query touches (group-bys and filters).
    mentioned: Node = field(init=False, repr=False, compare=False)
    #: ``(group_by, point-filter dims, range-filter dims)``: every query of
    #: one shape is answered through one :class:`QueryShape`.
    shape: tuple[Node, Node, Node] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = tuple([f[0] for f in self.point_filters])
        ranges = tuple([f[0] for f in self.range_filters])
        dims = sorted({*self.group_by, *points, *ranges})
        object.__setattr__(self, "mentioned", tuple(dims))
        object.__setattr__(self, "shape", (self.group_by, points, ranges))


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


class QueryShape(NamedTuple):
    """What every query of one :attr:`CanonicalQuery.shape` shares, resolved
    once: where it is served from and which axes each step reads.

    Step 1 rolls the cover's ``cover_axes`` up (``cover_cells`` is what that
    scans; a base fallback reads the base instead).  Step 2 indexes the
    mentioned axes -- ``point_axes`` and ``range_axes`` are the filtered
    dimensions' positions -- and rolls up ``rollup_axes``, positions among
    the axes the points leave, in descending order.  A query scans
    ``free_cells`` times its range widths in step 2.
    """

    mentioned: Node
    cover: Node | None
    served_by: tuple[str, ...]
    cover_axes: tuple[int, ...]
    cover_cells: int
    point_axes: tuple[int, ...]
    range_axes: tuple[int, ...]
    rollup_axes: tuple[int, ...]
    free_cells: int

    @property
    def is_fallback(self) -> bool:
        """True when no materialized view covers the shape."""
        return self.cover is None


#: A step-1 result: ``(data over the mentioned axes, its origin on each,
#: cells scanned)``.
Partial = tuple[np.ndarray, tuple[int, ...], int]


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
        mentions every dimension, or no materialized view covers it).  Ties
        in size go to the smaller view tuple.
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

    def cover_shape(self, mentioned: Node, cover: Node | None) -> QueryShape:
        """The part of every compiled shape over ``mentioned`` that its
        cover fixes (served-by, rolled-up axes, step-1 cells); the filter
        fields are left empty."""
        axes: tuple[int, ...] = ()
        served, cells = BASE, 0
        if cover is not None:
            axes = tuple([i for i, d in enumerate(cover) if d not in mentioned])
            served = self.cube.schema.names_of(cover)
            cells = node_size(cover, self.cube.schema.shape) if axes else 0
        return QueryShape(mentioned, cover, served, axes, cells, (), (), (), 0)

    def compile(self, cq: CanonicalQuery, like: QueryShape | None = None) -> QueryShape:
        """Resolve the :attr:`~CanonicalQuery.shape` of ``cq`` to its
        :class:`QueryShape` (the same for every query of that shape).

        ``like``, a compiled shape of the same mentioned dimensions, lends
        its cover and step 1 instead of a new cover lookup.
        """
        group_by, points, ranges = cq.shape
        mentioned = cq.mentioned
        sizes = self.cube.schema.shape
        if like is None:
            like = self.cover_shape(mentioned, self.resolve_cover(mentioned))
        rest = [d for d in mentioned if d not in points]
        return QueryShape(
            *like[:5],
            tuple([mentioned.index(d) for d in points]),
            tuple([mentioned.index(d) for d in ranges]),
            tuple([
                i for i in range(len(rest) - 1, -1, -1)
                if rest[i] in ranges and rest[i] not in group_by
            ]),
            math.prod([sizes[d] for d in rest if d not in ranges]),
        )

    def partial(self, shape: QueryShape, group: Sequence[CanonicalQuery]) -> Partial:
        """Step 1 for ``group`` (queries of ``shape``): the cover rolled up
        onto the mentioned dimensions, or the base aggregated onto them with
        the cube's measure -- a sparse base only its facts in the group's box.
        """
        zeros = (0,) * len(shape.mentioned)
        if shape.cover is not None:
            data = self.cube.aggregates[shape.cover].data
            if shape.cover_axes:
                data = self.reduce_axes(data, shape.cover_axes)
            return data, zeros, shape.cover_cells
        base = self.cube.base
        if base is None:
            raise LookupError(
                "no materialized view covers the query and the base array "
                "was not kept (build with keep_base=True)"
            )
        if not isinstance(base, SparseArray):
            # numpy sums a slice of an array in another order than the array.
            return aggregate_dense(base, shape.mentioned, self.measure).data, zeros, base.size
        box = [(0, s) for s in base.shape]
        for j, (d, _) in enumerate(group[0].point_filters):
            at = [cq.point_filters[j][1] for cq in group]
            box[d] = (min(at), max(at) + 1)
        for d, lo, hi in group[0].range_filters:
            box[d] = (lo, hi)
        dims = tuple(range(len(box)))
        out = aggregate_sparse_to_dense(base, dims, shape.mentioned, measure=self.measure, box=box)
        return out.data, tuple(box[d][0] for d in shape.mentioned), base.nnz

    def answer(
        self,
        shape: QueryShape,
        group: Sequence[CanonicalQuery],
        partial: Partial | None = None,
    ) -> tuple[list[QueryResult], int]:
        """Step 2, the one way answers are finished: filter, keep and roll up.

        ``group`` holds queries of ``shape`` with equal range filters;
        ``partial`` is their step 1 (computed here when omitted).  One query
        is basic-indexed; several are gathered at their points in one pass.
        Returns the results and the cells step 2 scanned for all of them.
        """
        data, origin, reduce_cells = partial or self.partial(shape, group)
        first = group[0]
        index: list[object] = [slice(None)] * len(origin)
        cells = shape.free_cells
        for ax, (_, lo, hi) in zip(shape.range_axes, first.range_filters):
            index[ax] = slice(lo - origin[ax], hi - origin[ax])
            cells *= hi - lo
        if len(group) == 1:
            for ax, (_, p) in zip(shape.point_axes, first.point_filters):
                index[ax] = p - origin[ax]
            sub = data[tuple(index)]
            outs = [self.reduce_axes(sub, shape.rollup_axes) if shape.rollup_axes else sub]
        else:
            at = tuple(
                np.array([cq.point_filters[j][1] for cq in group]) - origin[ax]
                for j, ax in enumerate(shape.point_axes)
            )
            rest = [sl for ax, sl in enumerate(index) if ax not in shape.point_axes]
            moved = np.moveaxis(data, shape.point_axes, range(len(at)))
            block = moved[at][(slice(None), *rest)]  # shape (G, *rest)
            outs = self.reduce_axes(block, [ax + 1 for ax in shape.rollup_axes])
        results = []
        for out in outs:
            if isinstance(out, np.ndarray) and out.ndim > 0:
                value = out.copy() if out.base is not None else out  # never alias the cube
            else:
                value = float(out)
            results.append(
                QueryResult(value, shape.served_by, reduce_cells + cells, shape.is_fallback)
            )
        return results, cells * len(group)

    # -- answering ------------------------------------------------------------------

    def execute(self, query: GroupByQuery | CanonicalQuery) -> QueryResult:
        """Answer from the cheapest cover; falls back to the base array."""
        cq = (
            query
            if isinstance(query, CanonicalQuery)
            else self.canonicalize(query)
        )
        (result,), _ = self.answer(self.compile(cq), [cq])
        self.queries_answered += 1
        self.total_cells_scanned += result.cells_scanned
        return result

    def execute_many(
        self, queries: Sequence[GroupByQuery | CanonicalQuery]
    ) -> list[QueryResult]:
        """Execute queries one at a time (no shared passes or caching).

        The per-query baseline; use :class:`repro.serve.CubeService` for
        cached, batched serving.
        """
        return [self.execute(q) for q in queries]
