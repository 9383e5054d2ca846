"""Batched query execution: shared reduction passes + vectorized gathers.

One pass over a materialized view can serve every query in a batch that
mentions the same dimensions.  :func:`run_batch` exploits that in three
layers, each preserving **bit-identical** results with the one-query-at-a-
time path of :meth:`repro.olap.query.QueryEngine.execute`:

1. *Dedup*: repeated canonical queries are computed once.
2. *Shared partials*: all queries with the same ``(cover, mentioned)``
   share one :meth:`~repro.olap.query.QueryEngine.reduce_to_mentioned`
   pass (the expensive part -- it scans the whole serving view).
3. *Vectorized gathers*: queries that differ only in their point-filter
   coordinates become one advanced-indexing gather of shape ``(G, ...)``
   instead of ``G`` separate indexing calls.

Bit-identity holds because layer 2 uses the same per-axis descending sums
as the stand-alone path and layers 1/3 are pure selection, which commutes
bitwise with those sums (see :mod:`repro.olap.query`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.lattice import Node
from repro.olap.query import (
    BASE,
    AxisReduce,
    CanonicalQuery,
    QueryEngine,
    QueryResult,
    finish_from_partial,
    scan_cells_after_reduce,
)


@dataclass
class BatchReport:
    """What one :func:`run_batch` call shared and paid.

    ``cells_scanned_actual`` counts each shared reduction pass once;
    ``cells_scanned_standalone`` is what the same queries would have cost
    executed one at a time (the per-result ``cells_scanned`` sum over
    unique queries).
    """

    queries: int = 0
    unique_queries: int = 0
    shared_passes: int = 0
    vectorized_groups: int = 0
    cells_scanned_actual: int = 0
    cells_scanned_standalone: int = 0


def _finish_group(
    data: np.ndarray,
    mentioned: Node,
    group: list[CanonicalQuery],
    reduce: AxisReduce,
) -> tuple[list[np.ndarray | float], int]:
    """Answer a point-vectorizable group in one gather.

    Every query in ``group`` shares ``(cover, mentioned, group_by,
    range_filters)`` and the same point-filter *dimensions*; only the
    point coordinates differ.  Returns per-query values plus the actual
    cells scanned by the gather.
    """
    proto = group[0]
    k = len(proto.point_filters)
    point_set = {d for d, _ in proto.point_filters}
    pos_of = {d: i for i, d in enumerate(mentioned)}
    point_positions = [pos_of[d] for d, _ in proto.point_filters]
    moved = np.moveaxis(np.asarray(data), point_positions, range(k))
    gather_index = tuple(
        np.array([cq.point_filters[j][1] for cq in group]) for j in range(k)
    )
    gathered = moved[gather_index]  # shape (G, *rest)

    rest = [d for d in mentioned if d not in point_set]
    ranges = {d: (lo, hi) for d, lo, hi in proto.range_filters}
    grouped = set(proto.group_by)
    rest_index: list[object] = [slice(None)]
    sum_axes: list[int] = []
    for i, d in enumerate(rest):
        if d in ranges:
            lo, hi = ranges[d]
            rest_index.append(slice(lo, hi))
            if d not in grouped:
                sum_axes.append(1 + i)
        else:
            rest_index.append(slice(None))
    block = gathered[tuple(rest_index)]
    cells = int(block.size)
    block = reduce(block, sum_axes)
    values: list[np.ndarray | float] = []
    for g in range(len(group)):
        out = block[g]
        if isinstance(out, np.ndarray) and out.ndim > 0:
            values.append(out.copy() if out.base is not None else out)
        else:
            values.append(float(out))
    return values, cells


def run_batch(
    engine: QueryEngine,
    canonical: Sequence[CanonicalQuery],
    resolve_cover: Callable[[Node], Node | None] | None = None,
) -> tuple[list[QueryResult], BatchReport]:
    """Execute canonical queries with shared passes; results positional.

    ``resolve_cover`` lets a caller inject a memoized cover lookup
    (:class:`repro.serve.CubeService` does); defaults to the engine's.
    Each result's ``cells_scanned`` is the *stand-alone* cost -- identical
    to what :meth:`QueryEngine.execute` reports for the same query -- while
    the report's ``cells_scanned_actual`` reflects the sharing.
    """
    resolve = resolve_cover or engine.resolve_cover
    schema = engine.cube.schema
    report = BatchReport(queries=len(canonical))

    unique: dict[CanonicalQuery, int] = {}
    order: list[CanonicalQuery] = []
    positions: list[int] = []
    for cq in canonical:
        if cq not in unique:
            unique[cq] = len(order)
            order.append(cq)
        positions.append(unique[cq])
    report.unique_queries = len(order)

    # Shared step-1 passes, one per (cover, mentioned).
    partials: dict[tuple[Node | None, Node], tuple[np.ndarray, int]] = {}
    covers: list[Node | None] = []
    for cq in order:
        mentioned = cq.mentioned
        cover = resolve(mentioned)
        covers.append(cover)
        key = (cover, mentioned)
        if key not in partials:
            partials[key] = engine.reduce_to_mentioned(cover, mentioned)
    report.shared_passes = len(partials)
    report.cells_scanned_actual = sum(c for _, c in partials.values())

    # Step 2: group point-filter lookalikes into vectorized gathers.
    groups: dict[tuple, list[int]] = {}
    for i, cq in enumerate(order):
        key = (
            covers[i],
            cq.mentioned,
            cq.group_by,
            cq.range_filters,
            tuple(d for d, _ in cq.point_filters),
        )
        groups.setdefault(key, []).append(i)

    answers: list[QueryResult | None] = [None] * len(order)
    for key, members in groups.items():
        cover, mentioned = key[0], key[1]
        data, reduce_cells = partials[(cover, mentioned)]
        served = BASE if cover is None else schema.names_of(cover)
        fallback = cover is None
        point_dims = key[4]
        if len(members) > 1 and point_dims:
            report.vectorized_groups += 1
            group = [order[i] for i in members]
            values, cells = _finish_group(data, mentioned, group, engine.reduce_axes)
            report.cells_scanned_actual += cells
            for i, val in zip(members, values):
                standalone = reduce_cells + scan_cells_after_reduce(
                    schema, order[i]
                )
                answers[i] = QueryResult(val, served, standalone, fallback)
        else:
            for i in members:
                val, cells = finish_from_partial(
                    data, mentioned, order[i], engine.reduce_axes
                )
                report.cells_scanned_actual += cells
                answers[i] = QueryResult(
                    val, served, reduce_cells + cells, fallback
                )
    results = [answers[p] for p in positions]
    report.cells_scanned_standalone = sum(r.cells_scanned for r in results)
    return results, report
