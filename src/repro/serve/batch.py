"""Batched query execution: shared reduction passes + vectorized gathers.

One pass over a materialized view can serve every query in a batch that
mentions the same dimensions.  :func:`run_batch` exploits that in three
layers, each preserving **bit-identical** results with the one-query-at-a-
time path of :meth:`repro.olap.query.QueryEngine.execute`:

1. *Dedup*: repeated canonical queries are computed once.
2. *Shared partials*: all queries with the same ``(cover, mentioned)``
   share one step-1 pass (:meth:`~repro.olap.query.QueryEngine.partial`,
   the expensive part -- it scans the whole serving view).
3. *Vectorized gathers*: queries of one shape with equal range filters
   are finished together by :meth:`~repro.olap.query.QueryEngine.answer`
   -- one advanced-indexing gather of shape ``(G, ...)`` instead of ``G``
   separate indexing calls.  A single query is a group of one.

Bit-identity holds because layer 2 uses the same per-axis descending sums
as the stand-alone path and layers 1/3 are pure selection, which commutes
bitwise with those sums (see :mod:`repro.olap.query`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.lattice import Node
from repro.olap.query import (
    CanonicalQuery,
    Partial,
    QueryEngine,
    QueryResult,
    QueryShape,
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


def run_batch(
    engine: QueryEngine,
    canonical: Sequence[CanonicalQuery],
    compile: Callable[[CanonicalQuery], QueryShape] | None = None,
) -> tuple[list[QueryResult], BatchReport]:
    """Execute canonical queries with shared passes; results positional.

    ``compile`` lets a caller inject a memoized shape compiler
    (:class:`repro.serve.CubeService` does); defaults to the engine's.
    Each result's ``cells_scanned`` is the *stand-alone* cost -- identical
    to what :meth:`QueryEngine.execute` reports for the same query -- while
    the report's ``cells_scanned_actual`` reflects the sharing.
    """
    compile = compile or engine.compile
    unique = dict.fromkeys(canonical)
    report = BatchReport(queries=len(canonical), unique_queries=len(unique))

    groups: dict[tuple, list[CanonicalQuery]] = {}
    for cq in unique:
        groups.setdefault((cq.shape, cq.range_filters), []).append(cq)

    # One step-1 pass per (cover, mentioned), shared by every group that
    # reads it; a base fallback aggregates each group's own box, and is
    # charged like the one full pass it replaces.
    partials: dict[tuple[Node | None, Node], Partial] = {}
    answers: dict[CanonicalQuery, QueryResult] = {}
    for group in groups.values():
        shape = compile(group[0])
        pass_key = (shape.cover, shape.mentioned)
        partial = None if shape.is_fallback else partials.get(pass_key)
        if partial is None:
            partial = engine.partial(shape, group)
            if pass_key not in partials:
                partials[pass_key] = partial
                report.shared_passes += 1
                report.cells_scanned_actual += partial[2]
        if len(group) > 1:
            report.vectorized_groups += 1
        results, cells = engine.answer(shape, group, partial)
        report.cells_scanned_actual += cells
        answers.update(zip(group, results))
    results = [answers[cq] for cq in canonical]
    report.cells_scanned_standalone = sum(r.cells_scanned for r in results)
    return results, report
