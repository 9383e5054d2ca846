"""Bottom-Up Computation (BUC) of iceberg cubes.

BUC (Beyer & Ramakrishnan, SIGMOD '99) computes, for every group-by, only
the cells whose *support* -- the number of contributing facts -- reaches
``minsup``.  It recurses from the coarsest cell (``all``) toward finer
group-bys, partitioning the fact rows on one dimension at a time; because
support is monotone (a cell's support bounds every refinement's), a
partition below ``minsup`` prunes its entire subtree.  On sparse data this
skips the vast majority of the cube.

The recursion over dimension order here emits, for fixed dimensions
``d_{i1} < d_{i2} < ...``, every group-by that is a *suffix-extension*
chain; starting the loop at each dimension in turn covers every subset of
dimensions exactly once (the classic BUC enumeration).

Verification oracle: :func:`iceberg_from_full_cube` computes the full SUM
and COUNT cubes with the paper's constructor and filters by support --
exactly what BUC must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray
from repro.core.lattice import Node


@dataclass
class IcebergCube:
    """Sparse cube: per node, only the cells with support >= minsup.

    ``cells[node]`` maps a coordinate tuple (over the node's dimensions,
    ascending) to ``(aggregate, support)``.
    """

    shape: tuple[int, ...]
    minsup: int
    measure_name: str
    cells: dict[Node, dict[tuple[int, ...], tuple[float, int]]] = field(
        default_factory=dict
    )

    def num_cells(self) -> int:
        return sum(len(c) for c in self.cells.values())

    def get(self, node: Sequence[int], coords: Sequence[int]) -> tuple[float, int]:
        """Aggregate and support of one cell; KeyError if below minsup."""
        return self.cells[tuple(node)][tuple(coords)]

    def nodes(self) -> list[Node]:
        return sorted(self.cells, key=lambda nd: (len(nd), nd))


def buc_iceberg(
    array: SparseArray,
    minsup: int,
    measure: Measure | str = SUM,
) -> IcebergCube:
    """Run BUC over a sparse fact array.

    ``minsup`` is the minimum number of facts per emitted cell (>= 1).
    The measure aggregates the facts' values; support pruning is always on
    COUNT (the monotone anti-monotone constraint).
    """
    measure = get_measure(measure)
    if minsup < 1:
        raise ValueError("minsup must be at least 1")
    shape = tuple(array.shape)
    n = len(shape)
    coords, values = array.all_coords_values()
    out = IcebergCube(shape=shape, minsup=minsup, measure_name=measure.name)

    def aggregate(vals: np.ndarray) -> float:
        if not vals.size:
            return measure.identity
        return float(measure.scatter(None, np.zeros(vals.size, dtype=np.int64), vals, 1)[0])

    def emit(node: Node, cell: tuple[int, ...], rows: np.ndarray) -> None:
        out.cells.setdefault(node, {})[cell] = (
            aggregate(values[rows]),
            int(rows.size),
        )

    def rec(rows: np.ndarray, start_dim: int, node: Node, cell: tuple[int, ...]) -> None:
        emit(node, cell, rows)
        for d in range(start_dim, n):
            col = coords[rows, d]
            order = np.argsort(col, kind="stable")
            sorted_rows = rows[order]
            sorted_col = col[order]
            # Group boundaries of equal coordinates.
            bounds = np.flatnonzero(np.diff(sorted_col)) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [sorted_col.size]))
            for lo, hi in zip(starts, ends):
                if hi - lo >= minsup:
                    sub = sorted_rows[lo:hi]
                    rec(
                        sub,
                        d + 1,
                        tuple(sorted(node + (d,))),
                        cell + (int(sorted_col[lo]),),
                    )

    all_rows = np.arange(coords.shape[0], dtype=np.int64)
    if all_rows.size >= minsup:
        rec(all_rows, 0, (), ())
    return out


def iceberg_from_full_cube(
    array: SparseArray,
    minsup: int,
    measure: Measure | str = SUM,
) -> IcebergCube:
    """Oracle: full SUM/COUNT cubes filtered by support.

    Exponentially more work than BUC on sparse data (it materializes every
    dense aggregate) -- exists to verify BUC and to quantify its pruning.
    Includes the finest (all-dimensions) group-by, which BUC also emits.
    """
    from repro.arrays.aggregate import aggregate_sparse_to_dense

    measure = get_measure(measure)
    if minsup < 1:
        raise ValueError("minsup must be at least 1")
    shape = tuple(array.shape)
    n = len(shape)
    out = IcebergCube(shape=shape, minsup=minsup, measure_name=measure.name)
    from repro.core.lattice import all_nodes

    for node in all_nodes(n):
        agg = aggregate_sparse_to_dense(
            array, tuple(range(n)), node, measure=measure
        )
        cnt = aggregate_sparse_to_dense(
            array, tuple(range(n)), node, measure="count"
        )
        mask = cnt.data >= minsup
        if not np.any(mask):
            continue
        cells: dict[tuple[int, ...], tuple[float, int]] = {}
        for idx in np.argwhere(mask):
            key = tuple(int(i) for i in idx)
            cells[key] = (float(agg.data[tuple(idx)]), int(cnt.data[tuple(idx)]))
        out.cells[node] = cells
    return out


def pruning_ratio(iceberg: IcebergCube) -> float:
    """Fraction of the *full* cube's cells the iceberg kept (diagnostic).

    The denominator counts every cell of every group-by (including the
    finest), so the ratio is comparable across minsup values.
    """
    from repro.core.lattice import all_nodes, node_size

    n = len(iceberg.shape)
    total = sum(node_size(nd, iceberg.shape) for nd in all_nodes(n))
    return iceberg.num_cells() / total if total else 0.0
