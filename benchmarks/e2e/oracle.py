"""Independent numpy oracle: answers recomputed from the raw facts.

Shares no code with ``repro``.  Measures are integer-valued floats, so
every sum is exact and results must match bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def proper_nodes(n: int):
    """Every group-by a full cube materializes: all proper subsets of the dims."""
    return [node for k in range(n) for node in combinations(range(n), k)]


def group_by(shape, coords, values, node) -> np.ndarray:
    """Sum of ``values`` grouped by the dimensions in ``node`` (sorted)."""
    out_shape = tuple(shape[d] for d in node)
    index = np.zeros(coords.shape[0], dtype=np.int64)
    for d in node:
        index = index * shape[d] + coords[:, d]
    flat = np.bincount(index, weights=values, minlength=int(np.prod(out_shape, dtype=np.int64)))
    return flat.reshape(out_shape)


def cube(shape, coords, values) -> dict:
    """Every proper group-by: the n largest from the facts, the rest by
    summing one axis of an already computed one (exact on integer values)."""
    n = len(shape)
    out: dict = {}
    for node in sorted(proper_nodes(n), key=len, reverse=True):
        if len(node) == n - 1:
            out[node] = group_by(shape, coords, values, node)
        else:
            extra = next(d for d in range(n) if d not in node)
            parent = tuple(sorted(node + (extra,)))
            out[node] = out[parent].sum(axis=parent.index(extra))
    return out


def add_facts(cuboids: dict, shape, coords, values) -> None:
    """Absorb more facts into an oracle cube, in place."""
    for node, arr in cube(shape, coords, values).items():
        cuboids[node] += arr


def mismatches(got: dict, want: dict) -> list:
    """Nodes on which two cubes differ (missing, extra, or unequal)."""
    bad = [node for node in want if node not in got or not np.array_equal(got[node], want[node])]
    return bad + [node for node in got if node not in want]


def answer(shape, coords, values, query) -> np.ndarray:
    """One ``(group_by, where)`` query answered from the raw facts."""
    dims, where = query
    mask = np.ones(coords.shape[0], dtype=bool)
    for d, f in where.items():
        lo, hi = f if isinstance(f, tuple) else (f, f + 1)
        mask &= (coords[:, d] >= lo) & (coords[:, d] < hi)
    return group_by(shape, coords[mask], values[mask], dims)
