"""Aggregate measures: the operators a data cube can materialize.

Gray et al.'s cube operator (the paper's reference [5]) classifies
aggregates as *distributive* (SUM, COUNT, MIN, MAX -- partials combine
directly), *algebraic* (AVG -- a finite tuple of distributive components
plus a finalizer), and holistic (not supported by partial aggregation).
The paper's algorithms work for any distributive measure: local aggregation
produces partials, reduce-to-lead combines them elementwise.  This module
defines the measure abstraction used by the kernels
(:mod:`repro.arrays.aggregate`), the constructors, and the reductions.

Sparse semantics: the sparse format stores only *facts* (non-zero cells);
aggregation ranges over facts, so a group with no facts takes the measure's
identity (0 for SUM/COUNT, +inf/-inf for MIN/MAX).  Dense inputs treat
every cell as a fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np


@dataclass(frozen=True)
class Measure:
    """A distributive aggregate.

    Attributes
    ----------
    name:
        Registry key (``"sum"``, ``"count"``, ...).
    identity:
        Value of an empty group; also the fill for fresh partials.
    op:
        The element-wise binary ufunc that folds one value into a cell
        (``np.add`` for SUM and COUNT, ``np.minimum`` / ``np.maximum``);
        ``op.at`` folds facts in place in index order.
    reduce_dense:
        ``(data, axes) -> ndarray``: aggregate a dense array over ``axes``
        (empty ``axes`` returns a copy).
    scatter:
        ``(acc, idx, values, size) -> acc``: fold fact ``values`` into the
        1-d accumulator of ``size`` cells at positions ``idx`` (repeats
        allowed) and return it.  ``acc`` is ``None`` before the first fold:
        SUM and COUNT then return their ``bincount`` itself, MIN and MAX an
        identity-filled array updated in place.
    transform_values:
        Optional map applied to fact values before scattering (COUNT maps
        everything to 1).
    """

    name: str
    identity: float
    op: np.ufunc
    reduce_dense: Callable[[np.ndarray, tuple], np.ndarray]
    scatter: Callable[[np.ndarray | None, np.ndarray, np.ndarray, int], np.ndarray]
    transform_values: Callable[[np.ndarray], np.ndarray] | None = None
    rollup_name: str | None = None

    def new_accumulator(self, size: int, dtype=np.float64) -> np.ndarray:
        return np.full(size, self.identity, dtype=dtype)

    def combine(self, acc: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Merge partial ``other`` into ``acc`` in place with ``op``; return ``acc``."""
        self.op(acc, other, out=acc)
        return acc

    @property
    def rollup(self) -> "Measure":
        """Measure used to aggregate *already aggregated* partials.

        SUM/MIN/MAX are idempotent under roll-up; COUNT rolls up with SUM
        (counts of counts are sums).
        """
        if self.rollup_name is None:
            return self
        return MEASURES[self.rollup_name]


def _sum_reduce(data: np.ndarray, axes: tuple) -> np.ndarray:
    return data.sum(axis=axes) if axes else data.copy()


def _sum_scatter(acc, idx: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    part = np.bincount(idx, weights=values, minlength=size)
    return part if acc is None else SUM.combine(acc, part)


def _count_reduce(data: np.ndarray, axes: tuple) -> np.ndarray:
    # Dense input: every cell is a fact.
    ones = np.ones_like(data)
    return ones.sum(axis=axes) if axes else ones


def _count_scatter(acc, idx: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    part = np.bincount(idx, minlength=size)
    return part.astype(np.float64) if acc is None else SUM.combine(acc, part)


def _min_reduce(data: np.ndarray, axes: tuple) -> np.ndarray:
    return data.min(axis=axes) if axes else data.copy()


def _min_scatter(acc, idx: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    acc = MIN.new_accumulator(size) if acc is None else acc
    MIN.op.at(acc, idx, values)
    return acc


def _max_reduce(data: np.ndarray, axes: tuple) -> np.ndarray:
    return data.max(axis=axes) if axes else data.copy()


def _max_scatter(acc, idx: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    acc = MAX.new_accumulator(size) if acc is None else acc
    MAX.op.at(acc, idx, values)
    return acc


SUM = Measure(
    name="sum",
    identity=0.0,
    op=np.add,
    reduce_dense=_sum_reduce,
    scatter=_sum_scatter,
)

COUNT = Measure(
    name="count",
    identity=0.0,
    op=np.add,
    reduce_dense=_count_reduce,
    scatter=_count_scatter,
    transform_values=lambda v: np.ones_like(v),
    rollup_name="sum",
)

MIN = Measure(
    name="min",
    identity=float("inf"),
    op=np.minimum,
    reduce_dense=_min_reduce,
    scatter=_min_scatter,
)

MAX = Measure(
    name="max",
    identity=float("-inf"),
    op=np.maximum,
    reduce_dense=_max_reduce,
    scatter=_max_scatter,
)

MEASURES: Mapping[str, Measure] = {
    m.name: m for m in (SUM, COUNT, MIN, MAX)
}


def get_measure(measure: "Measure | str") -> Measure:
    """Resolve a measure or registry name to a :class:`Measure`."""
    if isinstance(measure, Measure):
        return measure
    try:
        return MEASURES[measure]
    except KeyError:
        raise ValueError(
            f"unknown measure {measure!r}; available: {sorted(MEASURES)}"
        ) from None


def finalize_average(
    sums: np.ndarray, counts: np.ndarray, empty: float = np.nan
) -> np.ndarray:
    """AVG, the canonical algebraic measure: SUM/COUNT with empty groups
    mapped to ``empty`` (NaN by default)."""
    sums = np.asarray(sums, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    out = np.full_like(sums, empty, dtype=np.float64)
    np.divide(sums, counts, out=out, where=counts > 0)
    return out
