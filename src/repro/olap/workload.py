"""Query workload generation.

View selection is only as good as its workload model.  This module
generates reproducible query mixes over a schema -- Zipf-skewed choice of
group-by sets (dashboards hammer a few views), configurable filter
probability, point vs range filters.  :func:`repro.serve.replay` runs them
(``mode="per-query"`` through a bare
:class:`~repro.olap.query.QueryEngine`) and reports the cells-scanned cost
that :mod:`repro.olap.view_selection` optimizes.

The node-frequency histogram of a generated workload feeds straight into
:func:`~repro.olap.view_selection.greedy_select_views` so the selection can
be tuned to the queries actually asked, not the uniform prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.lattice import Node, all_nodes
from repro.olap.query import GroupByQuery
from repro.olap.schema import Schema


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs for :func:`generate_workload`.

    Attributes
    ----------
    num_queries:
        How many queries to draw.
    zipf_exponent:
        Skew of the group-by popularity ranking (1.0 = mild, 2.0 = heavy).
    filter_probability:
        Chance that each *unmentioned* dimension gets a filter instead of
        being aggregated over.
    range_fraction:
        Of the filtered dimensions, the fraction getting a range filter
        (the rest get point filters).
    """

    num_queries: int = 100
    zipf_exponent: float = 1.3
    filter_probability: float = 0.3
    range_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        if not 0 <= self.filter_probability <= 1:
            raise ValueError("filter_probability must be in [0, 1]")
        if not 0 <= self.range_fraction <= 1:
            raise ValueError("range_fraction must be in [0, 1]")
        if self.zipf_exponent <= 1.0:
            raise ValueError("zipf_exponent must exceed 1.0")


def generate_workload(
    schema: Schema,
    spec: WorkloadSpec | None = None,
    seed: int = 0,
) -> list[GroupByQuery]:
    """Draw a reproducible list of queries over ``schema``."""
    spec = spec or WorkloadSpec()
    rng = np.random.default_rng(seed)
    n = len(schema.dimensions)
    # Popularity ranking of proper group-by sets: smaller sets first (real
    # dashboards mostly ask coarse questions), permuted deterministically.
    candidates = sorted(
        (nd for nd in all_nodes(n) if len(nd) < n),
        key=lambda nd: (len(nd), nd),
    )
    queries: list[GroupByQuery] = []
    for _ in range(spec.num_queries):
        rank = int(rng.zipf(spec.zipf_exponent)) - 1
        node = candidates[min(rank, len(candidates) - 1)]
        group_by = tuple(schema.names[d] for d in node)
        where: dict[str, object] = {}
        for d in range(n):
            if d in node:
                continue
            if rng.uniform() < spec.filter_probability:
                dim = schema.dimensions[d]
                if rng.uniform() < spec.range_fraction and dim.size > 1:
                    lo = int(rng.integers(0, dim.size))
                    hi = int(rng.integers(lo + 1, dim.size + 1))
                    where[dim.name] = (lo, hi)
                else:
                    idx = int(rng.integers(0, dim.size))
                    if dim.labels is not None and any(
                        not isinstance(lbl, str) for lbl in dim.labels
                    ):
                        # Integer-labeled dimension: a bare int would be
                        # read as a *label*; use the positional escape
                        # hatch (canonicalizes to the same point filter).
                        where[dim.name] = (idx, idx + 1)
                    else:
                        where[dim.name] = idx
        queries.append(GroupByQuery(group_by=group_by, where=where))
    return queries


def workload_node_frequencies(
    schema: Schema, queries: Sequence[GroupByQuery]
) -> dict[Node, float]:
    """Normalized histogram of the group-by sets a workload touches.

    A query's *mentioned* dimensions (group-bys and filters) determine the
    node that answers it; this is the frequency map view selection needs.
    """
    n = len(schema.dimensions)
    counts: dict[Node, float] = {}
    for q in queries:
        node = schema.node_of(q.mentioned())
        if len(node) == n:
            # Mentions every dimension: only the base array answers it, so
            # it cannot influence view selection.
            continue
        counts[node] = counts.get(node, 0.0) + 1.0
    total = sum(counts.values())
    if total:
        counts = {nd: c / total for nd, c in counts.items()}
    return counts
