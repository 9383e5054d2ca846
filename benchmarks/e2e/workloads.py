"""Workload specs and seeded input generators (numpy only).

The program under test receives only what these functions return: raw
``(coords, values)`` fact lists and plain query tuples.  Nothing here
imports ``repro`` -- the generators of ``repro.arrays.dataset`` and
``repro.olap.workload`` are part of the system being measured, and a
change to them must not change the benchmark's inputs.

A query is ``(group_by, where)``: ``group_by`` a sorted tuple of dimension
indices, ``where`` a dict dimension index -> member index or half-open
``(lo, hi)`` index range.  ``adapter.to_queries`` turns them into
``GroupByQuery`` objects.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

NUM_RANKS = 4
#: Deltas generated per run.  The untraced pass applies the first one to a
#: fresh cube every round; the traced pass applies all three in turn.
NUM_DELTAS = 3


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    shape: tuple[int, ...]
    chunk_shape: tuple[int, ...]
    #: ``"uniform"``: ``raw_facts`` distinct cells drawn uniformly;
    #: ``"zipf"``: ``raw_facts`` facts with per-dimension Zipf coordinates,
    #: duplicates left in for the ingest to sum.
    facts: str
    raw_facts: int
    scheduler: str
    queries_drawn: int
    query_zipf: float
    filter_p: float
    keep_fallbacks: bool
    #: Minimum number of rounds (R in the README); ``--seconds`` adds more.
    rounds: int
    #: Whether ``apply_delta`` also merges the delta into the base array.
    update_base: bool = False
    zipf_a: float = 1.2


WORKLOADS: dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            name="fig7_first_level",
            why="Paper Fig 7 point (64^4, 25 % dense): partition and the "
                "first-level kernel are ~98 % of rank time, so per-fact "
                "costs show here and almost nowhere else.",
            shape=(64,) * 4,
            chunk_shape=(32,) * 4,
            facts="uniform",
            raw_facts=64 ** 4 // 4,
            scheduler="fig5",
            queries_drawn=5000,
            query_zipf=1.3,
            filter_p=0.5,
            keep_fallbacks=False,
            rounds=3,
        ),
        WorkloadSpec(
            name="wide6d_deep",
            why="16^6 at 1 %: the 63-cuboid output is 44x the input, so cost "
                "follows output cells (dense rollups, reduce, write-back, "
                "assembly, big-view scans), not facts.",
            shape=(16,) * 6,
            chunk_shape=(8,) * 6,
            facts="uniform",
            raw_facts=16 ** 6 // 100,
            scheduler="fig5",
            queries_drawn=2000,
            query_zipf=1.3,
            filter_p=0.3,
            keep_fallbacks=False,
            rounds=5,
        ),
        WorkloadSpec(
            name="dash8d_serve",
            why="8 small dimensions, 255 tiny cuboids: per-op interpreter and "
                "Python overhead dominate the build, serving is cache- and "
                "canonicalisation-bound, base fallbacks are cheap enough to keep.",
            shape=(8, 8, 6, 6, 4, 4, 3, 3),
            chunk_shape=(8, 8, 6, 6, 4, 4, 3, 3),
            facts="uniform",
            raw_facts=(8 * 8 * 6 * 6 * 4 * 4 * 3 * 3) // 10,
            scheduler="fig5",
            queries_drawn=20000,
            query_zipf=2.0,
            filter_p=0.2,
            keep_fallbacks=True,
            rounds=5,
            update_base=True,
        ),
        WorkloadSpec(
            name="zipf4d_shuffle",
            why="Skewed 64^4 facts with duplicates through the shuffle "
                "scheduler: duplicate-summing ingest, all-15-target kernel, "
                "all-to-all exchange, and the slowest rank sets the time.",
            shape=(64,) * 4,
            chunk_shape=(32,) * 4,
            facts="zipf",
            raw_facts=4_000_000,
            scheduler="shuffle",
            queries_drawn=5000,
            query_zipf=1.3,
            filter_p=0.5,
            keep_fallbacks=False,
            rounds=4,
        ),
    )
}

_SMOKE_SHAPES = {
    "fig7_first_level": ((16,) * 4, (8,) * 4),
    "wide6d_deep": ((8,) * 6, (4,) * 6),
    "dash8d_serve": ((4, 4, 3, 3, 2, 2, 2, 2),) * 2,
    "zipf4d_shuffle": ((16,) * 4, (8,) * 4),
}


def smoke(spec: WorkloadSpec) -> WorkloadSpec:
    """The same workload at a shape that finishes in seconds."""
    shape, chunk_shape = _SMOKE_SHAPES[spec.name]
    cells = int(np.prod(shape))
    if spec.facts == "zipf":
        raw = cells // 4
    else:
        raw = max(64, cells * spec.raw_facts // int(np.prod(spec.shape)))
    return replace(
        spec,
        shape=shape,
        chunk_shape=chunk_shape,
        raw_facts=raw,
        queries_drawn=min(spec.queries_drawn, 400),
        rounds=2,
    )


def _measures(rng: np.random.Generator, count: int) -> np.ndarray:
    # Integer-valued floats: every sum is exact whatever the accumulation
    # order, so bit-identity across backends is a valid check.
    return rng.integers(1, 100, size=count).astype(np.float64)


def _uniform_cells(rng, shape, count):
    # shuffle=False skips a second permutation; the sample already comes
    # out in random order.
    cells = rng.choice(int(np.prod(shape)), size=count, replace=False, shuffle=False)
    coords = np.empty((count, len(shape)), dtype=np.int64)
    for axis, column in enumerate(np.unravel_index(cells, shape)):
        coords[:, axis] = column
    return coords


def _zipf_coords(rng, shape, count, a):
    coords = np.empty((count, len(shape)), dtype=np.int64)
    for axis, s in enumerate(shape):
        coords[:, axis] = np.minimum(rng.zipf(a, size=count) - 1, s - 1)
    return coords


def generate_facts(spec: WorkloadSpec, seed: int):
    """Raw facts ``(coords (N, n) int64, values (N,) float64)``."""
    rng = np.random.default_rng([seed, 1])
    if spec.facts == "uniform":
        coords = _uniform_cells(rng, spec.shape, spec.raw_facts)
    else:
        coords = _zipf_coords(rng, spec.shape, spec.raw_facts, spec.zipf_a)
    return coords, _measures(rng, coords.shape[0])


def generate_deltas(spec: WorkloadSpec, seed: int, count: int = NUM_DELTAS):
    """``count`` batches of new facts, each 1 % of the raw fact count."""
    rng = np.random.default_rng([seed, 2])
    size = max(1, spec.raw_facts // 100)
    deltas = []
    for _ in range(count):
        if spec.facts == "uniform":
            coords = rng.integers(0, spec.shape, size=(size, len(spec.shape)))
        else:
            coords = _zipf_coords(rng, spec.shape, size, spec.zipf_a)
        deltas.append((coords, _measures(rng, size)))
    return deltas


def _zipf_quotas(count: int, exponent: float, classes: int) -> np.ndarray:
    """How many of ``count`` draws land on each of ``classes`` ranks under a
    Zipf law whose ranks beyond the last class are folded into it -- the
    expected counts, rounded by largest remainder, so the mix of group-by
    sets is the same for every seed and only order and filters vary."""
    cut = 1_000_000
    mass = np.arange(1, cut + 1, dtype=np.float64) ** -exponent
    beyond = cut ** (1 - exponent) / (exponent - 1)
    share = np.append(mass[:classes - 1], mass[classes - 1:].sum() + beyond)
    share *= count / share.sum()
    quotas = np.floor(share).astype(int)
    order = np.argsort(share - quotas)[::-1]
    quotas[order[:count - quotas.sum()]] += 1
    return quotas


def _query_shapes(spec: WorkloadSpec):
    """The workload's query mix: ``(group_by, {dim: width})`` per query, width
    0 for a point filter.  Drawn from a generator fixed by the workload, not
    by ``--seed``: what a query costs depends on its shape (which view
    answers it, how wide its ranges are), and the serving tail is steep
    enough that an independent draw per seed moved p99 by a factor of two.
    Returns ``(shapes, fallbacks_dropped)``.
    """
    rng = np.random.default_rng([zlib.crc32(spec.name.encode()), *spec.shape])
    n = len(spec.shape)
    candidates = [
        node for k in range(n) for node in combinations(range(n), k)
    ]
    quotas = _zipf_quotas(spec.queries_drawn, spec.query_zipf, len(candidates))
    shapes = []
    dropped = 0
    for c, quota in enumerate(quotas):
        group_by = candidates[c]
        for _ in range(quota):
            widths = {}
            for d in range(n):
                if d in group_by or rng.uniform() >= spec.filter_p:
                    continue
                size = spec.shape[d]
                if rng.uniform() < 0.5 and size > 1:
                    lo = int(rng.integers(0, size))
                    widths[d] = int(rng.integers(lo + 1, size + 1)) - lo
                else:
                    widths[d] = 0
            if len(group_by) + len(widths) == n and not spec.keep_fallbacks:
                dropped += 1
            else:
                shapes.append((group_by, widths))
    return shapes, dropped


def generate_queries(spec: WorkloadSpec, seed: int):
    """Seeded query list; returns ``(kept, fallbacks_dropped)``.

    Group-by sets are ranked smallest first and get Zipf-distributed shares
    of the traffic (a few coarse views take most of it); every dimension
    not grouped by is filtered with probability ``filter_p``, half points,
    half ranges.  A query that mentions every dimension can only be
    answered from the base facts; those are dropped unless the workload
    keeps them.  The seed decides the order of arrival and where each
    filter sits (which member, where the range starts).
    """
    shapes, dropped = _query_shapes(spec)
    rng = np.random.default_rng([seed, 3])
    kept = []
    for i in rng.permutation(len(shapes)):
        group_by, widths = shapes[i]
        where = {}
        for d, width in widths.items():
            size = spec.shape[d]
            if width:
                lo = int(rng.integers(0, size - width + 1))
                where[d] = (lo, lo + width)
            else:
                where[d] = int(rng.integers(0, size))
        kept.append((group_by, where))
    return kept, dropped


def describe(spec: WorkloadSpec, seed: int, nnz: int, queries_kept: int) -> dict:
    """What the results file records about one workload run."""
    return {
        "name": spec.name,
        "why": spec.why,
        "seed": seed,
        "shape": list(spec.shape),
        "chunk_shape": list(spec.chunk_shape),
        "facts": spec.facts,
        "raw_facts": spec.raw_facts,
        "nnz": nnz,
        "scheduler": spec.scheduler,
        "ranks": NUM_RANKS,
        "queries_drawn": spec.queries_drawn,
        "queries_kept": queries_kept,
        "rounds_min": spec.rounds,
    }
