"""Every import from, and every call into, ``repro`` lives in this file.

The rest of the benchmark sees numpy arrays, plain tuples and the opaque
handles returned here, so a later PR that moves or renames something in
``src/`` has exactly one benchmark file to reason about -- and, because a
PR that claims a gain may not edit the benchmark, exactly one set of
public names it has to keep working.  Top-level ``repro`` exports are used
where they exist; parallel builds go only through
``construct_cube_parallel(data, bits, config=BuildConfig(...))`` and
``DataCube.build``, never the legacy keyword surface.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro import (
    AggregationTree,
    BuildConfig,
    CubeService,
    DataCube,
    GroupByQuery,
    MetricsRegistry,
    ProcessorGrid,
    QueryEngine,
    Schema,
    SparseArray,
    ThreadBackend,
    Tracer,
    construct_cube_parallel,
    construct_cube_sequential,
    get_backend,
    get_scheduler,
    greedy_partition,
    plan_cube,
)
from repro.arrays import BlockPartition, aggregate_dense
from repro.arrays.aggregate import aggregate_sparse_multi
from repro.core.parallel import assemble_results
from repro.olap import apply_delta

# -- arrays -----------------------------------------------------------------------


def ingest(shape, coords, values, chunk_shape):
    return SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)


def nnz(data) -> int:
    return data.nnz


def rank_slices(shape, bits):
    """The block of the fact array each rank owns, as slice tuples."""
    grid = ProcessorGrid(bits)
    partition = BlockPartition(tuple(shape), grid.parts)
    return [partition.slices(grid.label(rank)) for rank in grid.ranks()]


def extract_block(data, slices):
    return data.extract_block(slices)


def first_level_targets(n: int):
    """The n drop-one-axis children of the root, as the aggregation tree has them."""
    tree = AggregationTree(n)
    return tree.children(tree.root)


def all_targets(n: int):
    """Every group-by of the full cube: what the shuffle scheduler's map emits."""
    return list(get_scheduler("shuffle").target_nodes(n))


def kernel(data, targets):
    """One sparse pass updating every target; returns the dense results."""
    return aggregate_sparse_multi(data, tuple(range(data.ndim)), targets)


def dense_rollups(n: int, first_level_results):
    """Aggregate each first-level result onto its aggregation-tree children."""
    tree = AggregationTree(n)
    return [
        aggregate_dense(arr, child)
        for arr in first_level_results
        for child in tree.children(arr.dims)
    ]


# -- construction -----------------------------------------------------------------


def partition_bits(shape, ranks: int):
    return greedy_partition(tuple(shape), int(math.log2(ranks)))


def open_thread_pool(workers: int):
    return ThreadBackend().open(workers=workers)


def build_serial(data):
    return construct_cube_sequential(data)


def build_parallel(data, bits, backend, scheduler, trace=False):
    """``backend`` is a registered name (cold) or an opened instance (warm)."""
    return construct_cube_parallel(
        data, bits,
        config=BuildConfig(backend=backend, scheduler=scheduler, trace=trace),
    )


def cuboids(result) -> dict:
    """node -> ndarray for a serial or parallel build result."""
    return {node: arr.data for node, arr in result.results.items()}


def comm_volume(result) -> int:
    return result.comm_volume_elements


def declared_volume(scheduler: str, shape, bits) -> int:
    return get_scheduler(scheduler).declared_volume(tuple(shape), tuple(bits))


def declared_memory_bound(scheduler: str, shape, bits) -> int:
    return get_scheduler(scheduler).declared_memory_bound(tuple(shape), tuple(bits))


def peak_memory(result) -> int:
    return result.max_peak_memory_elements


def simulated_makespan(result) -> float:
    return result.simulated_time_s


def comm_counts(result):
    comm = result.metrics.comm
    return comm.total_messages, comm.total_bytes


def build_spans(result):
    """``(name, rank, start, end)`` of every phase span of a traced build.

    Rank -1 is the host lane (perf_counter clock); ranks >= 0 are on the
    backend's rank clock, which starts when the ranks are released.
    """
    return [(s.name, s.rank, s.t_start, s.t_end) for s in result.metrics.spans]


def plan(shape, ranks: int, scheduler: str):
    return plan_cube(tuple(shape), num_processors=ranks, scheduler=scheduler)


def transpose_input(plan, data):
    return plan.transpose_input(data)


def reassemble(result, shape, bits):
    """Call the host-side assembly directly on a finished run's rank portions."""
    return assemble_results(result.metrics.rank_results, ProcessorGrid(bits), tuple(shape))


# -- raw backends -----------------------------------------------------------------


def pingpong_ops_per_s(backend, ranks: int, rounds: int) -> float:
    """Ops/s of a no-payload program: a ring send/recv per round, a barrier
    every 100 rounds.  ``backend`` is a name or an opened instance."""
    def program(env):
        right = (env.rank + 1) % env.num_ranks
        left = (env.rank - 1) % env.num_ranks
        for i in range(rounds):
            yield env.send(right, None)
            yield env.recv(left)
            if i % 100 == 99:
                yield env.barrier()

    owned = isinstance(backend, str)
    instance = get_backend(backend) if owned else backend
    try:
        t0 = time.perf_counter()
        instance.spawn_ranks(ranks, program)
        elapsed = time.perf_counter() - t0
    finally:
        instance.close() if owned else instance.end_run()
    ops = ranks * (2 * rounds + rounds // 100)
    return ops / elapsed


# -- olap / serve -----------------------------------------------------------------


def make_schema(shape):
    return Schema.simple(**{f"d{i}": s for i, s in enumerate(shape)})


def to_queries(schema, plain_queries):
    names = schema.names
    return [
        GroupByQuery(
            group_by=tuple(names[d] for d in group_by),
            where={names[d]: v for d, v in where.items()},
        )
        for group_by, where in plain_queries
    ]


def cube_build(schema, data, ranks: int, scheduler: str):
    return DataCube.build(
        schema, data, num_processors=ranks, backend="thread", scheduler=scheduler
    )


def cube_cuboids(cube) -> dict:
    return {node: arr.data for node, arr in cube.aggregates.items()}


def engine(cube):
    return QueryEngine(cube)


def service(cube, cache_size: int, observed: bool = False):
    """A fresh service.  ``observed`` hands it an external metrics registry
    and a live tracer; the default keeps its private registry and no tracer
    (the registry itself cannot be switched off from outside)."""
    if observed:
        return CubeService(cube, result_cache_size=cache_size,
                           metrics=MetricsRegistry(), tracer=Tracer())
    return CubeService(cube, result_cache_size=cache_size)


def cache_counts(svc):
    stats = svc.cache_stats
    return stats.hits, stats.misses, stats.evictions


def scan_counts(svc):
    return svc.cells_scanned_actual, svc.cells_scanned_standalone


def refresh(cube, delta, update_base: bool):
    return apply_delta(cube, delta, update_base=update_base)


def answer_array(result) -> np.ndarray:
    return np.asarray(result.values)
