"""Parallel data cube construction (paper, Fig 5): the host side.

:func:`construct_cube_parallel` partitions the initial array over the
processor grid, asks the configured scheduler (:mod:`repro.sched`) for its
rank program, runs it on the configured execution backend
(:mod:`repro.exec`), and stitches the per-lead portions back into global
arrays (:func:`assemble_results`).  The host has one program path: the
scheduler decides what is walked (tree, targets), declares what it writes
and what it moves, and the host never looks inside; the Fig 5 rank
programs live in :mod:`repro.sched.fig5`.

The run measures communication volume exactly (tests check it equals the
Theorem 3 closed form), per-rank held-results memory (Theorem 4), and a
makespan: simulated seconds under the machine cost model on
``backend="sim"``, wall-clock seconds on the real ``"thread"`` and
``"process"`` backends, which run the *same* program and produce
bit-identical results.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.arrays.chunking import BlockPartition
from repro.arrays.dense import DEFAULT_DTYPE, DenseArray
from repro.arrays.measures import get_measure
from repro.arrays.sparse import SparseArray
from repro.cluster.metrics import RunMetrics
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import AggregationTree, rank_slices
from repro.core.config import BuildConfig
from repro.core.lattice import Node, all_nodes, full_node, node_size
from repro.obs.export import write_chrome_trace
from repro.obs.span import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.cluster.faults import FaultStats


# -- result container ----------------------------------------------------------------


@dataclass
class ParallelResult:
    """Outcome of one parallel construction, on whichever backend ran it."""

    results: dict[Node, DenseArray] | None
    metrics: RunMetrics
    bits: tuple[int, ...]
    shape: tuple[int, ...]
    expected_comm_volume_elements: int
    #: Spec of the scheduler that planned this run (``"fig5"`` default).
    scheduler: str = "fig5"

    @property
    def comm_volume_elements(self) -> int:
        return self.metrics.comm.total_elements

    @property
    def comm_volume_bytes(self) -> int:
        return self.metrics.comm.total_bytes

    @property
    def simulated_time_s(self) -> float:
        return self.metrics.makespan_s

    @property
    def elapsed_s(self) -> float:
        """Backend-neutral makespan: simulated seconds on ``"sim"`` runs,
        wall-clock seconds on ``"thread"`` and ``"process"`` runs."""
        return self.metrics.makespan_s

    @property
    def backend(self) -> str:
        """Name of the execution backend that produced this result."""
        return self.metrics.backend

    @property
    def max_peak_memory_elements(self) -> int:
        return self.metrics.max_peak_memory_elements

    @property
    def fault_stats(self) -> FaultStats:
        """Fault events observed during the run (``RunMetrics.faults``)."""
        return self.metrics.faults

    def __getitem__(self, node: Sequence[int]) -> DenseArray:
        if self.results is None:
            raise ValueError("run was executed with collect_results=False")
        return self.results[tuple(node)]


# -- partition and assembly ----------------------------------------------------------


def _extract_local_inputs(
    array: SparseArray | DenseArray | np.ndarray,
    grid: ProcessorGrid,
) -> list[SparseArray | DenseArray]:
    """Hand each rank its block of the initial array.

    A sparse block is one chunk whose facts are the source chunks' facts in
    chunk order, their offsets re-based into the block
    (:meth:`SparseArray.extract_block`).  A block of several kernel slabs is
    only a recipe here: the scanning rank produces its facts slab by slab,
    so it is never copied whole; a block of one slab is filled here.  Threads
    share the host's memory, and process workers, forked after this call,
    read the source chunks and blocks through the fork.
    """
    shape = tuple(array.shape)
    out: list[SparseArray | DenseArray] = []
    for slices in rank_slices(grid.bits, shape):
        if isinstance(array, SparseArray):
            out.append(array.extract_block(slices))
        else:
            data = array.data if isinstance(array, DenseArray) else np.asarray(array)
            out.append(DenseArray(np.ascontiguousarray(data[slices]), tuple(range(len(shape)))))
    return out


def assemble_results(
    rank_results: Sequence[dict[Node, Any]],
    grid: ProcessorGrid,
    shape: Sequence[int],
) -> dict[Node, DenseArray]:
    """Stitch each node's per-lead portions into global arrays.

    Portions that were staged into a shared output arena travel as
    :class:`~repro.exec.shm.StagedResult` markers and are skipped here --
    the caller merges the arena's assembled arrays separately.
    """
    from repro.exec.shm import StagedResult

    shape = tuple(shape)
    assembled: dict[Node, DenseArray] = {}
    for slices, written in zip(rank_slices(grid.bits, shape), rank_results, strict=True):
        for node, portion in written.items():
            if isinstance(portion, StagedResult):
                continue
            if node not in assembled:
                global_shape = tuple(shape[d] for d in node)
                assembled[node] = DenseArray.zeros(global_shape, node, dtype=portion.data.dtype)
            # The trailing Ellipsis makes the 0-d grand total assignable too.
            assembled[node].data[(*[slices[d] for d in node], ...)] = portion.data
    return assembled


def construct_cube_parallel(
    array: SparseArray | DenseArray | np.ndarray,
    bits: Sequence[int],
    config: BuildConfig | None = None,
    **options: Any,
) -> ParallelResult:
    """Construct the data cube on an execution backend.

    ``array`` is the initial n-dimensional array (axes already in
    aggregation-tree order; sparse input follows the paper's chunk-offset
    format) and ``bits`` the bits of partitioning per dimension
    (``2**sum(bits)`` processors; :func:`repro.core.partition.greedy_partition`
    gives the optimum).

    Every build option is a field of :class:`~repro.core.config.BuildConfig`
    -- see its docstring for the full list.  Pass them as
    ``config=BuildConfig(...)``, as individual keywords
    (``backend="thread"``, ``trace=True``, ...), or both: keywords override
    the config's fields, and an unknown keyword raises ``TypeError``.

    A backend resolved from a name is closed after the build; a passed-in
    :class:`~repro.exec.base.Backend` instance is only released of its
    per-run state (``end_run``), so a warmed worker pool
    (``ThreadBackend().open(workers=p)``) is reused across builds.
    """
    cfg = replace(config or BuildConfig(), **options)
    # The one lazy import block of this module: repro.core is imported
    # eagerly as a package and repro.exec / repro.sched / arrays.persist all
    # import repro.core modules, so module-level imports would be circular.
    from repro.arrays.persist import CheckpointStore
    from repro.exec.base import Backend
    from repro.exec.registry import get_backend
    from repro.exec.shm import OutputLayout, StagedResult
    from repro.sched import resolve_scheduler

    measure = get_measure(cfg.measure)
    trace = cfg.effective_trace
    # Ownership rule: a backend resolved from a name here is ours to shut
    # down; a caller-passed instance keeps its lifecycle (warm worker
    # pools survive the build -- we only release per-run state).
    owns_backend = not isinstance(cfg.backend, Backend)
    backend_obj = get_backend(cfg.backend) if owns_backend else cfg.backend
    sched_obj = resolve_scheduler(cfg.scheduler)
    if isinstance(array, np.ndarray):
        array = DenseArray.full_cube_input(array)
    shape = tuple(array.shape)
    bits = tuple(bits)
    if len(bits) != len(shape):
        raise ValueError("bits must have one entry per dimension")
    n = len(shape)
    sched_obj.validate_shape(shape)
    grid = ProcessorGrid(bits)
    # Validate the partition against the shape early.
    BlockPartition(shape, grid.parts)
    declared = sched_obj.declared_volume(shape, bits)

    # Host-side phases run on the wall clock in their own trace lane
    # (rank -1); they are outside every rank's timeline, so they never
    # perturb the backend's makespan accounting.
    host_tr = Tracer(rank=-1) if trace else NULL_TRACER
    with host_tr.span("build.partition", ranks=grid.size):
        local_inputs = _extract_local_inputs(array, grid)

    tmpdir = None
    out_arena = None
    staged_results: dict[Node, DenseArray] = {}
    try:
        if cfg.checkpoint:
            checkpoint_dir = cfg.checkpoint_dir
            if checkpoint_dir is None:
                # Prefer a RAM-backed host-shared root (/dev/shm): forked
                # workers and respawned incarnations all see it, and
                # recovery replay never waits on disk.
                tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-ckpt-",
                    dir=str(CheckpointStore.preferred_root()),
                )
                checkpoint_dir = tmpdir.name
            program = sched_obj.rank_program_ft(
                shape, bits, grid, local_inputs,
                measure=measure,
                store=CheckpointStore(checkpoint_dir),
                recv_timeout=cfg.recv_timeout,
            )
        else:
            t_prep = host_tr.clock()
            if cfg.collect_results:
                # Offer the backend an output arena: finalized aggregates
                # go straight into global-shaped slots instead of back
                # through result queues (sim returns None -- results are
                # in-process).  Sparse inputs accumulate into
                # DEFAULT_DTYPE; dense reductions preserve the input dtype.
                out_dtype = (
                    np.dtype(DEFAULT_DTYPE)
                    if isinstance(array, SparseArray)
                    else array.data.dtype
                )
                targets = sched_obj.target_nodes(n)
                written = all_nodes(n)[1:] if targets is None else targets
                out_arena = backend_obj.prepare_outputs(
                    OutputLayout(shape, grid, tuple(written), out_dtype, declared)
                )
            program = sched_obj.rank_program(
                shape,
                bits,
                grid,
                local_inputs,
                reduction=cfg.reduction,
                measure=measure,
                max_message_elements=cfg.max_message_elements,
                outputs=out_arena,
            )
            if out_arena is not None:
                # Names the host interval between partition and rank
                # release; sim builds have no arena and no such interval.
                host_tr.end_span(
                    "build.prepare_outputs", t_prep,
                    attrs={"nodes": len(out_arena.nodes), "nbytes": out_arena.nbytes},
                )
        metrics = backend_obj.spawn_ranks(
            grid.size, program, machine=cfg.machine, record_trace=trace,
            machines=cfg.machines, faults=cfg.fault_plan, live=cfg.live,
        )
        if out_arena is not None:
            # Take the staged nodes *before* the finally clause releases
            # the arena: views that keep its mapping alive on their own.
            staged_nodes = sorted(
                {
                    node
                    for written in metrics.rank_results
                    if written
                    for node, portion in written.items()
                    if isinstance(portion, StagedResult)
                }
            )
            if staged_nodes:
                with host_tr.span("build.staged_collect", nodes=len(staged_nodes)):
                    staged_results = out_arena.collect(staged_nodes)
    finally:
        # Release per-run state (arenas) always; shut the backend down
        # fully only when we created it from a registry name.  A
        # caller-owned instance keeps its warm pool for the next build.
        backend_obj.end_run()
        if owns_backend:
            backend_obj.close()
        if tmpdir is not None:
            tmpdir.cleanup()

    if cfg.checkpoint:
        # Flatten {virtual rank: written} maps (a buddy returns its own
        # nodes plus the adopted rank's) back onto per-label results.
        vres: list[dict[Node, DenseArray]] = [{} for _ in range(grid.size)]
        for rr in metrics.rank_results:
            if rr:
                for vrank, written in rr.items():
                    vres[vrank] = written
        rank_results: Sequence[dict[Node, DenseArray]] = vres
    else:
        rank_results = metrics.rank_results

    results = None
    if cfg.collect_results:
        with host_tr.span("build.assemble", ranks=grid.size):
            results = assemble_results(rank_results, grid, shape)
            for node, arr in staged_results.items():
                if node in results:
                    # A rank fell back to the in-band return for this
                    # node: its portion sits in the assembled array, the
                    # rest in the staged one.  Leads tile the node
                    # disjointly over zero-filled arrays, so summing
                    # merges exactly.
                    results[node].data += arr.data
                else:
                    results[node] = arr

    if host_tr.spans:
        metrics.spans = list(metrics.spans) + host_tr.spans

    if cfg.trace_out is not None:
        write_chrome_trace(metrics, cfg.trace_out)

    return ParallelResult(
        results=results,
        metrics=metrics,
        bits=bits,
        shape=shape,
        expected_comm_volume_elements=declared,
        scheduler=sched_obj.spec,
    )


def sequential_fraction_at_first_level(shape: Sequence[int]) -> float:
    """Fraction of total computation at the first aggregation level.

    The paper notes this is ~98 % for a dense 4-d cube with equal extents,
    justifying sequentializing deeper levels.  Computation is measured as
    parent elements scanned per edge.
    """
    n = len(shape)
    tree = AggregationTree(n)
    first = 0
    total = 0
    root = full_node(n)
    for parent, _child in tree.iter_edges():
        cost = node_size(parent, shape)
        total += cost
        if parent == root:
            first += cost
    return first / total if total else 0.0
