"""Out-of-core construction: the paper's cache/memory-reuse issue, measured.

Section 2: "When the array ABC is disk-resident, performance is
significantly improved if each portion of the array is read only once.
After reading a portion or chunk of the array, corresponding portions of
AB, AC, and BC can be updated simultaneously."

This module makes that claim measurable.  The initial array's chunks live
on the simulated disk; two first-level strategies are provided:

- **single-pass** (the paper's): stream each chunk once, updating every
  first-level child from it before moving on -- input read exactly once;
- **multi-pass** (the strawman): compute children one at a time, re-reading
  the whole input per child -- input read ``n`` times.

Deeper levels proceed in memory exactly as Fig 3 (their parents are held
results).  Both produce identical cubes; the disk counters quantify the
reuse benefit, and a simulated-time estimate charges the machine model's
disk rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_multi
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray, SparseChunk
from repro.arrays.storage import DiskStats, SimulatedDisk
from repro.cluster.machine import MachineModel
from repro.core.aggregation_tree import AggregationTree, ComputeChildren, WriteBack
from repro.core.lattice import Node, full_node
from repro.util import node_name


def store_input_chunks(disk: SimulatedDisk, array: SparseArray) -> list[str]:
    """Write each chunk of the initial array to disk; returns chunk names.

    Writing the input is not charged to the construction (it models the
    warehouse's existing storage): the stats snapshot is reset after.
    """
    names = []
    for i, chunk in enumerate(array.iter_chunks()):
        name = f"input/chunk{i:06d}"
        disk.write(name, chunk)
        names.append(name)
    disk.stats.bytes_written = 0
    disk.stats.write_ops = 0
    disk.write_log.clear()
    return names


@dataclass
class OutOfCoreResult:
    """Cube plus the I/O accounting the strategy comparison is about."""

    results: dict[Node, DenseArray]
    disk: DiskStats
    input_bytes: int
    input_passes: int
    estimated_io_time_s: float

    def __getitem__(self, node: Sequence[int]) -> DenseArray:
        return self.results[tuple(node)]


def _single_chunk_array(shape: tuple[int, ...], chunk: SparseChunk) -> SparseArray:
    """Wrap one stored chunk as a standalone sparse array view."""
    return SparseArray(shape, [chunk])


def construct_cube_out_of_core(
    array: SparseArray,
    single_pass: bool = True,
    machine: MachineModel | None = None,
    measure: Measure | str = SUM,
) -> OutOfCoreResult:
    """Construct the cube with a disk-resident input.

    ``single_pass=True`` streams each input chunk once and updates all
    first-level children simultaneously (the paper's discipline);
    ``False`` re-reads the input once per first-level child.
    """
    measure = get_measure(measure)
    machine = machine or MachineModel.paper_cluster()
    shape = tuple(array.shape)
    n = len(shape)
    tree = AggregationTree(n)
    root = full_node(n)
    disk = SimulatedDisk()
    chunk_names = store_input_chunks(disk, array)
    input_bytes = sum(disk.peek(name).nbytes for name in chunk_names)

    held: dict[Node, DenseArray] = {}
    results: dict[Node, DenseArray] = {}
    input_passes = 0

    for step in tree.schedule():
        if isinstance(step, ComputeChildren):
            if step.node == root:
                if single_pass:
                    # One pass: every chunk read once, all children updated.
                    input_passes = 1
                    partials = [None] * len(step.children)
                    for name in chunk_names:
                        chunk = disk.read(name)
                        outs = aggregate_sparse_multi(
                            _single_chunk_array(shape, chunk),
                            tuple(range(n)),
                            step.children,
                            measure=measure,
                        )
                        for i, out in enumerate(outs):
                            if partials[i] is None:
                                partials[i] = out
                            else:
                                measure.combine(partials[i].data, out.data)
                    for child, out in zip(step.children, partials):
                        held[child] = out
                else:
                    # One pass per child: the strawman re-reads everything.
                    input_passes = len(step.children)
                    for child in step.children:
                        acc: DenseArray | None = None
                        for name in chunk_names:
                            chunk = disk.read(name)
                            out = aggregate_sparse_multi(
                                _single_chunk_array(shape, chunk),
                                tuple(range(n)),
                                [child],
                                measure=measure,
                            )[0]
                            if acc is None:
                                acc = out
                            else:
                                measure.combine(acc.data, out.data)
                        held[child] = acc
            else:
                parent = held[step.node]
                for child in step.children:
                    held[child] = aggregate_dense(
                        parent, child, measure=measure.rollup
                    )
        elif isinstance(step, WriteBack):
            out = held.pop(step.node)
            disk.write(node_name(step.node), out)
            results[step.node] = out

    stats = disk.stats.copy()
    io_time = machine.disk_time(0) * (stats.read_ops + stats.write_ops) + (
        (stats.bytes_read + stats.bytes_written) / machine.disk_bandwidth_Bps
    )
    return OutOfCoreResult(
        results=results,
        disk=stats,
        input_bytes=input_bytes,
        input_passes=input_passes,
        estimated_io_time_s=io_time,
    )
