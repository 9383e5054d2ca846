#!/usr/bin/env python
"""Partial cube materialization (the paper's future-work direction).

A warehouse rarely needs all 2^n group-bys.  This example materializes only
the group-bys a dashboard actually queries, by pruning the aggregation tree
to the targets' ancestral closure, and compares cost against the full cube:
communication volume, compute, disk writes -- while every target stays
bit-identical to the full cube's aggregate.  There is no separate
"partial" constructor: the scheduler owns the target set
(``Fig5Scheduler(targets=...)``) and the sequential walker takes one
(``construct_cube_sequential(data, targets=...)``); both walk the same
pruned step list.

Run:  python examples/partial_materialization.py
"""

import numpy as np

from repro.arrays.dataset import random_sparse
from repro.core.parallel import construct_cube_parallel
from repro.core.partial import required_closure
from repro.core.partition import greedy_partition
from repro.core.sequential import construct_cube_sequential
from repro.sched import Fig5Scheduler
from repro.util import human_count, node_letters
from repro.viz import render_aggregation_tree


def main() -> None:
    shape = (48, 32, 24, 16)
    data = random_sparse(shape, sparsity=0.15, seed=17)
    bits = greedy_partition(shape, 3)
    print(f"dataset {shape}, 8 simulated processors, partition bits {bits}")
    print("\nthe full aggregation tree:")
    print(render_aggregation_tree(len(shape), shape))

    # The dashboard needs: sales by (A,B) and by (A,).  Their ancestral
    # closure never touches the BCD subtree, so the expensive reduction of
    # BCD along the partitioned dimension A is skipped entirely.
    targets = [(0, 1), (0,)]
    closure = required_closure(targets, len(shape))
    print(f"\ntargets: {[node_letters(t) for t in targets]}")
    print(f"closure (computed nodes): {sorted(node_letters(c) for c in closure)}")

    full = construct_cube_parallel(data, bits, collect_results=False)
    sched = Fig5Scheduler(targets=targets)
    part = construct_cube_parallel(data, bits, scheduler=sched)
    print(f"\n{'':>14} {'full cube':>12} {'partial':>12}")
    print(f"{'comm (elems)':>14} {human_count(full.comm_volume_elements):>12} "
          f"{human_count(part.comm_volume_elements):>12}")
    print(f"{'sim time (s)':>14} {full.simulated_time_s:>12.4f} "
          f"{part.simulated_time_s:>12.4f}")
    print(f"{'compute (ops)':>14} "
          f"{human_count(full.metrics.total_compute_ops):>12} "
          f"{human_count(part.metrics.total_compute_ops):>12}")
    # The scheduler declares the Lemma-1 sum over *its* pruned tree.
    assert part.comm_volume_elements == part.expected_comm_volume_elements
    assert part.comm_volume_elements == sched.declared_volume(shape, bits)

    # Every target is exact, in parallel and on one processor.
    full_results = construct_cube_parallel(data, bits).results
    serial = construct_cube_sequential(data, targets=targets)
    for t in targets:
        assert np.allclose(part.results[t].data, full_results[t].data)
        assert np.allclose(serial.results[t].data, full_results[t].data)
    print(f"sequential walk of the same list: wrote {len(serial.write_order)} "
          f"arrays, peak {human_count(serial.peak_memory_elements)} elements")
    print("\nall targets verified bit-identical to the full cube")


if __name__ == "__main__":
    main()
