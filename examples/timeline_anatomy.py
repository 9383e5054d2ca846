#!/usr/bin/env python
"""Anatomy of a parallel construction: per-rank timelines.

Why exactly does the 1-dimensional partition lose (Figure 7)?  The trace
answers visually: with all 8 processors split along one dimension, every
first-level reduction funnels through a single lead that receives seven
partial arrays back to back while the other ranks sit idle; the 3-d
partition runs many two-member reductions in parallel instead.

Run:  python examples/timeline_anatomy.py
"""

from repro.arrays.dataset import random_sparse
from repro.core.parallel import construct_cube_parallel
from repro.core.partition import describe_partition
from repro.obs.report import ascii_gantt, summarize, utilization


def show(data, bits) -> float:
    res = construct_cube_parallel(data, bits, trace=True)
    m = res.metrics
    print(f"\n=== {describe_partition(bits)}: "
          f"{res.simulated_time_s:.4f}s simulated, "
          f"utilization {utilization(m):.1%} ===")
    print(ascii_gantt(m, width=72))
    print()
    print(summarize(m))
    return utilization(m)


def main() -> None:
    shape = (24, 24, 24, 24)
    data = random_sparse(shape, sparsity=0.10, seed=13)
    print(f"dataset {shape}, {data.nnz} facts, 8 simulated processors")

    u3 = show(data, (1, 1, 1, 0))   # the optimal 3-d partition
    u1 = show(data, (3, 0, 0, 0))   # the 1-d strawman

    print(f"\n3-d partition keeps the machine {u3:.1%} busy computing; "
          f"1-d only {u1:.1%} — the gap is the Figure 7 story.")


if __name__ == "__main__":
    main()
