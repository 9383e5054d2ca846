#!/usr/bin/env python
"""Kill a processor mid-construction and get the exact same cube anyway.

The fragile program (the paper's Fig 5) deadlocks if any rank dies: its
reduction partners wait forever on partials that will never arrive.  The
fault-tolerant variant checkpoints every rank's first-level partials,
detects the death through heartbeat timeouts, and hands the victim's
remaining schedule to its reduction-group buddy -- bit-exact results under
any single-rank crash, at a measurable insurance premium.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.arrays.dataset import random_sparse
from repro.cluster.faults import FaultPlan
from repro.cluster.runtime import DeadlockError
from repro.core.parallel import construct_cube_parallel


def main() -> None:
    shape, bits, victim = (16, 12, 8), (1, 1, 1), 3
    data = random_sparse(shape, sparsity=0.20, seed=42)
    print(f"dataset {shape}, {data.nnz} facts, 8 simulated processors")

    # 1. The fault-free runs: fragile vs checkpointed.
    base = construct_cube_parallel(data, bits)
    clean = construct_cube_parallel(data, bits, checkpoint=True)
    premium = clean.simulated_time_s / base.simulated_time_s - 1
    print(f"\nfragile baseline:        {base.simulated_time_s:.4f} s")
    print(f"checkpointed, no fault:  {clean.simulated_time_s:.4f} s "
          f"({premium:+.1%} insurance premium)")

    # 2. Pick a dramatic moment: right after rank 3 finished checkpointing.
    traced = construct_cube_parallel(data, bits, checkpoint=True, trace=True)
    disk = [e for e in traced.metrics.trace
            if e.rank == victim and e.name == "disk"]
    t_crash = disk[len(shape)].t_end + 1e-9  # disk[0] is the input read
    plan = FaultPlan().crash(victim, t_crash)
    print(f"\ninjecting: {plan.describe()}")

    # 3. Without fault tolerance the cluster stalls -- diagnosably.  (The
    #    fragile timeline is shorter, so crash the victim right away.)
    try:
        construct_cube_parallel(data, bits,
                                fault_plan=FaultPlan().crash(victim, 1e-6))
        raise AssertionError("fragile program should have stalled")
    except DeadlockError as exc:
        first = str(exc).splitlines()[1].strip()
        print(f"fragile program: DeadlockError ({first}, ...)")

    # 4. With checkpoints the buddy adopts the victim's schedule.
    survived = construct_cube_parallel(data, bits, checkpoint=True,
                                       fault_plan=plan)
    print(f"checkpointed program:    {survived.simulated_time_s:.4f} s "
          f"-- {survived.fault_stats.summary()}")

    exact = all(np.array_equal(arr.data, survived.results[node].data)
                for node, arr in base.results.items())
    print(f"\nall {len(base.results)} aggregates bit-exact vs the "
          f"fault-free run: {exact}")
    assert exact


if __name__ == "__main__":
    main()
