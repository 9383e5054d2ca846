"""T-faults: what fault tolerance costs, and what a crash costs to survive.

Four variants of the same construction:

- fragile baseline (the paper's program, no fault machinery),
- fragile + an *empty* fault plan (must be exactly zero-cost),
- checkpointed, fault-free (the insurance premium: checkpoint writes plus
  one barrier + heartbeat detection round),
- checkpointed with a single rank crashed right after checkpointing (the
  claim: the run completes bit-exact, paying only recovery time).

The table reports simulated makespans and overheads; the assertions pin the
zero-cost-when-disabled property and bit-exact recovery.
"""

import numpy as np

from repro.cluster.faults import FaultPlan
from repro.core.parallel import construct_cube_parallel

from _harness import SCALE, dataset, emit_table, fmt_row

if SCALE == "small":
    SHAPE, BITS = (12, 10, 8), (1, 1, 1)
else:
    SHAPE, BITS = (48, 40, 32), (1, 1, 1)

SPARSITY = 0.10
VICTIM = 3


def _post_checkpoint_crash_time(data):
    traced = construct_cube_parallel(data, BITS, checkpoint=True, trace=True)
    disk = [e for e in traced.metrics.trace
            if e.rank == VICTIM and e.name == "disk"]
    # disk[0] is the input read; the next len(SHAPE) are checkpoint writes.
    return disk[len(SHAPE)].t_end + 1e-9


def test_fault_tolerance_overhead(benchmark):
    data = dataset(SHAPE, SPARSITY, seed=31)

    base = construct_cube_parallel(data, BITS)
    nulled = construct_cube_parallel(data, BITS, fault_plan=FaultPlan())
    ft_clean = benchmark.pedantic(
        lambda: construct_cube_parallel(data, BITS, checkpoint=True),
        rounds=1, iterations=1,
    )
    t_crash = _post_checkpoint_crash_time(data)
    ft_crash = construct_cube_parallel(
        data, BITS, checkpoint=True,
        fault_plan=FaultPlan().crash(VICTIM, t_crash))

    def pct(run):
        return f"{(run.simulated_time_s / base.simulated_time_s - 1) * 100:+.1f}%"

    lines = [
        f"T-faults: {SHAPE} on {2 ** sum(BITS)} processors "
        f"({data.nnz} facts, sparsity {SPARSITY:.0%})",
        fmt_row("variant", "simulated (s)", "vs baseline",
                widths=[30, 14, 12]),
        fmt_row("fragile baseline", f"{base.simulated_time_s:.4f}", "--",
                widths=[30, 14, 12]),
        fmt_row("fragile + empty fault plan",
                f"{nulled.simulated_time_s:.4f}", pct(nulled),
                widths=[30, 14, 12]),
        fmt_row("checkpointed, fault-free",
                f"{ft_clean.simulated_time_s:.4f}", pct(ft_clean),
                widths=[30, 14, 12]),
        fmt_row(f"checkpointed, rank {VICTIM} crash",
                f"{ft_crash.simulated_time_s:.4f}", pct(ft_crash),
                widths=[30, 14, 12]),
    ]
    emit_table("t_faults", lines)

    # Disabled fault machinery costs exactly nothing.
    assert nulled.simulated_time_s == base.simulated_time_s
    assert nulled.metrics.comm.total_messages == base.metrics.comm.total_messages

    # The premium buys completion: crash run recovers, results bit-exact.
    assert ft_crash.fault_stats.crashed_ranks == [VICTIM]
    assert ft_crash.fault_stats.recoveries >= 1
    assert set(ft_crash.results) == set(base.results)
    for node, arr in base.results.items():
        assert np.array_equal(arr.data, ft_crash.results[node].data), node

    # Sanity on the cost ordering: insurance is not free, recovery costs
    # at least as much as the clean checkpointed run.
    assert ft_clean.simulated_time_s > base.simulated_time_s
    assert ft_crash.simulated_time_s >= ft_clean.simulated_time_s

    benchmark.extra_info["checkpoint_overhead_pct"] = (
        (ft_clean.simulated_time_s / base.simulated_time_s - 1) * 100
    )
    benchmark.extra_info["recovery_overhead_pct"] = (
        (ft_crash.simulated_time_s / base.simulated_time_s - 1) * 100
    )
