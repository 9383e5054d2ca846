"""T-partial: partial materialization + view selection (future-work section).

Not a table in the 2003 paper -- it is the extension its conclusion calls
for.  The bench sweeps space budgets: greedy view selection (HRU) picks
views, the pruned aggregation tree materializes them, and the query engine
answers a uniform workload; we report construction cost and average query
cost versus the full cube, asserting both move monotonically with budget.
"""

from repro.core.lattice import all_nodes, node_size
from repro.core.parallel import construct_cube_parallel
from repro.core.partition import greedy_partition
from repro.sched import Fig5Scheduler
from repro.olap.view_selection import (
    greedy_select_views,
    uniform_workload,
    workload_cost,
)

from _harness import SCALE, dataset, emit_table, fmt_row

SHAPE = (16, 12, 8, 8) if SCALE == "small" else (64, 48, 32, 24)
K = 3


def test_partial_budget_sweep(benchmark):
    data = dataset(SHAPE, 0.10, seed=71)
    bits = greedy_partition(SHAPE, K)
    n = len(SHAPE)
    total_space = sum(node_size(nd, SHAPE) for nd in all_nodes(n) if len(nd) < n)
    wl = uniform_workload(n)

    def full_run():
        return construct_cube_parallel(data, bits, collect_results=False)

    full = benchmark.pedantic(full_run, rounds=1, iterations=1)
    full_cost = workload_cost(wl, {nd for nd in all_nodes(n) if len(nd) < n}, SHAPE)

    lines = [
        f"T-partial: view selection + pruned construction on {SHAPE}, p={2 ** K}",
        fmt_row("budget", "views", "space used", "comm (elems)",
                "sim time (s)", "avg query cost", widths=[10, 6, 12, 13, 13, 15]),
    ]
    prev_query_cost = None
    prev_comm = None
    for frac in (0.02, 0.05, 0.15, 0.40, 1.0):
        budget = int(total_space * frac)
        sel = greedy_select_views(SHAPE, budget, workload=wl)
        if sel.views:
            run = construct_cube_parallel(
                data, bits, scheduler=Fig5Scheduler(targets=sel.views),
                collect_results=False,
            )
            comm = run.comm_volume_elements
            sim = run.simulated_time_s
        else:
            comm, sim = 0, 0.0
        qcost = sel.workload_cost_after
        lines.append(
            fmt_row(budget, len(sel.views), sel.space_used_elements, comm,
                    f"{sim:.4f}", f"{qcost:.0f}",
                    widths=[10, 6, 12, 13, 13, 15])
        )
        if prev_query_cost is not None:
            assert qcost <= prev_query_cost          # more budget, cheaper queries
            assert comm >= prev_comm                 # ...but more construction
        prev_query_cost, prev_comm = qcost, comm
    lines.append("")
    lines.append(
        f"full cube: comm={full.comm_volume_elements} elems, "
        f"sim={full.simulated_time_s:.4f}s, avg query cost={full_cost:.0f}"
    )
    emit_table("t_partial", lines)

    # The full-budget selection reaches the full cube's query cost.
    assert prev_query_cost == full_cost
    benchmark.extra_info["full_comm"] = full.comm_volume_elements
