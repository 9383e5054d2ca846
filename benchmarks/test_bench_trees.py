"""T-seq: spanning-tree comparison -- aggregation tree vs alternatives.

Covers the related-work comparison the paper makes qualitatively: the
aggregation tree achieves the memory bound *without frequent disk writes*
(unlike MMST/MNST), computes from minimal parents, and -- the part we can
measure head-to-head -- beats both a non-minimal-parent tree and the naive
no-reuse scheme on communication and simulated time.
"""

from repro.baselines.level_sync import (
    construct_cube_level_sync,
    level_sync_comm_volume,
)
from repro.baselines.naive_parallel import (
    construct_cube_naive_parallel,
    naive_comm_volume,
)
from repro.baselines.trees import run_with_tree, tree_choices
from repro.core.comm_model import tree_comm_volume
from repro.core.parallel import construct_cube_parallel
from repro.core.partition import greedy_partition
from repro.core.sequential import construct_cube_sequential

from _harness import SCALE, dataset, emit_table, fmt_row

SHAPE = (16, 12, 8, 8) if SCALE == "small" else (64, 64, 32, 16)
K = 3


def test_tree_comparison(benchmark):
    data = dataset(SHAPE, 0.10, seed=51)
    bits = greedy_partition(SHAPE, K)

    def run_aggregation():
        return construct_cube_parallel(data, bits, collect_results=False)

    agg = benchmark.pedantic(run_aggregation, rounds=1, iterations=1)
    trees = tree_choices(SHAPE)
    ld = run_with_tree(data, bits, trees["left-deep"], collect_results=False)
    lvl = construct_cube_level_sync(data, bits, collect_results=False)
    naive = construct_cube_naive_parallel(data, bits, collect_results=False)

    lines = [
        f"T-seq: construction scheme comparison on {SHAPE}, p={2 ** K}",
        fmt_row("scheme", "volume (elements)", "peak mem/rank",
                "sim time (s)", widths=[24, 18, 14, 13]),
        fmt_row("aggregation tree", agg.comm_volume_elements,
                agg.max_peak_memory_elements,
                f"{agg.simulated_time_s:.4f}", widths=[24, 18, 14, 13]),
        fmt_row("level-synchronous", lvl.comm_volume_elements,
                lvl.max_peak_memory_elements,
                f"{lvl.simulated_time_s:.4f}", widths=[24, 18, 14, 13]),
        fmt_row("left-deep tree", ld.comm_volume_elements,
                ld.max_peak_memory_elements,
                f"{ld.simulated_time_s:.4f}", widths=[24, 18, 14, 13]),
        fmt_row("naive (no reuse)", naive.comm_volume_elements,
                naive.max_peak_memory_elements,
                f"{naive.simulated_time_s:.4f}", widths=[24, 18, 14, 13]),
    ]
    benchmark.extra_info["aggregation_sim_s"] = agg.simulated_time_s
    benchmark.extra_info["level_sync_sim_s"] = lvl.simulated_time_s
    benchmark.extra_info["left_deep_sim_s"] = ld.simulated_time_s
    benchmark.extra_info["naive_sim_s"] = naive.simulated_time_s

    # Closed forms for every scheme.
    v_agg = tree_comm_volume(trees["aggregation"], SHAPE, bits)
    v_ld = tree_comm_volume(trees["left-deep"], SHAPE, bits)
    v_lvl = level_sync_comm_volume(SHAPE, bits)
    v_naive = naive_comm_volume(SHAPE, bits)
    lines.append("")
    lines.append(
        f"predicted volumes: aggregation={v_agg} level-sync={v_lvl} "
        f"left-deep={v_ld} naive={v_naive}"
    )
    emit_table("t_trees", lines)

    assert agg.comm_volume_elements == v_agg
    assert ld.comm_volume_elements == v_ld
    assert lvl.comm_volume_elements == v_lvl
    assert naive.comm_volume_elements == v_naive
    assert agg.comm_volume_elements <= ld.comm_volume_elements
    assert ld.comm_volume_elements < naive.comm_volume_elements
    assert agg.simulated_time_s < naive.simulated_time_s
    # The paper's edge over prior parallel work: same volume under the
    # canonical ordering and strictly lower memory.  The schedule advantage
    # (no level barriers) shows when communication dominates; with balanced
    # loads the two can tie on time, so assert "never meaningfully slower".
    assert agg.comm_volume_elements == lvl.comm_volume_elements
    assert agg.max_peak_memory_elements < lvl.max_peak_memory_elements
    assert agg.simulated_time_s <= lvl.simulated_time_s * 1.02


def test_sequential_disk_discipline(benchmark):
    """The qualitative related-work claim: one write per output, no
    re-reads (Zhao's MMST writes elements back eagerly; Tam's MNST also
    requires frequent write-backs)."""
    data = dataset(SHAPE, 0.10, seed=51)

    def run():
        return construct_cube_sequential(data)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    n = len(SHAPE)
    assert res.disk.write_ops == 2 ** n - 1  # each output exactly once
    assert res.disk.bytes_read == 0          # nothing ever re-read
    expected_bytes = sum(a.size * 8 for a in res.results.values())
    assert res.disk.bytes_written == expected_bytes
