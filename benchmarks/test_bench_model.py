"""BENCH-model: the rank-program model checker across every scheduler.

For each registered strategy the checker builds the symbolic per-rank
programs, closes the happens-before graph, exhaustively explores the
interleaving space (with DPOR reduction), and scans the alloc/free
ledger.  The bench records how big those artifacts are (events, states,
transitions) and how long certification takes, then asserts the claims
that make the numbers trustworthy:

- **certified everywhere**: every scheduler is deadlock-free with zero
  diagnostics at every sweep point, including the fault-tolerant
  detection round under its full crash sweep;
- **bit-exact memory**: the static ledger high-water equals the
  simulator's measured per-rank peaks, element for element;
- **reduction works**: the deterministic programs explore a state count
  linear-ish in program length, never approaching the explorer cap.

It emits ``benchmarks/results/BENCH_model.json``.
"""

import json
import time

import numpy as np

from repro.analysis.model import analyze_lifetime, check_model
from repro.core.parallel import construct_cube_parallel
from repro.core.partition import greedy_partition
from repro.sched import get_scheduler

from _harness import RESULTS_DIR, SCALE, emit_table, fmt_row

SPECS = ("fig5", "shuffle", "marginals-2", "marginals-2-shuffle")

if SCALE == "small":
    SWEEP = [((8, 6, 4), 2), ((8, 6, 4), 4)]
    FT_POINT = ((8, 6, 4), 4)
else:
    SWEEP = [((16, 12, 8), 4), ((16, 12, 8, 8), 8)]
    FT_POINT = ((16, 12, 8, 8), 8)


def _bits(shape, procs):
    return greedy_partition(shape, procs.bit_length() - 1)


def _measured_peaks(shape, bits, spec):
    data = np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
    run = construct_cube_parallel(
        data, bits, collect_results=False, scheduler=spec
    )
    return tuple(run.metrics.rank_peak_memory_elements)


def test_model_checker_certification(benchmark):
    shape0, procs0 = SWEEP[0]

    benchmark.pedantic(
        lambda: check_model(shape0, _bits(shape0, procs0)),
        rounds=1,
        iterations=1,
    )

    points = []
    for shape, procs in SWEEP:
        bits = _bits(shape, procs)
        for spec in SPECS:
            t0 = time.perf_counter()
            result = check_model(shape, bits, scheduler=spec)
            elapsed = time.perf_counter() - t0

            assert result.certified, result.certificate()
            assert len(result.report.diagnostics) == 0
            _, explored = result.scenarios[0]
            assert not explored.truncated
            assert explored.states < 200_000

            prog = get_scheduler(spec).symbolic_ops(shape, bits)
            static = analyze_lifetime(prog)
            measured = _measured_peaks(shape, bits, spec)
            assert static.rank_high_water == measured, (
                f"{spec} {shape}: static {static.rank_high_water} "
                f"!= measured {measured}"
            )

            points.append(
                {
                    "scheduler": spec,
                    "shape": list(shape),
                    "bits": list(bits),
                    "procs": procs,
                    "events": sum(len(s) for s in prog.streams),
                    "states": explored.states,
                    "transitions": explored.transitions,
                    "max_high_water_elements": static.max_high_water,
                    "check_seconds": round(elapsed, 6),
                }
            )

    ft_shape, ft_procs = FT_POINT
    ft_bits = _bits(ft_shape, ft_procs)
    t0 = time.perf_counter()
    ft = check_model(ft_shape, ft_bits, detection_round=True)
    ft_elapsed = time.perf_counter() - t0
    assert ft.certified, ft.certificate()
    assert len(ft.scenarios) == 1 + ft_procs

    report = {
        "bench": "model",
        "scale": SCALE,
        "schedulers": list(SPECS),
        "points": points,
        "detection_round": {
            "shape": list(ft_shape),
            "procs": ft_procs,
            "scenarios": len(ft.scenarios),
            "timeouts_fired": sum(
                e.timeouts_fired for _, e in ft.scenarios
            ),
            "check_seconds": round(ft_elapsed, 6),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_model.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    widths = [20, 14, 6, 8, 8, 10, 10]
    lines = [
        "BENCH-model: model-checker certification across schedulers",
        f"scale={SCALE}; every point certified deadlock-free, "
        f"memory bit-exact vs the simulator",
        fmt_row("scheduler", "shape", "p", "events", "states",
                "peak(el)", "check(s)", widths=widths),
    ]
    for p in points:
        lines.append(
            fmt_row(
                p["scheduler"],
                "x".join(str(s) for s in p["shape"]),
                p["procs"],
                p["events"],
                p["states"],
                p["max_high_water_elements"],
                f"{p['check_seconds']:.3f}",
                widths=widths,
            )
        )
    lines.append(
        f"FT detection round at p={ft_procs}: {len(ft.scenarios)} "
        f"scenario(s) certified in {ft_elapsed:.3f}s"
    )
    print(emit_table("t_model", lines))
