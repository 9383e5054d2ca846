"""Diff two result sets against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py results/A.json results/B.json

A is the base (the parent commit, or the first of two runs of one commit),
B the candidate.  One row per workload x metric:

- ``ok``          B's median is not worse than A's by more than the bound;
- ``worse``       it is, and the two runs' quartile ranges do not overlap
                  (or the metric has no spread to excuse it);
- ``unresolved``  it is, but the run-to-run spread is wider than the bound
                  and the quartile ranges overlap: measure again, longer;
- ``differs``     a count that must repeat exactly (same seed) did not;
- ``info``        a per-layer timing: no bound, shown for attribution.

Every ratio is printed with its base.  Exit status 1 on any ``worse`` or
``differs``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
EXACT_UNITS = ("count", "bytes")


def worsening(base: float, new: float, better: str) -> float:
    """Relative change, signed so that positive means worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def spread(m: dict) -> float:
    if "q1" not in m or m["value"] == 0:
        return 0.0
    return (m["q3"] - m["q1"]) / abs(m["value"])


def overlap(a: dict, b: dict) -> bool:
    return "q1" in a and "q1" in b and a["q1"] <= b["q3"] and b["q1"] <= a["q3"]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if worsening(a["value"], b["value"], better) <= bound:
        return "ok"
    if max(spread(a), spread(b)) > bound and overlap(a, b):
        return "unresolved"
    return "worse"


def row(workload, name, a, b, word) -> str:
    ratio = b["value"] / a["value"] if a["value"] else float("nan")
    return (f"{word:10s} {workload:17s} {name:36s} {b['value']:>12.6g} "
            f"= {ratio:6.3f}x of {a['value']:.6g} {a['unit']}"
            f"  (spread A {100 * spread(a):.1f} % B {100 * spread(b):.1f} %)")


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    lines, bad = [], 0
    same_seed = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    if not same_seed:
        lines.append("note: seeds or scale differ, so counts are not required to repeat")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            lines.append(f"worse      {workload:17s} missing from one set")
            bad += 1
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"].get(m["name"]), wb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                lines.append(f"worse      {workload:17s} {m['name']} not reported")
                bad += 1
                continue
            word = verdict(ma, mb, m["better"], m["bound"])
            bad += word == "worse"
            lines.append(row(workload, m["name"], ma, mb, word) + f"  bound {100 * m['bound']:.0f} %")
        fa, fb = wa["end_to_end"]["failed_frac"], wb["end_to_end"]["failed_frac"]
        word = "ok" if fb["value"] <= fa["value"] else "worse"
        bad += word == "worse"
        lines.append(row(workload, "failed_frac", fa, fb, word) + "  bound 0 absolute")
        for m in spec["per_layer"]:
            ma, mb = wa["per_layer"].get(m["name"]), wb["per_layer"].get(m["name"])
            if ma is None or mb is None:
                lines.append(f"worse      {workload:17s} {m['name']} not reported")
                bad += 1
                continue
            word = "info"
            if m["unit"] in EXACT_UNITS and same_seed:
                word = "ok" if ma["value"] == mb["value"] else "differs"
                bad += word == "differs"
            lines.append(row(workload, m["name"], ma, mb, word))
    return lines, bad


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb, open(ROOT / "BENCHMARK.json") as fs:
        lines, bad = compare(json.load(fa), json.load(fb), json.load(fs))
    print("\n".join(lines))
    print(f"{bad} worse or differing rows")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
