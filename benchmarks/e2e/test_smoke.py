"""Smoke test of the benchmark itself (not collected by tier-1's ``testpaths``).

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_set_reports_every_metric_and_compares_clean():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "results" / "smoke_test.json"
    try:
        proc = run(HERE / "run.py", "--workload", "all", "--smoke", "--set", "smoke_test")
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 1000
        report = json.loads(out.read_text())
        assert list(report["workloads"]) == [w["name"] for w in spec["workloads"]]
        for name, w in report["workloads"].items():
            assert set(w["end_to_end"]) == {m["name"] for m in spec["end_to_end"]} | {"failed_frac"}
            assert set(w["per_layer"]) == {m["name"] for m in spec["per_layer"]}
            assert w["end_to_end"]["failed_frac"]["value"] == 0, name
            assert w["info"]["nnz"] > 0 and w["info"]["queries_kept"] > 0
        same = run(HERE / "compare.py", out, out)
        assert same.returncode == 0, same.stdout[-2000:]
    finally:
        out.unlink(missing_ok=True)


def test_single_workload_prints_the_contract_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run(HERE / "run.py", "--workload", "dash8d_serve", "--seed", "3",
               "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = run(tmp_path / "benchmarks" / "e2e" / "run.py", "--workload", "dash8d_serve",
               "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
