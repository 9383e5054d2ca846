"""Facts-to-query benchmark: one command, every metric.

    python3 benchmarks/e2e/run.py --workload all --seed 7 --set mine
    python3 benchmarks/e2e/run.py --workload dash8d_serve --seed 3 --seconds 12 --trace 0

Each workload pass runs in a fresh child process (pinned BLAS/OMP threads,
hard timeout).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit status is 0 only when nothing failed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 170
SHM_PREFIXES = ("psm_", "sem.mp-", "repro-")


def declared() -> dict:
    """Metric names, units and bounds: ``BENCHMARK.json`` is the one list."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- child: one pass of one workload, in this process ----------------------------


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    if args.smoke:
        spec = workloads.smoke(spec)
    ops = measure.Ops()
    out = {"workload": spec.name, "trace": args.trace, "metrics": {}}
    inp = None
    try:
        inp = measure.generate(spec, args.seed)
        if args.trace:
            import traced

            out["metrics"], rec = traced.run(inp, args.seconds, ops, args.smoke, str(SRC))
            if not args.smoke:  # the thresholds describe the full-size workloads
                out["design"] = traced.design_checks(spec.name, out["metrics"])
            RESULTS.mkdir(exist_ok=True)
            rec.write(RESULTS / f"trace_{spec.name}.jsonl")
        else:
            import untraced

            out["metrics"] = untraced.run(inp, args.seconds, ops, T_START)
        out["info"] = workloads.describe(spec, args.seed, inp.stored_nnz, len(inp.queries))
        out["info"]["fallbacks_dropped"] = inp.fallbacks_dropped
        out["setup_stages"] = inp.stages
    except Exception as exc:  # the boundary: report the failure, exit non-zero
        import traceback

        traceback.print_exc()
        ops.attempted += 1
        ops.fail(f"{type(exc).__name__}: {exc}")
    finally:
        if inp is not None:
            inp.pool.close()
    stray = [t.name for t in threading.enumerate()
             if t is not threading.main_thread() and t.is_alive()]
    ops.check(not stray, f"threads still alive after the pool was closed: {stray}")
    out["ops"] = {"attempted": max(ops.attempted, 1), "failed": ops.failed,
                  "failures": ops.failures}
    out["wall_s"] = time.perf_counter() - T_START
    print(json.dumps(out))
    return 0 if ops.failed == 0 else 1


# -- parent: isolation, hygiene, reporting -----------------------------------------


def shm_entries() -> set:
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith(SHM_PREFIXES)}
    except OSError:
        return set()


def session_members(sid: int) -> list:
    """Pids still alive in session ``sid`` (field 6 of /proc/<pid>/stat)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def run_pass(args, workload: str, trace: int) -> dict:
    """One child process; returns its result with hygiene failures added."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    shm_before = shm_entries()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"workload": workload, "trace": trace, "metrics": {},
                  "ops": {"attempted": 1, "failed": 1, "failures": []}}
        why = "timed out" if timed_out else f"exited {proc.returncode} without a result"
        result["ops"]["failures"].append(f"{workload}: {why}")
    ops = result["ops"]
    # multiprocessing's resource tracker outlives its parent by a moment;
    # anything still there after the grace period was left behind.
    deadline = time.monotonic() + 3.0
    while (orphans := session_members(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if orphans:
        names = [Path("/proc", str(pid), "cmdline").read_text().replace("\0", " ")[:80]
                 if Path("/proc", str(pid)).exists() else "?" for pid in orphans]
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while session_members(proc.pid):
            time.sleep(0.05)
        ops["failed"] += 1
        ops["failures"].append(f"{workload}: child processes left behind: {names}")
    leaked = shm_entries() - shm_before
    if leaked:
        ops["failed"] += 1
        ops["failures"].append(f"{workload}: /dev/shm segments left behind: {sorted(leaked)}")
    return result


def print_result(title: str, result: dict) -> None:
    print(f"== {title}")
    for name, m in result["metrics"].items():
        extra = (f"  (best of {m['n']}; median {m['median']:.6g}, "
                 f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g})") if "n" in m else ""
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}{extra}")
    for check, c in result.get("design", {}).items():
        print(f"design {'ok  ' if c['ok'] else 'MISS'} {check}: {c['value']:.4g} (want {c['want']})")
    for failure in result["ops"]["failures"]:
        print("FAILED:", failure)


def contract_line(result: dict, names) -> str:
    ops = result["ops"]
    metrics = {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
               for n in names if n in result["metrics"]}
    return json.dumps({"correct": ops["failed"] == 0 and len(metrics) == len(names),
                       "attempted": ops["attempted"], "failed": ops["failed"],
                       "metrics": metrics})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per pass (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes; finishes in seconds, numbers mean nothing")
    parser.add_argument("--set", default="latest",
                        help="with --workload all: write results/<set>.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = declared()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.child:
        return child(args)

    names = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        result = run_pass(args, args.workload, args.trace)
        print_result(f"{args.workload} (seed {args.seed}, trace {args.trace})", result)
        print(contract_line(result, per_layer if args.trace else end_to_end))
        return 0 if result["ops"]["failed"] == 0 else 1

    import numpy

    report = {"set": args.set, "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
              "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "numpy": numpy.__version__, "machine": platform.machine()},
              "workloads": {}}
    attempted = failed = 0
    for name in names:
        flat, layered = run_pass(args, name, 0), run_pass(args, name, 1)
        print_result(f"{name}: end to end (seed {args.seed})", flat)
        print_result(f"{name}: per layer", layered)
        failures = flat["ops"]["failures"] + layered["ops"]["failures"]
        missing = [n for n in end_to_end if n not in flat["metrics"]] + \
                  [n for n in per_layer if n not in layered["metrics"]]
        if missing:
            failures.append(f"{name}: metrics not reported: {missing}")
            print("FAILED:", failures[-1])
        attempted += flat["ops"]["attempted"] + layered["ops"]["attempted"]
        failed += flat["ops"]["failed"] + layered["ops"]["failed"] + bool(missing)
        report["workloads"][name] = {
            "info": flat.get("info") or layered.get("info"),
            "end_to_end": flat["metrics"], "per_layer": layered["metrics"],
            "design": layered.get("design", {}),
            "setup_stages": flat.get("setup_stages"),
            "ops": {"attempted": flat["ops"]["attempted"] + layered["ops"]["attempted"],
                    "failed": flat["ops"]["failed"] + layered["ops"]["failed"],
                    "failures": failures},
            "wall_s": {"untraced": flat.get("wall_s"), "traced": layered.get("wall_s")},
        }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.set}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
