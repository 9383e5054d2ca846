"""Command-line interface: plan, construct, and inspect data cubes.

Installed as ``repro-cube`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.  Subcommands:

- ``plan``       closed-form planning table (ordering, partition, volume,
                 memory bounds) for a shape across cluster sizes;
- ``construct``  run the full construction on an execution backend
                 (``--backend sim`` simulates, ``--backend process`` runs
                 real OS processes) and report measured metrics against
                 the theory;
- ``sweep``      compare every partition choice at one cluster size;
- ``tree``       render the prefix/aggregation trees and the schedule;
- ``views``      greedy view selection under a space budget;
- ``serve-replay`` replay a query workload through the serving layer and
                 compare per-query / batched / cached throughput;
- ``check``      statically verify a plan's communication protocol and
                 closed forms before running it (``repro.analysis``), with
                 optional traced-run linting (live or from an exported
                 trace via ``--run-trace``);
- ``sched``      construction schedulers (``repro.sched``): ``sched list``
                 names the built-in strategies, ``sched compare`` runs
                 the same build under each and tabulates communication
                 volume, per-rank memory peak, and simulated makespan;
- ``trace``      run telemetry (``repro.obs``): ``trace export`` writes a
                 Perfetto-loadable Chrome trace of a construction,
                 ``trace summarize`` renders phase/idle/memory reports
                 from an exported file, ``trace diff`` compares two runs,
                 ``trace flame`` writes collapsed stacks (flamegraph
                 input) from the continuous span profiler;
- ``top``        run a construction with the live snapshot bus attached
                 and render per-rank progress frames while it runs;
- ``slo``        serving SLOs: ``slo check`` replays a workload and
                 judges a latency objective with multi-window burn-rate
                 alerting.

All output is plain text; every command is deterministic given ``--seed``
(``top`` frames depend on wall-clock sampling, the build result does not).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, Mapping, Sequence

from repro.util import human_bytes, human_count, node_letters


def _shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(p) for p in text.replace("x", ",").split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}") from None
    if not shape or any(s <= 0 for s in shape):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}")
    return shape


def _bits(text: str) -> tuple[int, ...]:
    try:
        bits = tuple(int(p) for p in text.replace("x", ",").split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bits {text!r}") from None
    if not bits or any(b < 0 for b in bits):
        raise argparse.ArgumentTypeError(f"bad bits {text!r}")
    return bits


def _power_of_two(text: str) -> int:
    v = int(text)
    if v <= 0 or v & (v - 1):
        raise argparse.ArgumentTypeError("processor count must be a power of two")
    return v


def _fault_plan(text: str):
    if not text:
        return None
    from repro.cluster.faults import FaultPlan

    try:
        return FaultPlan.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _time_label(backend: str) -> str:
    """Label for a run's elapsed time: real backends report wall time."""
    return "simulated time" if backend == "sim" else "wall time"


def _add_backend_arg(p: argparse.ArgumentParser) -> None:
    """Attach the shared ``--backend`` / ``--pool`` options to a subparser."""
    from repro.exec.registry import available_backends

    p.add_argument(
        "--backend",
        choices=list(available_backends()),
        default="sim",
        help="execution backend: 'sim' (deterministic simulator, default), "
             "'process' (real OS processes, forked after partition), or "
             "'thread' (GIL-releasing threads in this process); "
             "see 'backends list'",
    )
    p.add_argument(
        "--pool",
        action="store_true",
        help="warm a persistent worker pool before the build and reuse it "
             "across every build this command runs (pooling backends only, "
             "e.g. --backend thread)",
    )


@contextlib.contextmanager
def _cli_backend(args: argparse.Namespace):
    """The ``backend=`` value for builds, honoring ``--pool``.

    Without ``--pool`` this is just the name string (each build creates
    and closes its own backend).  With it, one backend instance with a
    warmed worker pool is opened here and passed to every build --
    caller-owned instances keep their pool across builds -- then closed
    on exit.  A non-pooling backend raises ``ValueError`` (rendered by
    each subcommand's standard error path).
    """
    if not getattr(args, "pool", False):
        yield args.backend
        return
    from repro.exec.registry import BACKEND_CLASSES

    backend_cls = BACKEND_CLASSES[args.backend]
    if not backend_cls.supports_pooling:
        pooling = ", ".join(
            name for name, cls in BACKEND_CLASSES.items() if cls.supports_pooling
        )
        raise ValueError(
            f"--pool requires a pooling backend; {args.backend!r} does not "
            f"support persistent worker pools (pooling backends: {pooling})"
        )
    backend = backend_cls()
    try:
        yield backend.open()
    finally:
        backend.close()


def _scheduler_spec(text: str) -> str:
    """Validate ``--scheduler`` against the scheduler table, with its own error."""
    from repro.sched import get_scheduler

    try:
        get_scheduler(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_scheduler_arg(p: argparse.ArgumentParser) -> None:
    """Attach the shared ``--scheduler`` option to a subparser."""
    p.add_argument(
        "--scheduler",
        type=_scheduler_spec,
        default="fig5",
        metavar="SPEC",
        help="construction scheduler: 'fig5' (the paper's optimal schedule, "
             "default), 'shuffle' (MapReduce-style batch shuffle), or "
             "'marginals-<k>[-shuffle]' (only the order-k group-bys)",
    )


# -- subcommands ----------------------------------------------------------------------


def cmd_plan(args: argparse.Namespace, out) -> int:
    """``plan``: closed-form planning table across cluster sizes."""
    from repro.core.memory_model import (
        parallel_memory_bound_exact,
        sequential_memory_bound,
    )
    from repro.core.ordering import apply_order, canonical_order
    from repro.core.partition import describe_partition, greedy_partition
    from repro.core.comm_model import total_comm_volume

    shape = args.shape
    order = canonical_order(shape)
    ordered = apply_order(shape, order)
    print(f"shape {shape} -> ordering {order} -> {ordered}", file=out)
    print(
        f"sequential memory bound: "
        f"{human_count(sequential_memory_bound(ordered))} elements",
        file=out,
    )
    print(f"{'procs':>6} {'partition':>26} {'comm volume':>12} {'mem/proc':>10}",
          file=out)
    k = 0
    while 2 ** k <= args.max_procs:
        try:
            bits = greedy_partition(ordered, k)
        except ValueError:
            break
        print(
            f"{2 ** k:>6} {describe_partition(bits):>26} "
            f"{human_count(total_comm_volume(ordered, bits)):>12} "
            f"{human_count(parallel_memory_bound_exact(ordered, bits)):>10}",
            file=out,
        )
        k += 1
    return 0


def cmd_construct(args: argparse.Namespace, out) -> int:
    """``construct``: run a construction, report measurements vs theory."""
    from repro.arrays.dataset import random_sparse
    from repro.core.plan import plan_cube
    from repro.core.sequential import verify_cube

    data = random_sparse(args.shape, args.sparsity, seed=args.seed)
    try:
        plan = plan_cube(
            args.shape, num_processors=args.procs, scheduler=args.scheduler
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(plan.describe(), file=out)
    print(f"input: nnz={data.nnz} ({data.sparsity:.1%})", file=out)
    fault_plan = args.fault_plan
    if fault_plan is not None:
        print(fault_plan.describe(), file=out)
    from repro.cluster.runtime import DeadlockError
    from repro.exec import WorkerError

    try:
        with _cli_backend(args) as backend:
            run = plan.run_parallel(
                data,
                collect_results=args.verify,
                fault_plan=fault_plan,
                checkpoint=args.checkpoint,
                recv_timeout=args.recv_timeout,
                backend=backend,
                trace_out=args.trace_out,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    except WorkerError as exc:
        print(f"construction failed: {exc}", file=out)
        if not args.checkpoint:
            print("hint: rerun with --checkpoint so the supervisor can "
                  "respawn a crashed rank from its checkpoint", file=out)
        return 1
    except DeadlockError as exc:
        print(f"construction stalled ({exc})", file=out)
        if args.checkpoint:
            print("hint: recovery covers single-rank crashes; message loss "
                  "or multiple faults can still defeat detection", file=out)
        else:
            print("hint: rerun with --checkpoint to recover from rank "
                  "crashes", file=out)
        return 1
    print(f"{_time_label(run.backend)}: {run.elapsed_s:.4f} s", file=out)
    if args.trace_out:
        print(f"trace written to {args.trace_out}", file=out)
    print(
        f"communication: {human_count(run.comm_volume_elements)} elements "
        f"({human_bytes(run.comm_volume_bytes)}), "
        f"{run.metrics.comm.total_messages} messages",
        file=out,
    )
    if fault_plan is not None or args.checkpoint:
        # Faults and recovery legitimately perturb the message pattern
        # (drops, adopted sends turned local), so Theorem 3 equality is
        # only claimed for the fault-free fragile program.
        ok = True
        print(
            "Theorem 3 check: skipped (faults/recovery change the "
            "message pattern)",
            file=out,
        )
        if run.metrics.faults.any:
            print(f"faults: {run.metrics.faults.summary()}", file=out)
    else:
        ok = run.comm_volume_elements == run.expected_comm_volume_elements
        vol_label = (
            "Theorem 3 check"
            if run.scheduler == "fig5"
            else f"declared-volume check ({run.scheduler})"
        )
        print(
            f"{vol_label}: predicted "
            f"{human_count(run.expected_comm_volume_elements)} -> "
            f"{'exact match' if ok else 'MISMATCH'}",
            file=out,
        )
    print(
        f"peak memory per rank: "
        f"{human_count(run.max_peak_memory_elements)} elements "
        f"(bound {human_count(plan.parallel_memory_bound_elements)})",
        file=out,
    )
    if args.verify:
        # run.results is keyed and axis-ordered by the caller's dimensions,
        # so it is checked against the caller's data, not the plan's.
        verify_cube(run.results, data, targets=plan.target_nodes)
        print(
            f"all {len(run.results)} aggregates verified against direct "
            f"recomputation",
            file=out,
        )
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace, out) -> int:
    """``sweep``: predicted volume of every partition choice."""
    from repro.baselines.partitions import all_partition_choices
    from repro.core.ordering import apply_order, canonical_order

    shape = apply_order(args.shape, canonical_order(args.shape))
    k = args.procs.bit_length() - 1
    print(f"partition sweep for {shape} on {args.procs} processors:", file=out)
    for choice in all_partition_choices(shape, k):
        print(
            f"  {choice.name:>26}: {human_count(choice.comm_volume_elements):>10}"
            " elements",
            file=out,
        )
    return 0


def cmd_tree(args: argparse.Namespace, out) -> int:
    """``tree``: render the prefix/aggregation trees (and schedule)."""
    from repro.viz import (
        render_aggregation_tree,
        render_prefix_tree,
        render_schedule,
    )

    n = args.dims if args.shape is None else len(args.shape)
    print("prefix tree (Definition 2):", file=out)
    print(render_prefix_tree(n), file=out)
    print("\naggregation tree (Definition 3):", file=out)
    print(render_aggregation_tree(n, shape=args.shape), file=out)
    if args.schedule:
        print("\nschedule (Fig 3, right-to-left DFS):", file=out)
        print(render_schedule(n), file=out)
    return 0


def cmd_views(args: argparse.Namespace, out) -> int:
    """``views``: greedy view selection under a space budget."""
    from repro.olap.view_selection import greedy_select_views

    sel = greedy_select_views(args.shape, args.budget)
    print(
        f"selected {len(sel.views)} views using "
        f"{human_count(sel.space_used_elements)} of "
        f"{human_count(sel.budget_elements)} elements",
        file=out,
    )
    for view, benefit in sel.trace:
        print(
            f"  {node_letters(view):>6}: benefit {human_count(benefit)}",
            file=out,
        )
    print(
        f"workload cost: {human_count(sel.workload_cost_before)} -> "
        f"{human_count(sel.workload_cost_after)} "
        f"({sel.improvement_factor:.1f}x better)",
        file=out,
    )
    return 0


def cmd_build(args: argparse.Namespace, out) -> int:
    """``build``: construct a cube from generated facts and save it."""
    from repro.arrays.dataset import random_sparse, zipf_sparse
    from repro.arrays.persist import save_cube, save_sparse
    from repro.core.plan import plan_cube

    if args.skew:
        size = 1
        for s_ in args.shape:
            size *= s_
        data = zipf_sparse(
            args.shape, nnz=int(round(args.sparsity * size)), seed=args.seed
        )
    else:
        data = random_sparse(args.shape, args.sparsity, seed=args.seed)
    try:
        plan = plan_cube(
            args.shape, num_processors=args.procs, scheduler=args.scheduler
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    try:
        with _cli_backend(args) as backend:
            run = plan.run_parallel(
                data, measure=args.measure, backend=backend,
                trace_out=args.trace_out,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    save_cube(args.out, run.results, args.shape, measure_name=args.measure)
    kind = "simulated" if run.backend == "sim" else "real"
    print(
        f"built {len(run.results)} aggregates on {args.procs} {kind} "
        f"processors in {run.elapsed_s:.4f} s "
        f"({human_count(run.comm_volume_elements)} elements moved)",
        file=out,
    )
    print(f"cube saved to {args.out}", file=out)
    if args.trace_out:
        print(f"trace written to {args.trace_out}", file=out)
    if args.facts_out:
        save_sparse(args.facts_out, data)
        print(f"facts saved to {args.facts_out}", file=out)
    return 0


def cmd_query(args: argparse.Namespace, out) -> int:
    """``query``: answer a group-by query from a saved cube."""
    import numpy as np

    from repro.arrays.persist import load_cube
    from repro.core.plan import plan_cube
    from repro.olap.cube import DataCube
    from repro.olap.query import GroupByQuery, QueryEngine
    from repro.olap.schema import Schema

    aggregates, shape, measure = load_cube(args.cube)
    node = tuple(sorted(args.dims)) if args.dims else ()
    if node and (min(node) < 0 or max(node) >= len(shape)):
        print(f"error: dims out of range for {len(shape)} dimensions", file=out)
        return 2
    schema = Schema.simple(**{f"d{i}": s for i, s in enumerate(shape)})
    cube = DataCube(schema, plan_cube(shape), aggregates, measure_name=measure)
    try:
        result = QueryEngine(cube).execute(GroupByQuery(schema.names_of(node)))
    except (LookupError, ValueError):
        print("error: no materialized view covers this query", file=out)
        return 2
    print(f"group-by over dims {node} (measure={measure}, "
          f"served from {schema.node_of(result.served_by)}):", file=out)
    data = np.asarray(result.values)
    if data.ndim == 0:
        print(f"  {float(data):.4f}", file=out)
    else:
        flat = data.reshape(-1)
        head = ", ".join(f"{v:.2f}" for v in flat[:8])
        more = "" if flat.size <= 8 else f", ... ({flat.size} cells)"
        print(f"  shape={data.shape}: [{head}{more}]", file=out)
    return 0


def cmd_delta(args: argparse.Namespace, out) -> int:
    """``delta``: absorb new facts into saved facts + cube (refresh)."""
    from repro.arrays.dataset import random_sparse
    from repro.arrays.persist import load_sparse, save_cube, save_sparse
    from repro.olap.maintenance import merge_sparse
    from repro.core.plan import plan_cube

    base = load_sparse(args.facts)
    delta = random_sparse(base.shape, args.sparsity, seed=args.seed)
    merged = merge_sparse(base, delta)
    plan = plan_cube(base.shape, num_processors=args.procs)
    run = plan.run_parallel(merged, measure=args.measure)
    save_sparse(args.facts, merged)
    save_cube(args.cube, run.results, tuple(base.shape),
              measure_name=args.measure)
    print(
        f"absorbed {delta.nnz} new facts (total {merged.nnz}); cube "
        f"rebuilt in {run.simulated_time_s:.4f} simulated s",
        file=out,
    )
    return 0


def cmd_serve_replay(args: argparse.Namespace, out) -> int:
    """``serve-replay``: replay a workload through the serving modes."""
    import numpy as np

    from repro.olap.schema import Schema
    from repro.olap.cube import DataCube
    from repro.olap.workload import WorkloadSpec, generate_workload
    from repro.serve import MODES, replay

    schema = Schema.simple(
        **{f"d{i}": s for i, s in enumerate(args.shape)}
    )
    rng = np.random.default_rng(args.seed)
    data = rng.random(schema.shape)
    cube = DataCube.build(schema, data)
    spec = WorkloadSpec(
        num_queries=args.queries,
        zipf_exponent=args.zipf,
        filter_probability=args.filter_probability,
    )
    queries = generate_workload(schema, spec, seed=args.seed)
    modes = [args.mode] if args.mode else list(MODES)
    print(
        f"replaying {len(queries)} queries over shape {schema.shape} "
        f"(zipf={args.zipf}, filter p={args.filter_probability})",
        file=out,
    )
    baseline = None
    header = (
        f"{'mode':>10} {'queries/s':>12} {'p50 ms':>9} {'p95 ms':>9} "
        f"{'p99 ms':>9} {'cells':>12} {'hit rate':>9} {'speedup':>8}"
    )
    print(header, file=out)
    for mode in modes:
        stats = replay(
            cube,
            queries,
            mode=mode,
            batch_size=args.batch_size,
            cache_size=args.cache_size,
        )
        if mode == "per-query":
            baseline = stats.throughput_qps
        speedup = (
            f"{stats.throughput_qps / baseline:.2f}x" if baseline else "-"
        )
        print(
            f"{mode:>10} {stats.throughput_qps:>12,.0f} "
            f"{stats.latency_p50_ms:>9.3f} {stats.latency_p95_ms:>9.3f} "
            f"{stats.latency_p99_ms:>9.3f} {stats.cells_scanned:>12,} "
            f"{stats.cache_hit_rate:>8.1%} {speedup:>8}",
            file=out,
        )
    return 0


def cmd_top(args: argparse.Namespace, out) -> int:
    """``top``: run a construction, rendering the live per-rank view."""
    import threading

    from repro.arrays.dataset import random_sparse
    from repro.core.plan import plan_cube
    from repro.obs.live import LiveRunView
    from repro.obs.profile import ProfileResult

    data = random_sparse(args.shape, args.sparsity, seed=args.seed)
    try:
        plan = plan_cube(args.shape, num_processors=args.procs)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    view = LiveRunView(
        interval_s=args.interval,
        memory_bound_elements=plan.parallel_memory_bound_elements,
    )
    outcome: dict[str, object] = {}

    def _build(backend) -> None:
        try:
            outcome["run"] = plan.run_parallel(
                data,
                trace=True,
                collect_results=False,
                backend=backend,
                live=view,
            )
        except BaseException as exc:  # surfaced after the last frame
            outcome["error"] = exc

    try:
        with _cli_backend(args) as backend:
            worker = threading.Thread(
                target=_build, args=(backend,), name="repro-top-build",
                daemon=True,
            )
            worker.start()
            while True:
                worker.join(timeout=args.interval)
                print(view.render(), file=out)
                if args.once or not worker.is_alive():
                    break
                print("", file=out)
            worker.join()
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if "error" in outcome:
        print(f"build failed: {outcome['error']}", file=out)
        return 1
    run = outcome["run"]
    prof = ProfileResult.from_view(view)
    if prof.samples_total:
        phases = ", ".join(
            f"{name} {frac:.0%}"
            for name, frac in sorted(
                prof.phase_fractions().items(), key=lambda kv: -kv[1]
            )
        )
        print(
            f"live profile: {prof.samples_total} snapshot samples -- "
            f"{phases or '(none attributed)'}",
            file=out,
        )
    print(
        f"build finished: {_time_label(run.backend)} {run.elapsed_s:.4f} s, "
        f"{view.snapshot_count} snapshots folded",
        file=out,
    )
    return 0


def cmd_slo(args: argparse.Namespace, out) -> int:
    """``slo check``: judge a latency SLO over a replayed workload."""
    import numpy as np

    from repro.obs import SLO, BurnRateMonitor, MetricsRegistry
    from repro.olap.schema import Schema
    from repro.olap.cube import DataCube
    from repro.olap.workload import WorkloadSpec, generate_workload
    from repro.serve import replay

    schema = Schema.simple(
        **{f"d{i}": s for i, s in enumerate(args.shape)}
    )
    rng = np.random.default_rng(args.seed)
    cube = DataCube.build(schema, rng.random(schema.shape))
    spec = WorkloadSpec(
        num_queries=args.queries,
        zipf_exponent=args.zipf,
        filter_probability=args.filter_probability,
    )
    queries = generate_workload(schema, spec, seed=args.seed)
    registry = MetricsRegistry()
    try:
        slo = SLO(
            name=args.name,
            metric="serve.latency_ms",
            threshold_ms=args.threshold_ms,
            objective=args.objective,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    monitor = BurnRateMonitor(slo, registry)
    monitor.check()  # baseline checkpoint: windowed rates cover the replay
    stats = replay(
        cube,
        queries,
        mode=args.mode,
        batch_size=args.batch_size,
        cache_size=args.cache_size,
        metrics=registry,
    )
    status, fired = monitor.check()
    print(
        f"replayed {stats.queries} queries ({args.mode}) at "
        f"{stats.throughput_qps:,.0f} queries/s; p99 "
        f"{stats.latency_p99_ms:.3f} ms",
        file=out,
    )
    print(status.format(), file=out)
    if fired:
        for w in fired:
            print(
                f"  ALERT {w.long_s:g}s/{w.short_s:g}s: burn rate exceeds "
                f"{w.max_burn_rate:g}x in both windows",
                file=out,
            )
    else:
        print("  burn-rate alerts: none firing", file=out)
    return 0 if status.ok and not fired else 1


def cmd_check(args: argparse.Namespace, out) -> int:
    """``check``: static plan verification (and optional run lint)."""
    from repro.analysis import check_model, lint_trace, parse_kill, verify_plan
    from repro.core.ordering import apply_order, canonical_order
    from repro.core.partition import greedy_partition

    shape = apply_order(args.shape, canonical_order(args.shape))
    if args.bits is not None:
        bits = args.bits
        if len(bits) != len(shape):
            print("error: --bits needs one entry per dimension", file=out)
            return 2
    else:
        k = args.procs.bit_length() - 1
        bits = greedy_partition(shape, k)
    # --model records each scenario once: its static result *is* the plan
    # verification, so the plan is never recorded or checked twice.
    try:
        if args.model:
            result = check_model(
                shape,
                bits,
                scheduler=args.scheduler,
                detection_round=args.detection_round,
                kill=parse_kill(args.kill) if args.kill else None,
                mem_cap_bytes=args.mem_cap,
            )
            verification = result.plan
        else:
            verification = verify_plan(
                shape,
                bits,
                detection_round=args.detection_round,
                scheduler=args.scheduler,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    print(verification.describe(), file=out)
    ok = verification.ok

    if args.run:
        import numpy as np

        from repro.core.parallel import construct_cube_parallel

        size = 1
        for s in shape:
            size *= s
        data = np.arange(size, dtype=float).reshape(shape)
        with _cli_backend(args) as backend:
            run = construct_cube_parallel(
                data, bits, trace=True, collect_results=False,
                backend=backend, scheduler=args.scheduler,
            )
        report = lint_trace(run.metrics, shape=shape, bits=bits, scheduler=args.scheduler)
        measured = run.metrics.comm.total_elements
        match = measured == verification.predicted_volume_elements
        print(
            f"traced run: {measured} elements moved "
            f"({'matches' if match else 'DIFFERS FROM'} the static "
            f"prediction)",
            file=out,
        )
        print(report.format(), file=out)
        ok = ok and match and report.ok

    if args.model:
        # The plan's findings were printed above; only exploration is new.
        print(result.certificate(), file=out)
        print(result.exploration_report.format(), file=out)
        ok = ok and result.certified

    if args.run_trace:
        report = lint_trace(args.run_trace, shape=shape, bits=bits, scheduler=args.scheduler)
        print(f"lint of exported trace {args.run_trace}:", file=out)
        print(report.format(), file=out)
        ok = ok and report.ok

    return 0 if ok else 1


def _print_listing(table: Mapping[str, Any], out) -> None:
    """``name  description`` rows for ``backends list`` and ``sched list``:
    the name column padded to the longest name."""
    width = max(map(len, table))
    for name, cls in table.items():
        print(f"{name:<{width}}  {cls.description}", file=out)


def cmd_backends(args: argparse.Namespace, out) -> int:
    """``backends``: list the execution backends."""
    from repro.exec.registry import BACKEND_CLASSES

    _print_listing(BACKEND_CLASSES, out)
    return 0


def cmd_sched(args: argparse.Namespace, out) -> int:
    """``sched``: list the schedulers or compare them on one build."""
    from repro.sched import get_scheduler
    from repro.sched.registry import SCHEDULER_CLASSES

    if args.sched_cmd == "list":
        _print_listing(SCHEDULER_CLASSES, out)
        return 0

    # compare
    from repro.arrays.dataset import random_sparse
    from repro.core.comm_model import total_comm_volume
    from repro.core.ordering import apply_order, canonical_order
    from repro.core.partition import greedy_partition

    shape = apply_order(args.shape, canonical_order(args.shape))
    k = args.procs.bit_length() - 1
    bits = greedy_partition(shape, k)
    specs = [s for s in args.schedulers.split(",") if s]
    for spec in specs:
        try:
            sched = get_scheduler(spec)
            sched.validate_shape(shape)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
    sparsities = [float(s) for s in args.sparsities.split(",") if s]
    print(
        f"scheduler comparison: shape {shape}, {args.procs} processors, "
        f"partition {bits}",
        file=out,
    )
    header = (
        f"{'sparsity':>9} {'scheduler':>22} {'group-bys':>9} "
        f"{'comm elements':>13} {'msgs':>6} {'peak mem':>9} {'makespan s':>11}"
    )
    print(header, file=out)
    ok = True
    from repro.core.parallel import construct_cube_parallel

    with contextlib.ExitStack() as stack:
        backend = stack.enter_context(_cli_backend(args))
        for sparsity in sparsities:
            data = random_sparse(shape, sparsity, seed=args.seed)
            for spec in specs:
                sched = get_scheduler(spec)
                run = construct_cube_parallel(
                    data, bits, scheduler=spec, collect_results=False,
                    backend=backend,
                )
                declared = sched.declared_volume(shape, bits)
                match = run.comm_volume_elements == declared
                ok = ok and match
                n_nodes = (
                    len(sched.target_nodes(len(shape)) or [])
                    or 2 ** len(shape) - 1
                )
                print(
                    f"{sparsity:>9.2f} {spec:>22} {n_nodes:>9} "
                    f"{run.comm_volume_elements:>13} "
                    f"{run.metrics.comm.total_messages:>6} "
                    f"{run.max_peak_memory_elements:>9} "
                    f"{run.simulated_time_s:>11.4f}"
                    f"{'' if match else '  VOLUME MISMATCH'}",
                    file=out,
                )
            if "fig5" in specs:
                theorem3 = total_comm_volume(shape, bits)
                fig5_declared = get_scheduler("fig5").declared_volume(shape, bits)
                if fig5_declared != theorem3:
                    ok = False
                    print("  fig5 declared volume != Theorem 3", file=out)
    if "fig5" in specs and ok:
        print(
            f"fig5 volume equals Theorem 3 closed form "
            f"({total_comm_volume(shape, bits)} elements) at every point",
            file=out,
        )
    return 0 if ok else 1


def cmd_trace(args: argparse.Namespace, out) -> int:
    """``trace``: export, summarize, and diff run telemetry."""
    from repro.obs import (
        diff_runs,
        load_run,
        summarize_run,
        write_chrome_trace,
        write_jsonl,
    )

    if args.trace_cmd == "export":
        from repro.arrays.dataset import random_sparse
        from repro.core.plan import plan_cube

        data = random_sparse(args.shape, args.sparsity, seed=args.seed)
        plan = plan_cube(args.shape, num_processors=args.procs)
        with _cli_backend(args) as backend:
            run = plan.run_parallel(
                data, trace=True, collect_results=False, backend=backend
            )
        if args.format == "chrome":
            write_chrome_trace(run.metrics, args.out)
        else:
            write_jsonl(run.metrics, args.out)
        print(
            f"traced {args.procs}-rank {args.backend} build of "
            f"{args.shape}: {len(run.metrics.spans)} spans, "
            f"{len(run.metrics.trace)} events -> {args.out}",
            file=out,
        )
        return 0
    if args.trace_cmd == "flame":
        from repro.arrays.dataset import random_sparse
        from repro.core.plan import plan_cube
        from repro.obs.profile import ProfileResult, write_collapsed

        data = random_sparse(args.shape, args.sparsity, seed=args.seed)
        plan = plan_cube(args.shape, num_processors=args.procs)
        with _cli_backend(args) as backend:
            run = plan.run_parallel(
                data, trace=True, collect_results=False, backend=backend
            )
        result = ProfileResult.from_run(run.metrics, interval_s=args.interval)
        path = write_collapsed(result, args.out)
        print(
            f"profiled {args.procs}-rank {args.backend} build of "
            f"{args.shape}: {result.samples_total} samples at "
            f"{args.interval * 1e3:g} ms, "
            f"{result.attribution_fraction:.1%} attributed to named spans "
            f"-> {path}",
            file=out,
        )
        return 0
    if args.trace_cmd == "summarize":
        print(summarize_run(load_run(args.trace_file)), file=out)
        return 0
    # diff
    print(diff_runs(load_run(args.a), load_run(args.b)), file=out)
    return 0


# -- parser ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-cube`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cube",
        description="Communication and memory optimal parallel data cube construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="closed-form planning table")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--max-procs", type=_power_of_two, default=64)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("construct", help="run a cube construction")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--procs", type=_power_of_two, default=8)
    p.add_argument("--sparsity", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="collect results and verify against recomputation")
    p.add_argument("--fault-plan", type=_fault_plan, default=None,
                   metavar="SPEC",
                   help="inject faults, e.g. 'crash:3@0.5;drop:0.05;seed=7' "
                        "(clauses: seed=N crash:R@T kill:R@OP straggler:R@F "
                        "nic:R@F[:LO-HI] drop:P[@S->D] dup:P[@S->D]); "
                        "with --backend process only kill/straggler/nic/dup "
                        "are supported (time-based crash and drop are "
                        "simulator-only)")
    p.add_argument("--checkpoint", action="store_true",
                   help="fault-tolerant run: checkpoint first-level partials "
                        "and recover a crashed rank via its buddy")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the run's Chrome trace-event JSON "
                        "(Perfetto-loadable) to PATH")
    p.add_argument("--recv-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="failure-detection receive timeout in backend-clock "
                        "seconds (default: scaled to the machine model)")
    _add_backend_arg(p)
    _add_scheduler_arg(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("sweep", help="compare all partition choices")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--procs", type=_power_of_two, default=8)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("tree", help="render the paper's trees")
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--shape", type=_shape, default=None)
    p.add_argument("--schedule", action="store_true")
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("views", help="greedy view selection (HRU)")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--budget", type=int, required=True,
                   help="space budget in elements")
    p.set_defaults(fn=cmd_views)

    p = sub.add_parser("build", help="construct a cube and save it (.npz)")
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--procs", type=_power_of_two, default=8)
    p.add_argument("--sparsity", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skew", action="store_true",
                   help="Zipf-skewed facts instead of uniform")
    p.add_argument("--measure", choices=["sum", "count", "min", "max"],
                   default="sum")
    p.add_argument("--out", required=True, help="cube output path (.npz)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the build's Chrome trace-event JSON to PATH")
    p.add_argument("--facts-out", default=None,
                   help="also save the generated facts (.npz)")
    _add_backend_arg(p)
    _add_scheduler_arg(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser(
        "serve-replay",
        help="replay a query workload through the serving layer",
    )
    p.add_argument("--shape", type=_shape, default=(6, 6, 5, 5, 4, 4))
    p.add_argument("--queries", type=int, default=2000)
    p.add_argument("--zipf", type=float, default=2.0,
                   help="group-by popularity skew (must exceed 1.0)")
    p.add_argument("--filter-probability", type=float, default=0.2,
                   help="chance each unmentioned dimension gets a filter")
    p.add_argument("--batch-size", type=int, default=1024)
    p.add_argument("--cache-size", type=int, default=4096,
                   help="LRU result-cache entries for cached mode")
    p.add_argument("--mode", choices=["per-query", "batched", "cached"],
                   default=None, help="run one mode (default: all three)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_serve_replay)

    p = sub.add_parser(
        "check",
        help="statically verify a plan's protocol and closed forms",
    )
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--procs", type=_power_of_two, default=8)
    p.add_argument("--bits", type=_bits, default=None, metavar="B0,B1,...",
                   help="explicit bits per (ordered) dimension instead of "
                        "the Theorem 8 optimum")
    p.add_argument("--detection-round", action="store_true",
                   help="include the fault-tolerant program's barrier + "
                        "heartbeat round in the verified schedule")
    p.add_argument("--run", action="store_true",
                   help="also run a traced construction and lint the trace")
    p.add_argument("--run-trace", default=None, metavar="PATH",
                   help="lint an exported run trace (Chrome JSON or JSONL "
                        "from repro.obs) instead of executing one")
    p.add_argument("--model", action="store_true",
                   help="run the rank-program model checker: happens-before "
                        "races, exhaustive-interleaving deadlock "
                        "certification, and static memory lifetimes (MC3xx)")
    p.add_argument("--mem-cap", type=int, default=None, metavar="BYTES",
                   help="with --model: also require every rank's static "
                        "memory high-water to fit in BYTES")
    p.add_argument("--kill", default=None, metavar="RANK@OP",
                   help="with --model: also explore one fault scenario "
                        "(crash RANK before its OP-th model op) after the "
                        "fault-free program")
    _add_backend_arg(p)
    _add_scheduler_arg(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "backends",
        help="list the execution backends (repro.exec)",
    )
    bsub = p.add_subparsers(dest="backends_cmd", required=True)

    bp = bsub.add_parser(
        "list", help="name every backend and describe it"
    )
    bp.set_defaults(fn=cmd_backends)

    p = sub.add_parser(
        "sched",
        help="list or compare construction schedulers (repro.sched)",
    )
    ssub = p.add_subparsers(dest="sched_cmd", required=True)

    sp = ssub.add_parser("list", help="name every scheduler")
    sp.set_defaults(fn=cmd_sched)

    sp = ssub.add_parser(
        "compare",
        help="run one build under several schedulers and tabulate "
             "communication volume, peak memory, and simulated makespan",
    )
    sp.add_argument("--shape", type=_shape, required=True)
    sp.add_argument("--procs", type=_power_of_two, default=8)
    sp.add_argument("--sparsities", default="0.3,0.1,0.05",
                    metavar="S0,S1,...",
                    help="sparsity sweep points (default: 0.3,0.1,0.05)")
    sp.add_argument("--schedulers", default="fig5,shuffle,marginals-1",
                    metavar="SPEC,SPEC,...",
                    help="comma-separated scheduler specs "
                         "(default: fig5,shuffle,marginals-1)")
    sp.add_argument("--seed", type=int, default=0)
    _add_backend_arg(sp)
    sp.set_defaults(fn=cmd_sched)

    p = sub.add_parser(
        "trace",
        help="export, summarize, and diff run telemetry (repro.obs)",
    )
    tsub = p.add_subparsers(dest="trace_cmd", required=True)

    tp = tsub.add_parser(
        "export", help="run a traced construction and write its trace"
    )
    tp.add_argument("--shape", type=_shape, required=True)
    tp.add_argument("--procs", type=_power_of_two, default=8)
    tp.add_argument("--sparsity", type=float, default=0.25)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--format", choices=["chrome", "jsonl"], default="chrome",
                    help="chrome: Perfetto-loadable trace-event JSON "
                         "(default); jsonl: one record per line")
    tp.add_argument("--out", required=True, help="trace output path")
    _add_backend_arg(tp)
    tp.set_defaults(fn=cmd_trace)

    tp = tsub.add_parser(
        "summarize",
        help="human-readable report of an exported trace (phases, idle "
             "skew, memory, comm, faults, metrics)",
    )
    tp.add_argument("trace_file", help="Chrome JSON or JSONL trace path")
    tp.set_defaults(fn=cmd_trace)

    tp = tsub.add_parser(
        "diff", help="compare two exported traces phase by phase"
    )
    tp.add_argument("a", help="baseline trace path")
    tp.add_argument("b", help="candidate trace path")
    tp.set_defaults(fn=cmd_trace)

    tp = tsub.add_parser(
        "flame",
        help="run a traced construction and write collapsed stacks "
             "(flamegraph.pl / speedscope input)",
    )
    tp.add_argument("--shape", type=_shape, required=True)
    tp.add_argument("--procs", type=_power_of_two, default=8)
    tp.add_argument("--sparsity", type=float, default=0.25)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--interval", type=float, default=0.001,
                    help="synthetic sampling interval in seconds "
                         "(default 1 ms)")
    tp.add_argument("--out", required=True,
                    help="collapsed-stack output path")
    _add_backend_arg(tp)
    tp.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "top",
        help="run a construction and render the live per-rank view",
    )
    p.add_argument("--shape", type=_shape, required=True)
    p.add_argument("--procs", type=_power_of_two, default=8)
    p.add_argument("--sparsity", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interval", type=float, default=0.25,
                   help="frame and snapshot cadence in seconds "
                        "(default 0.25)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame, then wait quietly for the "
                        "build instead of refreshing until it finishes")
    _add_backend_arg(p)
    # The simulator runs in virtual time and publishes no snapshots, so
    # top defaults to the real in-process backend.
    p.set_defaults(fn=cmd_top, backend="thread")

    p = sub.add_parser(
        "slo",
        help="serving SLOs: burn-rate evaluation over replayed workloads",
    )
    lsub = p.add_subparsers(dest="slo_cmd", required=True)

    lp = lsub.add_parser(
        "check",
        help="replay a workload and judge a latency SLO with "
             "multi-window burn-rate alerts",
    )
    lp.add_argument("--shape", type=_shape, default=(6, 6, 5, 5, 4, 4))
    lp.add_argument("--queries", type=int, default=500)
    lp.add_argument("--zipf", type=float, default=2.0,
                    help="group-by popularity skew (must exceed 1.0)")
    lp.add_argument("--filter-probability", type=float, default=0.2,
                    help="chance each unmentioned dimension gets a filter")
    lp.add_argument("--mode", choices=["per-query", "batched", "cached"],
                    default="cached",
                    help="serving mode to replay (default: cached)")
    lp.add_argument("--batch-size", type=int, default=1024)
    lp.add_argument("--cache-size", type=int, default=4096,
                    help="LRU result-cache entries for cached mode")
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--name", default="query-latency",
                    help="SLO name used in reports and slo.* metric labels")
    lp.add_argument("--threshold-ms", type=float, default=50.0,
                    help="an observation above this latency is a bad event")
    lp.add_argument("--objective", type=float, default=0.99,
                    help="required good fraction, e.g. 0.99 = p99 of "
                         "queries under the threshold")
    lp.set_defaults(fn=cmd_slo)

    p = sub.add_parser("query", help="answer a group-by from a saved cube")
    p.add_argument("--cube", required=True, help="cube path (.npz)")
    p.add_argument("--dims", type=int, nargs="*", default=[],
                   help="dimension indices to group by (empty = grand total)")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("delta", help="absorb new facts and refresh a cube")
    p.add_argument("--facts", required=True, help="saved facts path (.npz)")
    p.add_argument("--cube", required=True, help="cube path to refresh")
    p.add_argument("--procs", type=_power_of_two, default=8)
    p.add_argument("--sparsity", type=float, default=0.02,
                   help="density of the synthetic delta batch")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--measure", choices=["sum", "count", "min", "max"],
                   default="sum")
    p.set_defaults(fn=cmd_delta)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return args.fn(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
