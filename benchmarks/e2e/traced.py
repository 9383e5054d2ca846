"""The traced pass: per-layer metrics, measured from outside the program.

Every call into a layer is wrapped in one of the benchmark's own spans
(``trace.Recorder``).  What happens inside a rank cannot be called from
outside, so the program's public ``trace=True`` output is read instead and
attached under the build span that produced it.

Two schedulers exist, and each names its in-rank phases differently.  So
that every ``sched.*`` timing is a measurement on every workload, the pass
runs one traced thread build with each scheduler: ``sched.first_level_s``,
``local_aggregate_s``, ``reduce_s``, ``writeback_s`` and
``core.staged_collect_s`` are always read from the fig5 build,
``sched.map_s`` and ``shuffle_reduce_s`` always from the shuffle build.
Everything else (shares, balance, volumes, overheads) is read from the
build with the workload's own scheduler.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from statistics import median

import numpy as np

import adapter
import oracle
import workloads
from measure import Inputs, Ops, build_variants, check_build, repeat, timed, value
from trace import Recorder, covered
from untraced import BATCH, batched_pass, check_answers, serve_pass

WALL_CLOCK_BACKENDS = ("thread", "process")
FIRST_LEVEL = {"fig5": "build.first_level", "shuffle": "build.map"}
#: Rank phases that are communication (and waiting for peers), not work.
EXCHANGE = ("build.reduce", "build.shuffle_reduce")


#: What the workloads were sized to show; a miss means a workload needs
#: resizing (see the README), it is not a failed operation.
DESIGN = {
    "fig7_first_level": [("core.first_level_share", ">=", 0.85),
                         ("exec.rank_busy_max_over_mean", "<=", 1.15)],
    "dash8d_serve": [("core.first_level_share", "<=", 0.35)],
    "zipf4d_shuffle": [("exec.rank_nnz_max_over_mean", ">=", 1.7),
                       ("exec.rank_busy_max_over_mean", ">=", 1.25)],
}
COVERAGE = [("obs.span_coverage_thread", ">=", 0.9), ("obs.span_coverage_process", ">=", 0.9)]


def design_checks(workload: str, metrics: dict) -> dict:
    out = {}
    for name, op, limit in DESIGN.get(workload, []) + COVERAGE:
        got = metrics[name]["value"]
        out[name] = {"value": got, "want": f"{op} {limit}",
                     "ok": bool(got >= limit if op == ">=" else got <= limit)}
    return out


def traced_build(rec: Recorder, inp: Inputs, data, backend: str, scheduler: str, ops: Ops):
    """One ``trace=True`` build under a span, its phases attached beneath.

    Returns ``(result, span, phases)`` with ``phases`` the list of
    ``(name, rank, start, end)`` the program reported.
    """
    build = build_variants(inp, data, scheduler, trace=True)[backend]
    ops.attempted += 1
    gc.collect()
    with rec.span(f"build.{backend}", scheduler=scheduler) as span:
        result = build()
    check_build(ops, inp, result, scheduler, f"traced {backend}/{scheduler} build")
    phases = adapter.build_spans(result)
    host = [p for p in phases if p[1] < 0]
    ranks = [p for p in phases if p[1] >= 0]
    for name, _, start, end in host:
        rec.add(name, start, end, parent=span["id"])
    if backend in WALL_CLOCK_BACKENDS:
        # Rank clocks start when the ranks are released, which is after the
        # host has partitioned the input: place them there.
        origin = max((end for name, _, _, end in host if name == "build.partition"),
                     default=span["start"])
        for name, rank, start, end in ranks:
            rec.add(name, origin + start, origin + end, parent=span["id"], lane=f"rank{rank}")
        span["coverage"] = covered(
            [(s, e) for _, _, s, e in host]
            + [(origin + s, origin + e) for _, _, s, e in ranks],
            span["start"], span["end"],
        ) / (span["end"] - span["start"])
    else:
        # Simulated seconds do not sit on the wall clock; keep the totals.
        totals = defaultdict(float)
        for name, _, start, end in ranks:
            totals[name] += end - start
        span["virtual_phase_s"] = dict(totals)
    return result, span, phases


def phase_totals(phases) -> dict:
    """Seconds per phase name, summed over ranks (host phases included)."""
    totals = defaultdict(float)
    for name, _, start, end in phases:
        totals[name] += end - start
    return totals


def busy_max_over_mean(phases) -> float:
    """Slowest rank over the mean rank, counting phases that are work, not exchange."""
    busy = defaultdict(float)
    for name, rank, start, end in phases:
        if rank >= 0 and name not in EXCHANGE:
            busy[rank] += end - start
    return max(busy.values()) / np.mean(list(busy.values()))


def first_level_share(phases, scheduler: str) -> float:
    """(partition + first level) over (partition + all rank span time)."""
    totals = phase_totals(phases)
    rank_sum = sum(end - start for _, rank, start, end in phases if rank >= 0)
    partition = totals["build.partition"]
    return (partition + totals[FIRST_LEVEL[scheduler]]) / (partition + rank_sum)


def run(inp: Inputs, seconds: float, ops: Ops, smoke: bool, repo_src: str):
    spec = inp.spec
    n = inp.n
    own = spec.scheduler
    other = "shuffle" if own == "fig5" else "fig5"
    rec = Recorder(f"{spec.name}-seed{inp.seed}")
    m: dict = {}

    # -- arrays ---------------------------------------------------------------------
    with rec.span("ingest", raw_facts=len(inp.values)):
        ops.attempted += 1
        dt, data = timed(lambda: adapter.ingest(spec.shape, inp.coords, inp.values,
                                                spec.chunk_shape))
    stored = inp.stored_nnz = adapter.nnz(data)
    m["arrays.ingest_mfacts_per_s"] = value(len(inp.values) / dt / 1e6, "1e6/s")
    m["arrays.ingest_dup_frac"] = value(1 - stored / len(inp.values), "fraction")

    with rec.span("build.serial"):
        ops.attempted += 1
        serial_s, serial = timed(lambda: adapter.build_serial(data))
    check_build(ops, inp, serial, None, "traced-pass serial build")
    del serial

    block_s, block_nnz = 0.0, []
    for rank, slices in enumerate(adapter.rank_slices(spec.shape, inp.bits)):
        with rec.span("extract_block", rank=rank):
            dt, block = timed(lambda: adapter.extract_block(data, slices))
        block_s += dt
        block_nnz.append(adapter.nnz(block))
    m["arrays.extract_block_s"] = value(block_s, "s")
    m["arrays.extract_block_frac_of_serial"] = value(block_s / serial_s, "ratio")
    m["exec.rank_nnz_max_over_mean"] = value(max(block_nnz) / np.mean(block_nnz), "ratio")

    children = adapter.first_level_targets(n)
    with rec.span("kernel.first_level", targets=len(children)):
        first_s, first_level = timed(lambda: adapter.kernel(data, children))
    with rec.span("kernel.all_targets", targets=2 ** n - 1):
        all_s, _ = timed(lambda: adapter.kernel(data, adapter.all_targets(n)))
    with rec.span("dense_rollup"):
        rollup_s, _ = timed(lambda: adapter.dense_rollups(n, first_level))
    del first_level
    m["arrays.first_level_kernel_s"] = value(first_s, "s")
    m["arrays.first_level_mfacts_per_s"] = value(stored / first_s / 1e6, "1e6/s")
    m["arrays.all_targets_kernel_s"] = value(all_s, "s")
    m["arrays.dense_rollup_s"] = value(rollup_s, "s")
    # Computed from array sizes, not measured: per stored fact the kernel
    # decodes n coordinates once, then per target does a multiply-add per
    # kept axis and one accumulate.  Bytes: 16 read + 8n written to decode;
    # per target 8(n-1) coordinates read, an 8-byte index written and read,
    # an 8-byte value read and a 16-byte accumulator read-modify-write.
    m["arrays.kernel_ops"] = value(stored * n * (2 * (n - 1) + 1), "count")
    m["arrays.kernel_bytes_computed"] = value(
        stored * (16 + 8 * n + n * (8 * (n - 1) + 40)), "bytes")

    # -- core / sched / exec: traced builds ------------------------------------------
    m["core.plan_s"] = value(median(repeat(
        lambda: adapter.plan(spec.shape, workloads.NUM_RANKS, own), 5)), "s")

    variants = build_variants(inp, data)
    untraced_s, traced_s, process_s, shares, balance = [], [], [], [], []
    start = time.perf_counter()
    while len(traced_s) < 3 or (
        time.perf_counter() - start < 0.3 * seconds and len(traced_s) < 5
    ):
        ops.attempted += 2
        with rec.span("build.thread.untraced"):
            dt, _ = timed(variants["thread"])
        untraced_s.append(dt)
        with rec.span("build.process.untraced"):
            dt, _ = timed(variants["process"])
        process_s.append(dt)
        thread, span, phases = traced_build(rec, inp, data, "thread", own, ops)
        traced_s.append(span["end"] - span["start"])
        # Four rank threads share two CPUs, so one build's per-rank times
        # wobble; the share and the balance are medians over these builds.
        shares.append(first_level_share(phases, own))
        balance.append(busy_max_over_mean(phases))
    m["core.first_level_share"] = value(median(shares), "fraction")
    m["exec.rank_busy_max_over_mean"] = value(median(balance), "ratio")
    m["obs.trace_overhead_frac"] = value(
        (median(traced_s) - median(untraced_s)) / median(untraced_s), "fraction")
    m["exec.process_cold_overhead_s"] = value(median(process_s) - median(untraced_s), "s")
    m["obs.spans_per_build"] = value(len(phases), "count")
    m["obs.span_coverage_thread"] = value(span["coverage"], "fraction")

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time()
    process, span, _ = traced_build(rec, inp, data, "process", own, ops)
    host_cpu = time.process_time() - cpu0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    m["obs.span_coverage_process"] = value(span["coverage"], "fraction")
    m["exec.process_cpu_s"] = value(child_cpu, "s")
    cpu0 = time.process_time()
    adapter.build_serial(data)
    m["exec.process_work_inflation"] = value(
        (child_cpu + host_cpu) / (time.process_time() - cpu0), "ratio")
    del process

    sim, _, _ = traced_build(rec, inp, data, "sim", own, ops)
    m["cluster.simulated_makespan_s"] = value(adapter.simulated_makespan(sim), "sim_s")
    m["cluster.sim_messages"] = value(adapter.comm_counts(sim)[0], "count")
    with rec.span("assemble_results"):
        dt, assembled = timed(lambda: adapter.reassemble(sim, spec.shape, inp.bits))
    m["core.assemble_s"] = value(dt, "s")
    ops.check_cube({k: v.data for k, v in assembled.items()}, inp.want, "assemble_results")
    del sim, assembled

    _, _, other_phases = traced_build(rec, inp, data, "thread", other, ops)
    by_scheduler = {own: phase_totals(phases), other: phase_totals(other_phases)}
    fig5, shuffle = by_scheduler["fig5"], by_scheduler["shuffle"]
    m["sched.first_level_s"] = value(fig5["build.first_level"], "s")
    m["sched.local_aggregate_s"] = value(fig5["build.local_aggregate"], "s")
    m["sched.reduce_s"] = value(fig5["build.reduce"], "s")
    m["sched.writeback_s"] = value(fig5["build.writeback"], "s")
    m["core.staged_collect_s"] = value(fig5["build.staged_collect"], "s")
    m["sched.map_s"] = value(shuffle["build.map"], "s")
    m["sched.shuffle_reduce_s"] = value(shuffle["build.shuffle_reduce"], "s")

    m["core.partition_s"] = value(by_scheduler[own]["build.partition"], "s")
    m["sched.program_steps"] = value(sum(1 for p in phases if p[1] >= 0), "count")
    messages, nbytes = adapter.comm_counts(thread)
    m["exec.messages"] = value(messages, "count")
    m["exec.bytes_sent"] = value(nbytes, "bytes")
    m["core.comm_volume_elements"] = value(adapter.comm_volume(thread), "count")
    m["core.theorem3_volume_elements"] = value(
        adapter.declared_volume(own, spec.shape, inp.bits), "count")
    m["core.peak_memory_elements"] = value(adapter.peak_memory(thread), "count")
    m["core.theorem4_bound_elements"] = value(
        adapter.declared_memory_bound(own, spec.shape, inp.bits), "count")
    del thread

    rounds = 200 if smoke else 5000
    with rec.span("pingpong.thread"):
        m["exec.thread_ops_per_s"] = value(adapter.pingpong_ops_per_s(
            inp.pool, workloads.NUM_RANKS, rounds), "1/s")
    with rec.span("pingpong.process"):
        m["exec.process_ops_per_s"] = value(adapter.pingpong_ops_per_s(
            "process", workloads.NUM_RANKS, rounds), "1/s")
    with rec.span("pingpong.sim"):
        m["cluster.sim_ops_per_s"] = value(adapter.pingpong_ops_per_s(
            "sim", workloads.NUM_RANKS, rounds), "1/s")

    def open_pool():
        adapter.open_thread_pool(workloads.NUM_RANKS).close()

    m["exec.pool_open_s"] = value(median(repeat(open_pool, 5)), "s")

    # -- olap -------------------------------------------------------------------------
    with rec.span("plan_and_transpose"):
        dt, _ = timed(lambda: adapter.transpose_input(
            adapter.plan(spec.shape, workloads.NUM_RANKS, own), data))
    m["olap.plan_and_transpose_s"] = value(dt, "s")
    with rec.span("DataCube.build"):
        ops.attempted += 1
        cube_s, cube = timed(lambda: adapter.cube_build(
            inp.schema, data, workloads.NUM_RANKS, own))
    ops.check_cube(adapter.cube_cuboids(cube), inp.want, "traced-pass DataCube.build")
    m["olap.cube_build_overhead_s"] = value(cube_s - median(untraced_s), "s")

    head = inp.queries[:1000]
    bare = adapter.engine(cube)
    with rec.span("engine.execute", queries=len(head)):
        dt, answers = timed(lambda: [bare.execute(q) for q in head])
    ops.attempted += len(head)
    m["olap.engine_qps"] = value(len(head) / dt, "1/s")
    m["olap.cells_scanned_per_query"] = value(
        float(np.mean([a.cells_scanned for a in answers])), "count")

    # One query that no view covers (it mentions every dimension), sent on
    # every workload so the fallback path always has a measured cost.
    plain_fallback = (tuple(range(n - 1)), {n - 1: 0})
    fallback = adapter.to_queries(inp.schema, [plain_fallback])[0]
    with rec.span("engine.base_fallback"):
        dt, answer = timed(lambda: bare.execute(fallback))
    ops.attempted += 1
    ops.check(answer.is_fallback and np.array_equal(
        adapter.answer_array(answer),
        oracle.answer(spec.shape, inp.coords, inp.values, plain_fallback)), "base fallback answer")
    m["olap.base_fallback_ms"] = value(dt * 1e3, "ms")

    # -- serve ------------------------------------------------------------------------
    svc = adapter.service(cube, 4096)
    with rec.span("serve.canonicalize", queries=len(inp.queries)):
        dt, canonical = timed(lambda: [svc.canonicalize(q) for q in inp.queries])
    m["serve.canonicalize_us"] = value(dt / len(inp.queries) * 1e6, "us")
    m["serve.dedup_ratio"] = value(len(set(canonical)) / len(canonical), "ratio")

    svc = adapter.service(cube, 4096)
    hit, miss, results = [], [], []
    hits_before = 0
    with rec.span("serve.pass", queries=len(inp.queries)):
        for q in inp.queries:
            t0 = time.perf_counter()
            results.append(svc.execute(q))
            dt = time.perf_counter() - t0
            hits = adapter.cache_counts(svc)[0]
            (hit if hits > hits_before else miss).append(dt)
            hits_before = hits
    ops.attempted += len(inp.queries)
    check_answers(ops, inp, cube, results, None, "traced-pass served")
    hits, misses, evictions = adapter.cache_counts(svc)
    m["serve.cache_hit_rate"] = value(hits / (hits + misses), "fraction")
    m["serve.cache_evictions"] = value(evictions, "count")
    m["serve.hit_p50_us"] = value(median(hit) * 1e6, "us")
    m["serve.miss_p50_us"] = value(median(miss) * 1e6, "us")
    m["serve.latency_p50_ms"] = value(median(hit + miss) * 1e3, "ms")
    m["olap.base_fallbacks"] = value(sum(r.is_fallback for r in results), "count")
    with rec.span("serve.invalidate"):
        dt, _ = timed(svc.invalidate)
    m["serve.invalidate_us"] = value(dt * 1e6, "us")

    with rec.span("serve.batched", queries=len(inp.queries), batch=BATCH):
        _, _, batch_svc = batched_pass(cube, inp.queries)
    ops.attempted += len(inp.queries)
    actual, standalone = adapter.scan_counts(batch_svc)
    m["serve.shared_pass_ratio"] = value(actual / standalone, "ratio")

    plain_s, observed_s = [], []
    for _ in range(3):
        with rec.span("serve.pass.default"):
            plain_s.append(serve_pass(adapter.service(cube, 4096), inp.queries)[0])
        with rec.span("serve.pass.observed"):
            observed_s.append(serve_pass(
                adapter.service(cube, 4096, observed=True), inp.queries)[0])
    ops.attempted += 6 * len(inp.queries)
    m["obs.metrics_overhead_frac"] = value(
        (median(observed_s) - median(plain_s)) / median(plain_s), "fraction")

    del svc, batch_svc  # no service may be subscribed while the bare refresh is timed
    samples = []
    for i in range(3):
        delta = inp.sparse_delta(i)
        ops.attempted += 1
        with rec.span("apply_delta", facts=len(inp.deltas[i][1])):
            dt, _ = timed(lambda: adapter.refresh(cube, delta, spec.update_base))
        samples.append(dt)
        oracle.add_facts(inp.want, spec.shape, *inp.deltas[i])
    m["olap.apply_delta_s"] = value(median(samples), "s")
    ops.check_cube(adapter.cube_cuboids(cube), inp.want, "traced-pass cube after deltas")

    # -- cli --------------------------------------------------------------------------
    env = dict(os.environ, PYTHONPATH=repo_src)
    m["cli.import_s"] = value(median(repeat(lambda: subprocess.run(
        [sys.executable, "-c", "import repro"], env=env, check=True), 5)), "s")
    return m, rec

