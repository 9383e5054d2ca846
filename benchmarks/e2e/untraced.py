"""The untraced pass: the end-to-end metrics of one workload.

Tracing, external metrics registries and ``tracemalloc`` (except for the
extra builds that measure allocation) are off here.

Every timed operation of the pipeline -- ingest, the four build variants,
``DataCube.build``, a serve pass, a delta refresh, a batched serve pass --
runs in every round (a short one several times, to fill ``SLICE_S``), and
rounds repeat for ``--seconds`` (and at least the workload's minimum).  The
CPUs of a shared host speed up and slow down over periods of seconds;
interleaving the operations means a slow period hits all of them alike, and
reporting each metric's best sample means one slow period does not decide
the value.  Median and quartiles of the samples are kept in the results
file.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import adapter
import oracle
import workloads
from measure import Inputs, Ops, build_variants, run_checked, stat, timed, value, warm_up

BATCH = 1024
SAMPLE = 500
#: An operation this slow is sampled in the first two rounds only
#: (fig7_first_level: a 4 s ingest, a 6 s ``DataCube.build``).
SLOW_S = 2.0
#: A short operation is repeated within a round until it has used this long.
SLICE_S = 0.25
MAX_REPS = 8


def p99(latencies) -> float:
    return float(np.percentile(np.asarray(latencies), 99))


def serve_pass(svc, queries):
    """Closed loop, one client: returns (seconds, per-query seconds, results)."""
    latencies = []
    results = []
    clock = time.perf_counter
    gc.collect()
    start = clock()
    for q in queries:
        t0 = clock()
        results.append(svc.execute(q))
        latencies.append(clock() - t0)
    return clock() - start, latencies, results


def batched_pass(cube, queries):
    """Result cache off, chunks of ``BATCH``: returns (per-chunk seconds, results, service)."""
    svc = adapter.service(cube, 0)
    results = []
    chunk_s = []
    gc.collect()
    for i in range(0, len(queries), BATCH):
        t0 = time.perf_counter()
        results.extend(svc.execute_batch(queries[i:i + BATCH]))
        chunk_s.append(time.perf_counter() - t0)
    return chunk_s, results, svc


def check_answers(ops: Ops, inp: Inputs, cube, results, facts, what: str) -> None:
    """``results`` (positional, for ``inp.queries``) against the bare query
    engine on a seeded sample, and against the raw facts when given."""
    rng = np.random.default_rng([inp.seed, 4])
    sample = rng.choice(len(results), size=min(SAMPLE, len(results)), replace=False)
    bare = adapter.engine(cube)
    for i in sample:
        got = adapter.answer_array(results[i])
        want = adapter.answer_array(bare.execute(inp.queries[i]))
        ok = np.array_equal(got, want)
        if ok and facts is not None:
            ok = np.array_equal(got, oracle.answer(inp.spec.shape, *facts, inp.plain_queries[i]))
        ops.check(ok, f"{what}: wrong answer to query {i} {inp.plain_queries[i]}")


def peak_alloc_mb(build) -> float:
    gc.collect()
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = build()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del result
    return (peak - baseline) / 1e6


def run(inp: Inputs, seconds: float, ops: Ops, t_start: float) -> dict:
    spec = inp.spec
    n_queries = len(inp.queries)
    wall = defaultdict(list)
    cpu = defaultdict(list)

    def sample(name, fn):
        dt, out = timed(fn)
        wall[name].append(dt)
        return out

    def due(name) -> bool:
        return not (len(wall[name]) >= 2 and wall[name][0] >= SLOW_S)

    def reps(name):
        """Repetitions this round: one, or as many as fit in ``SLICE_S``."""
        if not wall[name]:
            return range(1)
        return range(max(1, min(MAX_REPS, int(SLICE_S / min(wall[name])))))

    def ingest():
        ops.attempted += 1
        return adapter.ingest(spec.shape, inp.coords, inp.values, spec.chunk_shape)

    def cube_build():
        ops.attempted += 1
        return adapter.cube_build(inp.schema, data, workloads.NUM_RANKS, spec.scheduler)

    def refresh():
        ops.attempted += 1
        adapter.refresh(cube, delta, spec.update_base)
        for node, arr in delta_cube.items():
            expected[node] += arr

    # Set-up ends at the first timed operation, the ingest that produces the
    # fact array, and resumes for the warm-up of the build variants.
    setup_s = time.perf_counter() - t_start
    data = sample("ingest", ingest)
    inp.stored_nnz = adapter.nnz(data)
    setup_s += warm_up(inp, data, ops)
    variants = build_variants(inp, data)
    # Base fallbacks are answered from facts, so where they are served
    # (one small base) answers are also recomputed from the raw facts.
    facts = (inp.coords, inp.values) if spec.update_base else None
    delta_facts = inp.deltas[0]
    delta_cube = oracle.cube(spec.shape, *delta_facts)
    delta = inp.sparse_delta(0)

    cube = expected = None
    # Position i of every serve pass is the same query against the same
    # cache state (and every batched pass has the same chunks), so the best
    # time seen at each position over all passes is free of most timing
    # noise.  Throughput and the tail are read from these profiles.
    latency = np.full(n_queries, np.inf)
    chunk_best = np.full(-(-n_queries // BATCH), np.inf)
    rounds = 0
    start = time.perf_counter()
    while rounds < spec.rounds or time.perf_counter() - start < seconds:
        if rounds and due("ingest"):
            for _ in reps("ingest"):
                sample("ingest", ingest)
        for name, build in variants.items():
            for _ in reps(name):
                seconds_wall, seconds_cpu = run_checked(ops, inp, name, build, "build")
                wall[name].append(seconds_wall)
                cpu[name].append(seconds_cpu)
        if cube is None or due("cube_build"):
            for _ in reps("cube_build"):
                cube = sample("cube_build", cube_build)
                expected = {node: arr.copy() for node, arr in inp.want.items()}
                ops.check_cube(adapter.cube_cuboids(cube), expected, "DataCube.build")

        for _ in reps("serve"):
            svc = adapter.service(cube, 4096)
            elapsed, latencies, results = serve_pass(svc, inp.queries)
            ops.attempted += n_queries
            wall["serve"].append(elapsed)
            np.minimum(latency, latencies, out=latency)
            if rounds == 0:
                check_answers(ops, inp, cube, results, facts, "served")
            # The service is still subscribed and its cache warm, so the
            # refresh pays for the invalidation.
            sample("refresh", refresh)
        ops.check_cube(adapter.cube_cuboids(cube), expected, "cube after delta")
        if rounds == 0:
            _, _, results = serve_pass(svc, inp.queries)
            ops.attempted += n_queries
            if facts is not None:
                applied = len(wall["refresh"])
                facts = tuple(np.concatenate([a] + [b] * applied)
                              for a, b in zip(facts, delta_facts))
            check_answers(ops, inp, cube, results, facts, "served after delta")
        del svc

        for _ in reps("batched"):
            chunk_s, results, _ = batched_pass(cube, inp.queries)
            ops.attempted += n_queries
            wall["batched"].append(sum(chunk_s))
            np.minimum(chunk_best, chunk_s, out=chunk_best)
        if rounds == 0:
            check_answers(ops, inp, cube, results, None, "batched")
        rounds += 1

    # Allocation peak of extra, untimed thread builds (thread interleaving
    # moves it a little, so a cheap build is measured three times).
    ops.attempted += 1
    peaks = [peak_alloc_mb(variants["thread"])]
    while min(wall["thread"]) < 1.0 and len(peaks) < 3:
        ops.attempted += 1
        peaks.append(peak_alloc_mb(variants["thread"]))

    def rate(name, profile):
        """Queries per second of a pass made of each position's best time;
        the whole passes' median and quartiles are kept beside it."""
        out = stat([n_queries / s for s in wall[name]], "1/s", best=max)
        out["value"] = n_queries / float(profile.sum())
        return out

    tail = value(p99(latency) * 1e3, "ms")
    tail.update(queries_per_pass=n_queries, passes=len(wall["serve"]))
    return {
        "setup_s": value(setup_s, "s"),
        "ingest_s": stat(wall["ingest"], "s"),
        "serial_wall_s": stat(wall["serial"], "s"),
        "build_wall_s": stat(wall["thread"], "s"),
        "build_process_wall_s": stat(wall["process"], "s"),
        "build_sim_wall_s": stat(wall["sim"], "s"),
        "work_inflation": value(min(cpu["thread"]) / min(cpu["serial"]), "ratio"),
        "build_peak_alloc_mb": stat(peaks, "MB"),
        "cube_build_s": stat(wall["cube_build"], "s"),
        "serve_qps": rate("serve", latency),
        "serve_p99_ms": tail,
        "serve_batched_qps": rate("batched", chunk_best),
        "refresh_delta_s": stat(wall["refresh"], "s"),
        "failed_frac": value(ops.failed / ops.attempted, "fraction"),
    }
