"""Shared pieces of both passes: op accounting, the timing rule, set-up."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import adapter
import oracle
import workloads


class Ops:
    """Operations attempted and failed: the numerator and denominator of
    ``failed_frac``.  A wrong answer is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def check_cube(self, got: dict, want: dict, what: str) -> None:
        bad = oracle.mismatches(got, want)
        self.check(not bad, f"{what}: {len(bad)} cuboids differ from the oracle, first {bad[:3]}")


def stat(samples, unit: str, best=min) -> dict:
    """The reported value is the best sample; the median, quartiles and
    sample count go into the results file beside it."""
    samples = [float(s) for s in samples]
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": best(samples), "unit": unit, "median": statistics.median(samples),
            "q1": q1, "q3": q3, "n": len(samples)}


def value(v, unit: str) -> dict:
    return {"value": v, "unit": unit}


def timed(fn):
    """The timing rule: collect garbage, then wall-clock one call."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def repeat(fn, reps: int) -> list:
    """Seconds of ``reps`` timed calls of ``fn``."""
    return [timed(fn)[0] for _ in range(reps)]


@dataclass
class Inputs:
    """Everything generated from the seed, plus the oracle's answers."""

    spec: workloads.WorkloadSpec
    seed: int
    coords: np.ndarray
    values: np.ndarray
    plain_queries: list
    fallbacks_dropped: int
    deltas: list
    want: dict
    bits: tuple
    schema: object
    queries: list
    pool: object = None
    stored_nnz: int = 0
    stages: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.spec.shape)

    def sparse_delta(self, i: int):
        coords, values = self.deltas[i]
        return adapter.ingest(self.spec.shape, coords, values, self.spec.chunk_shape)


def generate(spec, seed: int) -> Inputs:
    """Set-up, part one: inputs from the seed, oracle cube, warm thread pool."""
    stages = {}
    t = time.perf_counter()
    coords, values = workloads.generate_facts(spec, seed)
    plain, dropped = workloads.generate_queries(spec, seed)
    deltas = workloads.generate_deltas(spec, seed)
    stages["generate_s"] = time.perf_counter() - t
    t = time.perf_counter()
    want = oracle.cube(spec.shape, coords, values)
    stages["oracle_s"] = time.perf_counter() - t
    t = time.perf_counter()
    pool = adapter.open_thread_pool(workloads.NUM_RANKS)
    stages["pool_open_s"] = time.perf_counter() - t
    schema = adapter.make_schema(spec.shape)
    return Inputs(
        spec=spec, seed=seed, coords=coords, values=values,
        plain_queries=plain, fallbacks_dropped=dropped, deltas=deltas, want=want,
        bits=adapter.partition_bits(spec.shape, workloads.NUM_RANKS),
        schema=schema, queries=adapter.to_queries(schema, plain),
        pool=pool, stages=stages,
    )


def build_variants(inp: Inputs, data, scheduler=None, trace=False) -> dict:
    """The four ways the same cube is built; names as in the metric table."""
    scheduler = scheduler or inp.spec.scheduler
    return {
        "serial": lambda: adapter.build_serial(data),
        "thread": lambda: adapter.build_parallel(data, inp.bits, inp.pool, scheduler, trace),
        "process": lambda: adapter.build_parallel(data, inp.bits, "process", scheduler, trace),
        "sim": lambda: adapter.build_parallel(data, inp.bits, "sim", scheduler, trace),
    }


def check_build(ops: Ops, inp: Inputs, result, scheduler: str | None, what: str) -> None:
    """Bit-identity with the oracle and, for a parallel build (``scheduler``
    given), Theorem 3 volume and Theorem 4 memory."""
    ops.check_cube(adapter.cuboids(result), inp.want, what)
    if scheduler is None:
        return
    shape = inp.spec.shape
    volume = adapter.comm_volume(result)
    declared = adapter.declared_volume(scheduler, shape, inp.bits)
    ops.check(volume == declared,
              f"{what}: comm volume {volume} != closed form {declared}")
    peak = adapter.peak_memory(result)
    bound = adapter.declared_memory_bound(scheduler, shape, inp.bits)
    ops.check(peak <= bound, f"{what}: rank peak {peak} > declared bound {bound}")


def run_checked(ops: Ops, inp: Inputs, name: str, build, what: str):
    """One build of variant ``name``, counted and checked; returns
    ``(wall seconds, CPU seconds)`` under the timing rule."""
    ops.attempted += 1
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    result = build()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    check_build(ops, inp, result, None if name == "serial" else inp.spec.scheduler,
                f"{what} {name}")
    return wall, cpu


def warm_up(inp: Inputs, data, ops: Ops) -> float:
    """Set-up, part two: one untimed, checked run of each build variant."""
    t = time.perf_counter()
    for name, build in build_variants(inp, data).items():
        run_checked(ops, inp, name, build, "warm-up")
    return time.perf_counter() - t
