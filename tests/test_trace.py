"""Unit tests for run tracing and timeline analysis."""

import numpy as np
import pytest

from repro.arrays.dataset import random_sparse
from repro.cluster.runtime import run_spmd
from repro.obs.report import (
    ascii_gantt,
    breakdown,
    critical_rank,
    summarize,
    utilization,
)
from repro.core.parallel import construct_cube_parallel


def traced_run(program, n=2, machine=None):
    return run_spmd(n, program, machine=machine, record_trace=True)


class TestRecording:
    def test_compute_event(self):
        def program(env):
            yield env.compute(100)

        m = traced_run(program, n=1)
        assert len(m.trace) == 1
        ev = m.trace[0]
        assert (ev.name, ev.cat, ev.rank) == ("compute", "op", 0)
        assert ev.t_end > ev.t_start == 0.0

    def test_send_recv_wait_events(self):
        def program(env):
            if env.rank == 0:
                yield env.compute(1000)
                yield env.send(1, np.ones(10), tag=0)
            else:
                yield env.recv(0, tag=0)

        m = traced_run(program)
        kinds = {(ev.rank, ev.name) for ev in m.trace}
        assert (0, "compute") in kinds
        assert (0, "send") in kinds
        assert (1, "recv") in kinds
        assert (1, "wait") in kinds  # rank 1 blocked until the send landed

    def test_disk_and_barrier_events(self):
        def program(env):
            yield env.disk_write(100)
            yield env.compute(env.rank * 1000)
            yield env.barrier()

        m = traced_run(program, n=2)
        kinds = {ev.name for ev in m.trace}
        assert "disk" in kinds and "barrier" in kinds

    def test_no_trace_by_default(self):
        def program(env):
            yield env.compute(1)

        m = run_spmd(1, program)
        assert m.trace == []

    def test_intervals_ordered_and_nonnegative(self):
        data = random_sparse((8, 6, 4), 0.3, seed=1)
        res = construct_cube_parallel(data, (1, 1, 0), trace=True)
        for ev in res.metrics.trace:
            assert ev.t_end >= ev.t_start >= 0.0
            assert ev.t_end <= res.simulated_time_s + 1e-12

    def test_intervals_disjoint_per_rank(self):
        data = random_sparse((8, 6, 4), 0.3, seed=2)
        res = construct_cube_parallel(data, (1, 1, 1), trace=True)
        per_rank: dict[int, list] = {}
        for ev in res.metrics.trace:
            per_rank.setdefault(ev.rank, []).append(ev)
        for events in per_rank.values():
            events.sort(key=lambda e: e.t_start)
            for a, b in zip(events, events[1:]):
                assert b.t_start >= a.t_end - 1e-12


class TestAnalysis:
    def test_breakdown_accounts_busy_time(self):
        def program(env):
            yield env.compute(1000)
            yield env.disk_write(100)

        m = traced_run(program, n=1)
        b = breakdown(m)[0]
        assert b.seconds["compute"] > 0
        assert b.seconds["disk"] > 0
        assert abs(b.busy - m.makespan_s) < 1e-12
        assert b.idle == pytest.approx(0.0)

    def test_requires_trace(self):
        def program(env):
            yield env.compute(1)

        m = run_spmd(1, program)
        with pytest.raises(ValueError):
            breakdown(m)

    def test_utilization_bounds(self):
        data = random_sparse((8, 8, 8), 0.3, seed=3)
        res = construct_cube_parallel(data, (1, 1, 1), trace=True)
        u = utilization(res.metrics)
        assert 0.0 < u < 1.0

    def test_one_dim_partition_less_utilized(self):
        # The Figure 7 story in utilization terms: at equal p, the 1-d
        # partition's big serialized reductions idle more of the machine.
        data = random_sparse((16, 16, 16, 16), 0.10, seed=4)
        u3 = utilization(
            construct_cube_parallel(data, (1, 1, 1, 0), trace=True).metrics
        )
        u1 = utilization(
            construct_cube_parallel(data, (3, 0, 0, 0), trace=True).metrics
        )
        assert u3 > u1

    def test_summarize_table(self):
        data = random_sparse((6, 4), 0.5, seed=5)
        res = construct_cube_parallel(data, (1, 0), trace=True)
        text = summarize(res.metrics)
        assert "makespan" in text
        assert "rank" in text

    def test_critical_rank(self):
        def program(env):
            yield env.compute((env.rank + 1) * 100)

        m = traced_run(program, n=3)
        assert critical_rank(m) == 2


class TestGantt:
    def test_renders_rows(self):
        data = random_sparse((8, 6), 0.5, seed=6)
        res = construct_cube_parallel(data, (1, 1), trace=True)
        chart = ascii_gantt(res.metrics, width=40)
        lines = chart.splitlines()
        assert len(lines) == 4 + 1  # 4 ranks + legend
        assert all("|" in ln for ln in lines[:-1])

    def test_rank_subset(self):
        data = random_sparse((8, 6), 0.5, seed=7)
        res = construct_cube_parallel(data, (1, 1), trace=True)
        chart = ascii_gantt(res.metrics, width=30, ranks=[0, 2])
        assert len(chart.splitlines()) == 3

    def test_rejects_bad_width(self):
        data = random_sparse((4, 4), 0.5, seed=8)
        res = construct_cube_parallel(data, (1, 0), trace=True)
        with pytest.raises(ValueError):
            ascii_gantt(res.metrics, width=0)
