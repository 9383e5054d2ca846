"""Exporter tests: Chrome-trace structure, JSONL round-trip, lint parity."""

import json

import numpy as np
import pytest

from repro.analysis import lint_trace
from repro.analysis.model.hb import hb_from_trace
from repro.cluster.faults import FaultPlan
from repro.cluster.metrics import RANK_COLUMNS
from repro.cluster.runtime import run_spmd
from repro.core.config import BuildConfig
from repro.core.parallel import construct_cube_parallel
from repro.obs import (
    FORMAT_NAME,
    diff_runs,
    load_run,
    phase_coverage,
    phase_totals,
    summarize_run,
    to_chrome_trace,
    to_jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from tests.test_obs_faults import _faulted_run

SHAPE = (8, 8, 8, 8)
BITS = (1, 1, 1, 0)
NUM_RANKS = 8


@pytest.fixture(scope="module")
def traced_run():
    data = np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
    return construct_cube_parallel(data, BITS, trace=True, collect_results=False)


def _shrugs_off_a_timeout(env):
    """Rank 1 times out on rank 0 and carries on: the TRACE103 trigger."""
    if env.rank == 1:
        yield env.recv(0, tag=7, timeout=0.5)
    else:
        yield env.compute(1.0)


def _process_kill_run():
    """The ``kill:1@5 --checkpoint`` drive: SIGKILL, respawn, replay."""
    shape = (8, 6, 4)
    data = np.arange(np.prod(shape), dtype=float).reshape(shape)
    return construct_cube_parallel(
        data, (1, 1, 0), backend="process", checkpoint=True, trace=True,
        fault_plan=FaultPlan().crash_at_op(1, 5), collect_results=False,
    ).metrics


WRITERS = [
    pytest.param(write_chrome_trace, id="chrome"),
    pytest.param(write_jsonl, id="jsonl"),
]

#: Recorded runs the export must lint identically to:
#: name -> (builder, the error/warning rules the run fires).
LINT_RUNS = {
    "fig7": (
        lambda: construct_cube_parallel(
            np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE), BITS,
            trace=True, collect_results=False,
        ).metrics,
        [],
    ),
    "faulted": (_faulted_run, ["TRACE103", "TRACE106"]),
    "silent_timeout": (
        lambda: run_spmd(2, _shrugs_off_a_timeout, record_trace=True),
        ["TRACE103"],
    ),
    "process_kill": (_process_kill_run, []),
}


#: Runs every exporter must round-trip whole: sim, thread, a faulted sim
#: run and the process kill/respawn drive.
ROUNDTRIP_RUNS = {
    "sim": LINT_RUNS["fig7"][0],
    "thread": lambda: construct_cube_parallel(
        np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE), BITS,
        backend="thread", trace=True, collect_results=False,
    ).metrics,
    "faulted": _faulted_run,
    "process_kill": _process_kill_run,
}


def _by_time(span):
    return (span.t_start, span.t_end, span.rank, span.name)


class TestChromeTrace:
    def test_untraced_run_is_rejected(self):
        data = np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
        run = construct_cube_parallel(data, BITS, collect_results=False)
        with pytest.raises(ValueError):
            to_chrome_trace(run.metrics)

    def test_well_formed_json_with_one_lane_per_rank(self, traced_run, tmp_path):
        path = tmp_path / "run.json"
        write_chrome_trace(traced_run.metrics, path)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["format"] == FORMAT_NAME
        assert doc["otherData"]["num_ranks"] == NUM_RANKS
        lanes = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        for rank in range(NUM_RANKS):
            assert lanes[rank] == f"rank {rank}"
        assert NUM_RANKS in lanes  # the host lane sits above the ranks

    def test_timestamps_monotone_and_nonnegative(self, traced_run):
        doc = to_chrome_trace(traced_run.metrics)
        ts = [ev["ts"] for ev in doc["traceEvents"] if ev["ph"] != "M"]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_span_and_op_events_present(self, traced_run):
        doc = to_chrome_trace(traced_run.metrics)
        names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
        assert "build.input_read" in names
        assert "build.reduce" in names
        ops = {ev["name"] for ev in doc["traceEvents"] if ev.get("cat") == "op"}
        assert {"send", "recv"} <= ops
        assert all(
            ev["tid"] == (1 if ev["cat"] == "op" else 0)
            for ev in doc["traceEvents"]
            if ev["ph"] == "X"
        )


class TestLoadRun:
    def test_chrome_roundtrip_preserves_run(self, traced_run, tmp_path):
        path = tmp_path / "run.json"
        write_chrome_trace(traced_run.metrics, path)
        loaded = load_run(path)
        m = traced_run.metrics
        assert loaded.num_ranks == m.num_ranks
        assert loaded.makespan_s == m.makespan_s
        assert loaded.rank_clocks == m.rank_clocks
        assert loaded.rank_peak_memory_elements == m.rank_peak_memory_elements
        assert loaded.comm.total_elements == m.comm.total_elements
        assert loaded.comm.total_messages == m.comm.total_messages
        assert len(loaded.trace) == len(m.trace)
        assert len(loaded.spans) == len(m.spans)
        assert loaded.registry.snapshot()["counters"] == (
            m.registry.snapshot()["counters"]
        )

    @pytest.mark.parametrize("write", WRITERS)
    @pytest.mark.parametrize("run", sorted(ROUNDTRIP_RUNS))
    def test_roundtrip_preserves_the_whole_run_record(self, run, write, tmp_path):
        metrics = ROUNDTRIP_RUNS[run]()
        loaded = load_run(write(metrics, tmp_path / "run.out"))
        for name, _, _ in RANK_COLUMNS:
            assert getattr(loaded, name) == getattr(metrics, name), name
        assert (loaded.backend, loaded.makespan_s) == (metrics.backend, metrics.makespan_s)
        assert loaded.comm == metrics.comm  # totals and every per-pair count
        assert loaded.faults == metrics.faults  # the fault log and its counters
        assert loaded.trace == metrics.trace
        assert sorted(loaded.spans, key=_by_time) == sorted(metrics.spans, key=_by_time)
        assert loaded.samples == metrics.samples
        assert loaded.registry.snapshot()["counters"] == (
            metrics.registry.snapshot()["counters"]
        )

    def test_jsonl_roundtrip(self, traced_run, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(traced_run.metrics, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        loaded = load_run(path)
        assert loaded.makespan_s == traced_run.metrics.makespan_s
        assert len(loaded.spans) == len(traced_run.metrics.spans)

    def test_jsonl_records_match_span_count(self, traced_run):
        records = to_jsonl_records(traced_run.metrics)
        spans = [r for r in records if r["type"] == "span"]
        ops = [r for r in spans if r["cat"] == "op"]
        assert len(ops) == len(traced_run.metrics.trace)
        assert len(spans) - len(ops) == len(traced_run.metrics.spans)

    def test_load_accepts_parsed_mapping(self, traced_run):
        doc = to_chrome_trace(traced_run.metrics)
        loaded = load_run(doc)
        assert loaded.num_ranks == NUM_RANKS

    @pytest.mark.parametrize("write", WRITERS)
    @pytest.mark.parametrize("run", sorted(LINT_RUNS))
    def test_lint_parity_between_export_and_memory(self, run, write, tmp_path):
        build, fires = LINT_RUNS[run]
        metrics = build()
        path = write(metrics, tmp_path / "run.out")
        live = lint_trace(metrics)
        assert [d.rule for d in live if d.severity != "info"] == fires
        assert lint_trace(path).diagnostics == live.diagnostics
        # ... because the export preserves the pairing TRACE101/102 read.
        exported, recorded = hb_from_trace(path), hb_from_trace(metrics)
        assert exported.pairs == recorded.pairs
        assert exported.unmatched_sends == recorded.unmatched_sends

    @pytest.mark.parametrize("write", WRITERS)
    def test_a_v1_export_is_rejected_naming_both_versions(
        self, write, traced_run, tmp_path
    ):
        path = write(traced_run.metrics, tmp_path / "run.out")
        path.write_text(path.read_text().replace(FORMAT_NAME, "repro-run-v1"))
        with pytest.raises(ValueError, match="repro-run-v2.*repro-run-v1"):
            load_run(path)


class TestReports:
    def test_phase_coverage_is_high(self, traced_run):
        assert phase_coverage(traced_run.metrics) >= 0.95

    def test_phase_totals_cover_named_phases(self, traced_run):
        totals = phase_totals(traced_run.metrics)
        for phase in ("build.input_read", "build.local_aggregate",
                      "build.reduce", "build.writeback"):
            assert phase in totals

    def test_summarize_mentions_phases_and_coverage(self, traced_run):
        text = summarize_run(traced_run.metrics)
        assert "phase attribution" in text
        assert "build.reduce" in text
        assert "coverage" in text

    def test_diff_runs_renders_both(self, traced_run):
        text = diff_runs(traced_run.metrics, traced_run.metrics)
        assert "+0.0%" in text
        assert "build.reduce" in text


class TestTraceOut:
    def test_build_config_trace_out_implies_trace(self, tmp_path):
        cfg = BuildConfig(trace_out=tmp_path / "t.json")
        assert cfg.effective_trace
        assert not BuildConfig().effective_trace

    def test_trace_out_writes_perfetto_file(self, tmp_path):
        path = tmp_path / "t.json"
        data = np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
        construct_cube_parallel(
            data, BITS, trace_out=path, collect_results=False
        )
        doc = json.loads(path.read_text())
        assert doc["otherData"]["format"] == FORMAT_NAME
        assert lint_trace(path, shape=SHAPE, bits=BITS) is not None


class TestProcessBackendTrace:
    def test_process_trace_has_aligned_monotone_lanes(self, tmp_path):
        path = tmp_path / "p.json"
        shape, bits = (8, 8, 8), (1, 1, 0)
        data = np.arange(np.prod(shape), dtype=float).reshape(shape)
        run = construct_cube_parallel(
            data, bits, trace_out=path, collect_results=False,
            backend="process",
        )
        assert run.backend == "process"
        doc = json.loads(path.read_text())
        events = [ev for ev in doc["traceEvents"] if ev["ph"] != "M"]
        ts = [ev["ts"] for ev in events]
        assert ts == sorted(ts)
        rank_lanes = {ev["pid"] for ev in events if ev["pid"] < 4}
        assert rank_lanes == {0, 1, 2, 3}
        spans_per_rank = {
            r: [ev for ev in events
                if ev["pid"] == r and ev["ph"] == "X" and ev["tid"] == 0]
            for r in range(4)
        }
        for r, spans in spans_per_rank.items():
            assert spans, f"rank {r} has no phase spans"
        # Spawn-barrier alignment: every rank's clock starts at its own
        # epoch, so no lane may begin wildly after the others.
        starts = [min(ev["ts"] for ev in evs) for evs in spans_per_rank.values()]
        assert max(starts) - min(starts) < 1e6  # within a second of each other
        # Real-clock phase attribution: the epoch is rebased at the spawn
        # barrier and phases chain, so named spans must cover the bulk of
        # every rank clock even on an oversubscribed host (the acceptance
        # bar is 0.95 on a quiet one; 0.9 here tolerates CI preemption
        # while still catching structural regressions).
        assert phase_coverage(load_run(path)) >= 0.9
