"""Unit tests for the repro-cube CLI."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_shape_parsing_commas_and_x(self):
        p = build_parser()
        a = p.parse_args(["plan", "--shape", "8,4,2"])
        assert a.shape == (8, 4, 2)
        a = p.parse_args(["plan", "--shape", "8x4x2"])
        assert a.shape == (8, 4, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--shape", "8,zero"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--shape", "0,4"])

    def test_rejects_non_power_of_two_procs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["construct", "--shape", "8,8", "--procs", "6"]
            )


class TestPlan:
    def test_outputs_table(self):
        code, text = run_cli("plan", "--shape", "16,8,4", "--max-procs", "8")
        assert code == 0
        assert "ordering" in text
        assert "2-dimensional" in text or "1-dimensional" in text

    def test_unsorted_shape_reordered(self):
        _code, text = run_cli("plan", "--shape", "4,16,8")
        assert "(16, 8, 4)" in text


class TestConstruct:
    def test_reports_exact_match(self):
        code, text = run_cli(
            "construct", "--shape", "8,8,4", "--procs", "4",
            "--sparsity", "0.3", "--verify",
        )
        assert code == 0
        assert "exact match" in text
        assert "verified" in text

    def test_metrics_printed(self):
        code, text = run_cli(
            "construct", "--shape", "8,8", "--procs", "2", "--sparsity", "0.5"
        )
        assert code == 0
        assert "simulated time" in text
        assert "communication" in text


    @pytest.mark.parametrize("procs", ["1", "4"])
    @pytest.mark.parametrize(
        "shape,scheduler,aggregates",
        [
            ("4,8,6", "fig5", 7),  # not in plan order: results re-keyed
            ("4,6,6,8", "fig5", 15),  # ... with a repeated extent
            ("4,8,6", "marginals-1", 3),  # ... and a restricted target set
            ("4,8,6", "shuffle", 7),
        ],
    )
    def test_verify_in_caller_dimension_order(
        self, shape, scheduler, aggregates, procs
    ):
        # Regression: --verify re-keyed the translated results back to
        # plan nodes without transposing their axes and died in
        # verify_cube with a broadcast error on any shape not in plan order.
        code, text = run_cli(
            "construct", "--shape", shape, "--procs", procs,
            "--scheduler", scheduler, "--sparsity", "0.4", "--verify",
        )
        assert code == 0, text
        assert f"all {aggregates} aggregates verified" in text


class TestConstructFaults:
    def test_fault_plan_described_and_summarized(self):
        code, text = run_cli(
            "construct", "--shape", "8,8", "--procs", "2",
            "--fault-plan", "straggler:1@3;seed=5",
        )
        assert code == 0
        assert "straggler rank 1 x3" in text
        assert "Theorem 3 check: skipped" in text

    def test_crash_without_checkpoint_reports_stall(self):
        code, text = run_cli(
            "construct", "--shape", "8,8,4", "--procs", "8",
            "--fault-plan", "crash:3@0.000001",
        )
        assert code == 1
        assert "construction stalled" in text
        assert "crashed ranks: [3]" in text
        assert "--checkpoint" in text

    def test_crash_with_checkpoint_recovers_and_verifies(self):
        code, text = run_cli(
            "construct", "--shape", "8,8,4", "--procs", "8",
            "--fault-plan", "crash:3@0.000001", "--checkpoint", "--verify",
        )
        assert code == 0
        assert "faults: crashes=[3]" in text
        assert "recoveries=1" in text
        assert "verified" in text

    def test_bad_fault_spec_rejected(self):
        # Argparse-level validation: clean usage error, not a traceback.
        with pytest.raises(SystemExit):
            run_cli("construct", "--shape", "8,8", "--procs", "2",
                    "--fault-plan", "crash:nope")

    def test_checkpoint_stall_hint_differs(self):
        # Heavy message loss can defeat detection even with --checkpoint;
        # the hint must not tell the user to add a flag they already passed.
        code, text = run_cli(
            "construct", "--shape", "8,8,4", "--procs", "8", "--checkpoint",
            "--fault-plan", "drop:0.3;seed=13",
        )
        assert code == 1
        assert "construction stalled" in text
        assert "--checkpoint" not in text.split("hint:")[1]


class TestSweep:
    def test_lists_all_choices(self):
        code, text = run_cli("sweep", "--shape", "8,8,8,8", "--procs", "8")
        assert code == 0
        assert "3-dimensional" in text
        assert "1-dimensional" in text


class TestTree:
    def test_renders_both_trees(self):
        code, text = run_cli("tree", "--dims", "3")
        assert code == 0
        assert "prefix tree" in text
        assert "aggregation tree" in text
        assert "ABC" in text

    def test_schedule_flag(self):
        _code, text = run_cli("tree", "--dims", "2", "--schedule")
        assert "write-back" in text

    def test_shape_annotations(self):
        _code, text = run_cli("tree", "--shape", "4,3")
        assert "[12]" in text


class TestViews:
    def test_selection_output(self):
        code, text = run_cli("views", "--shape", "16,8,4", "--budget", "200")
        assert code == 0
        assert "selected" in text
        assert "workload cost" in text


class TestServeReplay:
    def test_all_modes_table(self):
        code, text = run_cli(
            "serve-replay", "--shape", "4,4,3", "--queries", "120",
        )
        assert code == 0
        assert "per-query" in text
        assert "batched" in text
        assert "cached" in text
        assert "queries/s" in text
        assert "speedup" in text

    def test_single_mode(self):
        code, text = run_cli(
            "serve-replay", "--shape", "4,4,3", "--queries", "60",
            "--mode", "cached",
        )
        assert code == 0
        assert "cached" in text
        assert "per-query" not in text.split("\n", 2)[2]

    def test_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-replay", "--shape", "4,4", "--mode", "warp"]
            )


class TestCheck:
    def test_clean_plan_exits_zero(self):
        code, text = run_cli("check", "--shape", "16,12,8", "--procs", "8")
        assert code == 0
        assert "Theorem 3" in text
        assert "no diagnostics" in text

    def test_bits_override_is_reported(self):
        code, text = run_cli("check", "--shape", "16,12,8", "--bits", "1,1,1")
        assert code == 0
        assert "bits=(1, 1, 1)" in text

    def test_bits_length_mismatch_exits_two(self):
        code, text = run_cli("check", "--shape", "16,12,8", "--bits", "1,1")
        assert code == 2
        assert "one entry per dimension" in text

    def test_run_cross_checks_measured_volume(self):
        code, text = run_cli(
            "check", "--shape", "8,6,4", "--procs", "4", "--run"
        )
        assert code == 0
        assert "matches the static prediction" in text

    def test_detection_round_covers_ft_protocol(self):
        code, text = run_cli(
            "check", "--shape", "8,6,4", "--procs", "4", "--detection-round"
        )
        assert code == 0
        assert "no diagnostics" in text


class TestBackendOption:
    def test_construct_on_process_backend(self):
        code, text = run_cli(
            "construct", "--shape", "8,8,4", "--procs", "4",
            "--backend", "process", "--verify",
        )
        assert code == 0
        assert "wall time" in text
        assert "exact match" in text
        assert "verified" in text

    def test_sim_default_reports_simulated_time(self):
        code, text = run_cli("construct", "--shape", "8,8", "--procs", "2")
        assert code == 0
        assert "simulated time" in text

    def test_process_rejects_fault_plan(self):
        code, text = run_cli(
            "construct", "--shape", "8,8", "--procs", "2",
            "--backend", "process", "--fault-plan", "crash:1@0.5",
        )
        assert code == 2
        assert "simulator-only" in text

    def test_build_on_process_backend(self, tmp_path):
        cube = tmp_path / "cube.npz"
        code, text = run_cli(
            "build", "--shape", "8,8", "--procs", "2",
            "--backend", "process", "--out", str(cube),
        )
        assert code == 0
        assert "real processors" in text
        assert cube.exists()

    def test_check_run_on_process_backend(self):
        code, text = run_cli(
            "check", "--shape", "8,6,4", "--procs", "4", "--run",
            "--backend", "process",
        )
        assert code == 0
        assert "matches the static prediction" in text

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["construct", "--shape", "8,8", "--backend", "mpi"]
            )


class TestTrace:
    def test_export_then_summarize(self, tmp_path):
        trace = tmp_path / "run.json"
        code, text = run_cli(
            "trace", "export", "--shape", "8,8,8", "--procs", "4",
            "--out", str(trace),
        )
        assert code == 0
        assert "spans" in text
        assert trace.exists()
        code, text = run_cli("trace", "summarize", str(trace))
        assert code == 0
        assert "phase attribution" in text
        assert "build.reduce" in text

    def test_export_jsonl_format(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _text = run_cli(
            "trace", "export", "--shape", "8,8", "--procs", "2",
            "--format", "jsonl", "--out", str(trace),
        )
        assert code == 0
        first = trace.read_text().splitlines()[0]
        import json

        assert json.loads(first)["type"] == "meta"

    def test_diff_two_exports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for procs, path in ((2, a), (4, b)):
            run_cli(
                "trace", "export", "--shape", "8,8,8", "--procs",
                str(procs), "--out", str(path),
            )
        code, text = run_cli("trace", "diff", str(a), str(b))
        assert code == 0
        assert "makespan" in text
        assert "build.writeback" in text

    def test_check_lints_exported_trace(self, tmp_path):
        trace = tmp_path / "run.json"
        run_cli(
            "trace", "export", "--shape", "8,6,4", "--procs", "4",
            "--out", str(trace),
        )
        code, text = run_cli(
            "check", "--shape", "8,6,4", "--procs", "4",
            "--run-trace", str(trace),
        )
        assert code == 0
        assert "lint of exported trace" in text

    def test_construct_trace_out_writes_file(self, tmp_path):
        trace = tmp_path / "c.json"
        code, text = run_cli(
            "construct", "--shape", "8,8", "--procs", "2",
            "--trace-out", str(trace),
        )
        assert code == 0
        assert "trace written to" in text
        assert trace.exists()


class TestThreadBackendAndPool:
    def test_construct_on_thread_backend(self):
        code, text = run_cli(
            "construct", "--shape", "8,8,4", "--procs", "4",
            "--backend", "thread", "--verify",
        )
        assert code == 0
        assert "wall time" in text
        assert "verified" in text

    def test_pool_flag_on_thread_backend(self):
        code, text = run_cli(
            "construct", "--shape", "8,8", "--procs", "2",
            "--backend", "thread", "--pool", "--verify",
        )
        assert code == 0
        assert "verified" in text

    def test_pool_flag_rejected_on_non_pooling_backend(self):
        code, text = run_cli(
            "construct", "--shape", "8,8", "--procs", "2",
            "--backend", "sim", "--pool",
        )
        assert code == 2
        assert "pooling backend" in text
        assert "thread" in text

    def test_pooled_sched_compare(self):
        code, text = run_cli(
            "sched", "compare", "--shape", "8,6,4", "--procs", "4",
            "--schedulers", "fig5,shuffle",
            "--backend", "thread", "--pool",
        )
        assert code == 0
        assert "fig5" in text and "shuffle" in text


class TestBackendsList:
    def test_lists_every_backend_with_description(self):
        code, text = run_cli("backends", "list")
        assert code == 0
        for name in ("sim", "process", "thread"):
            assert name in text
        assert "pool" in text  # the thread row advertises its fast path

    def test_backends_and_sched_listings_share_layout(self):
        code_b, text_b = run_cli("backends", "list")
        code_s, text_s = run_cli("sched", "list")
        assert code_b == 0 and code_s == 0
        # Both listings share one layout: name column padded to the
        # longest name, two spaces, description.  Pinned byte for byte
        # to the 11.0.0 output.
        assert text_b == (
            "process  real OS processes forked after partition; shared output"
            " arena, supervised respawn\n"
            "sim      deterministic discrete-event simulator (simulated clocks,"
            " full fault surface)\n"
            "thread   one GIL-releasing thread per rank; persistent"
            " worker-pool fast path\n"
        )
        assert text_s == (
            "fig5                     the paper's Fig 5 SPMD schedule"
            " (communication and memory optimal)\n"
            "shuffle                  MapReduce-style batch-shuffle"
            " materialization (arXiv:1709.10072)\n"
            "marginals-<k>[-shuffle]  only the order-k group-bys"
            " (arXiv:1509.08855), fig5 or shuffle planning\n"
        )

    def test_unknown_name_errors_are_pinned(self):
        from repro.exec import get_backend
        from repro.sched import get_scheduler

        cases = [
            (
                get_backend,
                "thred",
                "unknown backend 'thred'; available: process, sim, thread"
                " (did you mean 'thread'?)",
            ),
            (
                get_scheduler,
                "fig6",
                "unknown scheduler 'fig6'; available: fig5,"
                " marginals-<k>[-shuffle], shuffle (did you mean 'fig5'?)",
            ),
            (
                get_scheduler,
                "marginals-x",
                "unknown scheduler 'marginals-x'; available: fig5,"
                " marginals-<k>[-shuffle], shuffle",
            ),
        ]
        for lookup, name, message in cases:
            with pytest.raises(ValueError) as err:
                lookup(name)
            assert str(err.value) == message


class TestTopCommand:
    def test_once_renders_frame_and_summary(self):
        code, text = run_cli(
            "top", "--shape", "16,8,8", "--procs", "4", "--once",
        )
        assert code == 0
        assert "live view" in text
        assert "build finished" in text
        assert "snapshots folded" in text

    def test_refresh_loop_terminates_when_build_finishes(self):
        code, text = run_cli(
            "top", "--shape", "32,16,8", "--procs", "4",
            "--interval", "0.05",
        )
        assert code == 0
        assert "live view" in text
        assert "build finished" in text

    def test_defaults_to_thread_backend(self):
        # The simulator publishes no snapshots, so top must not pick it.
        args = build_parser().parse_args(
            ["top", "--shape", "8,8", "--procs", "2", "--once"]
        )
        assert args.backend == "thread"

    def test_non_power_of_two_procs_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("top", "--shape", "8,8", "--procs", "3", "--once")
        assert err.value.code == 2


class TestSloCommand:
    def test_check_passes_on_fast_cached_workload(self):
        code, text = run_cli(
            "slo", "check", "--shape", "6,6,5,4", "--queries", "300",
        )
        assert code == 0
        assert "OK" in text
        assert "burn-rate alerts" in text

    def test_check_fails_on_impossible_threshold(self):
        code, text = run_cli(
            "slo", "check", "--shape", "6,6,5,4", "--queries", "100",
            "--threshold-ms", "0.000001",
        )
        assert code == 1
        assert "VIOLATED" in text

    def test_bad_objective_is_a_usage_error(self):
        code, text = run_cli(
            "slo", "check", "--shape", "6,6,5,4",
            "--objective", "1.5",
        )
        assert code == 2


class TestTraceFlameCommand:
    def test_writes_collapsed_stacks_and_reports_attribution(self, tmp_path):
        out_file = tmp_path / "flame.txt"
        code, text = run_cli(
            "trace", "flame", "--shape", "16,8,8", "--procs", "4",
            "--backend", "sim", "--out", str(out_file),
        )
        assert code == 0
        assert "attributed" in text
        content = out_file.read_text()
        assert content  # at least one collapsed stack line
        for line in content.splitlines():
            assert line.startswith("rank ")
            assert line.rsplit(" ", 1)[1].isdigit()
