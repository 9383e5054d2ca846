"""End-to-end model checker: check_model, the CLI surface
(``repro-cube check --model``), the source checks over the new package,
and the seeded-defect property sweep (every MC rule must fire)."""

import io

import pytest

from repro.analysis import verify_schedule
from repro.analysis.model import (
    check_model,
    explore,
    parse_kill,
    seed_model_defect,
)
from repro.cli import main
from repro.sched import get_scheduler

SHAPE, BITS = (4, 4, 4), (1, 1, 0)
SCHEDULERS = ["fig5", "shuffle", "marginals-2", "marginals-2-shuffle"]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheckModel:
    @pytest.mark.parametrize("spec", SCHEDULERS)
    def test_clean_scheduler_certifies_with_zero_diagnostics(self, spec):
        result = check_model(SHAPE, BITS, scheduler=spec)
        assert result.ok
        assert result.certified
        assert len(result.report.diagnostics) == 0
        assert "CERTIFIED" in result.certificate()
        assert spec in result.certificate()

    def test_detection_round_sweeps_every_crash_scenario(self):
        result = check_model(SHAPE, BITS, detection_round=True)
        assert result.certified
        # fault-free plus one kill scenario per rank.
        assert len(result.scenarios) == 1 + 2 ** sum(BITS)
        for name, exploration in result.scenarios:
            assert exploration.certified, name

    def test_explicit_kill_on_plain_program_is_not_certified(self):
        result = check_model(SHAPE, BITS, scheduler="shuffle", kill=(1, 0))
        assert not result.certified
        assert not result.ok
        assert "MC306" in {d.rule for d in result.report.diagnostics}
        assert "NOT certified" in result.certificate()

    def test_explicit_kill_on_ft_program_gets_the_sweeps_verdict(self):
        # Kill fallout (the dead rank's missing barrier arrival, the buddy's
        # adopted partials) is the scenario's, not a static defect: a killed
        # program is only explored, so the explicit scenario is judged
        # exactly as the auto-sweep judges it.
        swept = dict(check_model(SHAPE, BITS, detection_round=True).scenarios)
        result = check_model(SHAPE, BITS, detection_round=True, kill=(1, 0))
        assert result.certified, result.certificate()
        assert [name for name, _ in result.scenarios] == ["fault-free", "kill rank 1 at op 0"]
        assert result.scenarios[1][1].summary() == swept["kill rank 1 at op 0"].summary()

    def test_mem_cap_below_peak_fires_mc307(self):
        clean = check_model(SHAPE, BITS)
        peak = clean.plan.lifetime.max_high_water_bytes
        result = check_model(SHAPE, BITS, mem_cap_bytes=peak - 1)
        assert "MC307" in {d.rule for d in result.report.diagnostics}
        assert not result.ok

    def test_static_bound_rides_along(self):
        result = check_model(SHAPE, BITS)
        assert result.plan.memory_bound_elements is not None
        assert result.plan.lifetime.max_high_water <= result.plan.memory_bound_elements


class TestParseKill:
    def test_valid(self):
        assert parse_kill("1@0") == (1, 0)
        assert parse_kill("7@42") == (7, 42)

    @pytest.mark.parametrize("bad", ["", "1", "@", "1@", "@2", "a@b", "1@2@3", "-1@0"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_kill(bad)


class TestCLI:
    def test_model_flag_certifies_clean_plan(self):
        code, output = run_cli(
            "check", "--shape", "4,4,4", "--procs", "4", "--model"
        )
        assert code == 0, output
        assert "CERTIFIED deadlock-free" in output

    def test_model_flag_with_detection_round(self):
        code, output = run_cli(
            "check", "--shape", "4,4,4", "--procs", "4",
            "--model", "--detection-round",
        )
        assert code == 0, output
        assert "kill rank 0 at op 0" in output
        assert "timeout(s) fired" in output

    def test_kill_scenario_fails_the_check(self):
        code, output = run_cli(
            "check", "--shape", "4,4,4", "--procs", "4",
            "--scheduler", "shuffle", "--model", "--kill", "1@0",
        )
        assert code == 1, output
        assert "MC306" in output

    def test_tiny_mem_cap_fails_the_check(self):
        code, output = run_cli(
            "check", "--shape", "4,4,4", "--procs", "4",
            "--model", "--mem-cap", "8",
        )
        assert code == 1, output
        assert "MC307" in output

    def test_malformed_kill_is_a_usage_error(self):
        code, output = run_cli(
            "check", "--shape", "4,4,4", "--procs", "4",
            "--model", "--kill", "nope",
        )
        assert code == 2, output
        assert "error" in output.lower()

    @pytest.mark.parametrize(
        "kind",
        ["dropped-recv", "tag-race", "wrong-lead", "causal-cycle",
         "dropped-send", "leak", "inflated-alloc", "barrier-skip"],
    )
    def test_model_records_each_scenario_and_prints_each_finding_once(
        self, kind, monkeypatch
    ):
        # The fault-free program is recorded once and seeded; its static
        # findings print once (with the plan), exploration's after the
        # certificate -- never the same (rule, rank, step) twice.
        import re

        from repro.sched.base import Scheduler

        record = Scheduler.symbolic_ops
        recorded = []

        def spy(self, shape, bits, *, detection_round=False, kill=None):
            recorded.append(kill)
            prog = record(self, shape, bits, detection_round=detection_round, kill=kill)
            return prog if kill is not None else seed_model_defect(prog, kind)

        monkeypatch.setattr(Scheduler, "symbolic_ops", spy)
        # Only the fault-tolerant program has a barrier to skip.
        extra = ["--detection-round"] if kind == "barrier-skip" else []
        code, output = run_cli(
            "check", "--shape", "4,4,4", "--procs", "4", "--model", *extra
        )
        assert code == 1, output
        kills = [(rank, 0) for rank in range(4)] if extra else []
        assert recorded == [None] + kills
        found = []
        for line in output.splitlines():
            m = re.match(r"((?:SPMD|MC)\d{3}) error(?: \[([^\]]*)\])?:", line)
            if m:
                where = m.group(2) or ""
                rank = re.search(r"\brank (\d+)", where)
                step = re.search(r"\bstep (\d+)", where)
                found.append((m.group(1), rank and rank.group(1), step and step.group(1)))
        assert found, output
        assert len(found) == len(set(found)), output

    def test_detection_round_on_non_fig5_is_a_usage_error(self):
        code, output = run_cli(
            "check", "--shape", "4,4,4", "--procs", "4",
            "--scheduler", "shuffle", "--model", "--detection-round",
        )
        assert code == 2, output


class TestGateOverModelPackage:
    def test_model_package_passes_the_repo_gate(self):
        from tests.test_architecture import (
            Source,
            _mutable_defaults,
            _strict_packages,
            _unannotated,
            _unused_imports,
        )

        assert "analysis" in _strict_packages()
        finds = (_unused_imports, _unannotated, _mutable_defaults)
        problems = [p for f in finds for p in Source(("analysis/model",), f).problems()]
        assert problems == [], "\n".join(problems)


def seeded_check(prog, **bounds):
    """Fired rules and certification of an explicit (seeded) program:
    the one static pass plus exploration, as ``check_model`` runs them."""
    static = verify_schedule(prog, **bounds)
    explored = explore(prog)
    fired = {d.rule for d in static.diagnostics + explored.diagnostics}
    return fired, static, not static.diagnostics and explored.certified


EXPECTED_RULES = {
    "tag-race": {"MC301", "MC302"},
    "causal-cycle": {"MC304", "MC305"},
    "dropped-send": {"MC305"},
}


class TestSeededDefectSweep:
    @pytest.mark.parametrize("spec", SCHEDULERS)
    @pytest.mark.parametrize("kind", sorted(EXPECTED_RULES))
    def test_defect_fires_expected_rules(self, spec, kind):
        prog = get_scheduler(spec).symbolic_ops(SHAPE, BITS)
        bad = seed_model_defect(prog, kind)
        fired, _, certified = seeded_check(bad)
        assert EXPECTED_RULES[kind] <= fired, (
            f"{spec}/{kind}: expected {EXPECTED_RULES[kind]}, fired {fired}"
        )
        assert not certified

    def test_barrier_skip_fires_mc303_and_mc305(self):
        prog = get_scheduler("fig5").symbolic_ops(
            SHAPE, BITS, detection_round=True
        )
        bad = seed_model_defect(prog, "barrier-skip")
        fired, _, _ = seeded_check(bad)
        assert {"MC303", "MC305"} <= fired

    @pytest.mark.parametrize("spec", SCHEDULERS)
    def test_inflated_alloc_fires_mc307(self, spec):
        sched = get_scheduler(spec)
        bound = sched.declared_memory_bound(SHAPE, BITS)
        bad = seed_model_defect(sched.symbolic_ops(SHAPE, BITS), "inflated-alloc")
        fired, _, _ = seeded_check(bad, declared_bound_elements=bound)
        assert "MC307" in fired

    def test_leak_fires_mc307_under_a_tight_cap(self):
        prog = get_scheduler("fig5").symbolic_ops(SHAPE, BITS)
        cap = seeded_check(prog)[1].lifetime.max_high_water_bytes
        bad = seed_model_defect(
            get_scheduler("fig5").symbolic_ops(SHAPE, BITS), "leak"
        )
        fired, _, _ = seeded_check(bad, mem_cap_bytes=cap)
        assert "MC307" in fired

    @pytest.mark.parametrize("spec", SCHEDULERS)
    def test_clean_program_yields_zero_diagnostics(self, spec):
        prog = get_scheduler(spec).symbolic_ops(SHAPE, BITS)
        fired, _, certified = seeded_check(prog)
        assert fired == set()
        assert certified

    def test_unknown_defect_kind_is_rejected(self):
        prog = get_scheduler("fig5").symbolic_ops(SHAPE, BITS)
        with pytest.raises(ValueError):
            seed_model_defect(prog, "not-a-defect")
