"""Parity between the static model and the simulator: bit-exact memory
high-water marks, the deadlock-certification sweep, and the trace lint
(whose TRACE101/102 read the run's happens-before pairing) through the
CLI."""

import numpy as np
import pytest

from repro.analysis.model import analyze_lifetime, check_model
from repro.cluster.faults import FaultPlan
from repro.cluster.runtime import RecvOp, run_spmd
from repro.core.parallel import construct_cube_parallel
from repro.obs import write_chrome_trace
from repro.sched import get_scheduler

SCHEDULERS = ["fig5", "shuffle", "marginals-2", "marginals-2-shuffle"]

# (shape, bits) covering p=2, 4, 8 and up to n=5 dims, including uneven
# dimension sizes that exercise the remainder arithmetic.
CONFIGS = [
    ((4, 4, 4), (1, 0, 0)),          # p=2
    ((4, 4, 4), (1, 1, 0)),          # p=4
    ((8, 6, 4), (1, 1, 0)),          # p=4, uneven dims
    ((4, 4, 4, 4), (1, 1, 1, 0)),    # p=8
    ((2, 3, 4, 5, 2), (1, 1, 1, 0, 0)),  # p=8, n=5, uneven dims
]


def _measured_peaks(shape, bits, spec):
    size = int(np.prod(shape))
    data = np.arange(size, dtype=float).reshape(shape)
    run = construct_cube_parallel(
        data, bits, collect_results=False, scheduler=spec
    )
    return tuple(run.metrics.rank_peak_memory_elements)


class TestMemoryParity:
    @pytest.mark.parametrize("spec", SCHEDULERS)
    @pytest.mark.parametrize("shape,bits", CONFIGS)
    def test_static_high_water_is_bit_exact(self, spec, shape, bits):
        # The ledger scan must reproduce the simulator's per-rank peak
        # memory exactly -- not within a bound, element for element.
        prog = get_scheduler(spec).symbolic_ops(shape, bits)
        static = analyze_lifetime(prog)
        assert static.from_ledger
        measured = _measured_peaks(shape, bits, spec)
        assert static.rank_high_water == measured, (
            f"{spec} {shape}/{bits}: static {static.rank_high_water} "
            f"vs measured {measured}"
        )


class TestCertificationSweep:
    @pytest.mark.parametrize("spec", SCHEDULERS)
    @pytest.mark.parametrize("shape,bits", CONFIGS)
    def test_every_scheduler_certifies_at_every_scale(self, spec, shape, bits):
        result = check_model(shape, bits, scheduler=spec)
        assert result.certified, result.certificate()
        assert len(result.report.diagnostics) == 0

    @pytest.mark.parametrize("shape,bits", CONFIGS)
    def test_ft_program_certifies_with_crash_sweep(self, shape, bits):
        result = check_model(shape, bits, detection_round=True)
        assert result.certified, result.certificate()
        assert len(result.scenarios) == 1 + 2 ** sum(bits)


class TestCLITraceParity:
    def _run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_clean_trace_agrees(self, tmp_path):
        data = np.arange(64, dtype=float).reshape(4, 4, 4)
        run = construct_cube_parallel(
            data, (1, 1, 0), trace=True, collect_results=False
        )
        path = tmp_path / "clean_trace.json"
        write_chrome_trace(run.metrics, path)
        code, output = self._run_cli(
            "check", "--shape", "4,4,4", "--procs", "4",
            "--run-trace", str(path), "--model",
        )
        assert code == 0, output
        assert "CERTIFIED deadlock-free" in output
        lint = output.split(f"lint of exported trace {path}:")[1]
        assert "TRACE101" not in lint and "TRACE102" not in lint
        assert "lint vs model" not in output  # one pairing, reported once

    def test_seeded_duplicate_trace_agrees_with_lint(self, tmp_path):
        # The linter names the duplicated channel it reads off the run's
        # pairing.  TRACE102 is warning severity, so the check passes
        # while reporting it.
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.ones(4), tag=3)
            else:
                yield RecvOp(src=0, tag=3)
                yield RecvOp(src=0, tag=3)

        plan = FaultPlan(seed=1).duplicate_messages(1.0, src=0, max_events=1)
        metrics = run_spmd(2, program, faults=plan, record_trace=True)
        path = tmp_path / "dup_trace.json"
        write_chrome_trace(metrics, path)
        code, output = self._run_cli(
            "check", "--shape", "4,4,4", "--procs", "2",
            "--run-trace", str(path), "--model",
        )
        assert code == 0, output
        trace102 = [line for line in output.splitlines() if line.startswith("TRACE102")]
        assert len(trace102) == 1
        assert "[rank 1]" in trace102[0] and "0->1 tag 3" in trace102[0]
