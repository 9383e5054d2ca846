"""Fault telemetry: every fault is noted once, in the fault log, with its
channel; the Chrome export draws an instant per entry, and the export of a
deterministic faulted run is pinned by a golden file."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.runtime import RECV_TIMEOUT, RecvOp, run_spmd
from repro.exec import get_backend
from repro.obs import load_run, to_chrome_trace

GOLDEN = Path(__file__).parent / "golden" / "fault_trace.json"


def _faulted_program(env):
    """Rank 0 sends into a dropped channel then times out waiting on a
    crashed rank 1; exercises drop, crash, and timeout injection."""
    if env.rank == 0:
        yield env.compute(100)
        yield env.send(1, np.ones(4), tag=0)  # dropped by the plan
        got = yield RecvOp(src=1, tag=1, timeout=5.0)  # rank 1 is dead
        return got is RECV_TIMEOUT
    yield env.sleep(10.0)  # crash at t=2 kills this rank mid-sleep
    yield env.send(0, np.ones(4), tag=1)


def _faulted_run():
    plan = FaultPlan(seed=3).drop_messages(1.0, src=0).crash(1, 2.0)
    return run_spmd(2, _faulted_program, faults=plan, record_trace=True)


def _dup_then_timeout(env):
    """0 -> 1 tag 3 is duplicated by the plan; rank 1 then waits on a
    message nobody sends."""
    if env.rank == 0:
        yield env.send(1, np.ones(4), tag=3)
    else:
        yield env.recv(0, tag=3)
        yield env.recv(0, tag=3)
        got = yield env.recv(0, tag=4, timeout=0.05)
        return got is RECV_TIMEOUT


@pytest.mark.parametrize("backend", ["sim", "thread", "process"])
def test_message_faults_carry_their_channel_and_the_trace_holds_only_ops(backend):
    plan = FaultPlan(seed=3).duplicate_messages(1.0, src=0, dst=1)
    metrics = get_backend(backend).spawn_ranks(
        2, _dup_then_timeout, faults=plan, record_trace=True
    )
    assert metrics.rank_results[1] is True
    assert [(e.kind, e.rank, e.peer, e.tag) for e in metrics.faults.events] == [
        ("duplicate", 0, 1, 3),
        ("timeout", 1, 0, 4),
    ]
    assert metrics.trace and {op.cat for op in metrics.trace} == {"op"}


class TestFaultInstants:
    def test_every_injected_fault_has_an_instant(self):
        metrics = _faulted_run()
        injected = [
            ev for ev in metrics.faults.events
            if ev.kind in ("crash", "drop", "timeout")
        ]
        assert {ev.kind for ev in injected} == {"crash", "drop", "timeout"}
        doc = to_chrome_trace(metrics)
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert all(ev["cat"] == "fault" for ev in instants)
        for fault in injected:
            matches = [
                i for i in instants
                if i["pid"] == fault.rank
                and i["name"].startswith(f"fault:{fault.kind}")
            ]
            assert matches, f"no instant for injected {fault.kind} on rank {fault.rank}"

    def test_the_fault_log_survives_the_roundtrip(self):
        metrics = _faulted_run()
        loaded = load_run(to_chrome_trace(metrics))
        assert loaded.faults.events == metrics.faults.events
        assert {(e.kind, e.peer, e.tag) for e in loaded.faults.events} >= {
            ("drop", 1, 0),
            ("timeout", 1, 1),
        }

    def test_chrome_export_matches_golden_file(self):
        doc = to_chrome_trace(_faulted_run())
        golden = json.loads(GOLDEN.read_text())
        assert doc == golden, (
            "Chrome export of the pinned faulted run changed; if the "
            "format change is intentional, regenerate tests/golden/"
            "fault_trace.json with scripts in this test's module docstring"
        )

    def test_golden_file_is_well_formed(self):
        golden = json.loads(GOLDEN.read_text())
        assert isinstance(golden["traceEvents"], list)
        assert golden["otherData"]["num_ranks"] == 2
        phases = {ev["ph"] for ev in golden["traceEvents"]}
        assert "i" in phases and "M" in phases


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(to_chrome_trace(_faulted_run()), indent=1))
    print(f"wrote {GOLDEN}")
