"""The real-clock rank driver, exercised without threads or processes.

``drive_rank`` takes its transport as plain objects, so one rank can be
driven on the test's own thread over ``queue.SimpleQueue`` inboxes and a
no-op barrier: messages a peer "sent" are simply pre-loaded.
"""

import queue
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.runtime import RECV_TIMEOUT, RecvOp, SendOp
from repro.exec.driver import WorkerError, drive_rank

STATS_KEYS = {
    "result", "clock", "peak_memory_elements", "compute_ops",
    "disk_bytes_written", "disk_bytes_read", "comm", "trace", "faults",
    "spans", "samples", "registry",
}


def drive(program, *, rank=0, num_ranks=2, inboxes=None, **kwargs):
    """Drive ``program`` as ``rank`` on this thread; returns (stats, inboxes)."""
    inboxes = inboxes or [queue.SimpleQueue() for _ in range(num_ranks)]
    kwargs.setdefault("record_trace", False)
    kwargs.setdefault("watchdog_s", 5.0)
    stats = drive_rank(
        rank, num_ranks, MachineModel.paper_cluster(), program, inboxes,
        lambda await_message: None, time.monotonic, **kwargs,
    )
    return stats, inboxes


def test_recv_matches_on_src_and_tag_not_arrival_order():
    inboxes = [queue.SimpleQueue() for _ in range(3)]
    inboxes[0].put((2, 7, "from-2"))
    inboxes[0].put((1, 9, "wrong-tag"))
    inboxes[0].put((1, 7, "from-1"))

    def program(env):
        first = yield RecvOp(src=1, tag=7)
        second = yield RecvOp(src=2, tag=7)
        third = yield RecvOp(src=1, tag=9)
        return first, second, third

    stats, _ = drive(program, num_ranks=3, inboxes=inboxes)
    assert stats["result"] == ("from-1", "from-2", "wrong-tag")


def test_recv_past_its_deadline_resumes_with_recv_timeout():
    def program(env):
        got = yield RecvOp(src=1, tag=0, timeout=0.02)
        return got

    stats, _ = drive(program, record_trace=True)
    assert stats["result"] is RECV_TIMEOUT
    assert [ev.kind for ev in stats["faults"].events] == ["timeout"]
    (fault,) = stats["faults"].events
    assert (fault.peer, fault.tag) == (1, 0)
    (wait,) = stats["trace"]
    assert (wait.name, wait.cat, wait.attrs) == (
        "wait", "op", {"peer": 1, "tag": 0, "detail": "timeout"}
    )


def test_watchdog_raises_worker_error_carrying_the_rank():
    def program(env):
        yield RecvOp(src=0, tag=3)

    with pytest.raises(WorkerError, match="no message from 0 tag 3") as info:
        drive(program, rank=1, watchdog_s=0.05)
    assert info.value.rank == 1


def test_unknown_op_is_a_type_error():
    def program(env):
        yield "not an op"

    with pytest.raises(TypeError, match="rank 0 yielded unknown op"):
        drive(program)


def test_duplicate_delivery_posts_and_counts_every_copy():
    payload = np.ones(4)

    def program(env):
        yield SendOp(dst=1, tag=5, payload=payload)

    plan = FaultPlan(seed=0).duplicate_messages(1.0, src=0, dst=1)
    stats, inboxes = drive(program, faults=plan, record_trace=True)
    delivered = [inboxes[1].get_nowait() for _ in range(2)]
    assert all(src == 0 and tag == 5 and p is payload for src, tag, p in delivered)
    assert inboxes[1].empty()
    assert stats["comm"].total_messages == 2
    assert stats["comm"].total_elements == 8
    assert [ev.kind for ev in stats["faults"].events] == ["duplicate"]
    (fault,) = stats["faults"].events
    assert (fault.peer, fault.tag) == (1, 5)
    assert [(ev.name, ev.cat) for ev in stats["trace"]] == [("send", "op")]


@pytest.mark.parametrize("record_trace", [False, True])
def test_stats_dict_has_exactly_the_keys_merge_rank_stats_reads(record_trace):
    def program(env):
        yield env.compute(10)
        yield env.disk_write(64)
        yield env.disk_read(32)
        return "done"

    stats, _ = drive(program, record_trace=record_trace)
    assert set(stats) == STATS_KEYS
    assert stats["result"] == "done"
    assert stats["compute_ops"] == 10
    assert stats["disk_bytes_written"] == 64
    assert stats["disk_bytes_read"] == 32
    assert (stats["registry"] is not None) == record_trace


@pytest.mark.parametrize(
    "module",
    [
        "repro.sched.fig5",
        "repro.sched.marginals",
        "repro.core.partial",
        "repro.core.parallel",
    ],
)
def test_module_imports_cleanly_first_in_a_fresh_interpreter(module):
    # repro.core is imported eagerly as a package while repro.sched imports
    # repro.core modules: whichever side is named first must still load.
    subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"], check=True
    )
