"""Unit and integration tests for the live snapshot bus (repro.obs.live).

Covers the snapshot value type, the lock-free :class:`RankProbe`, the
monotonic fold rules of :class:`LiveRunView` (stale drops, respawn
incarnation resets, rate derivation), the ``top`` frame rendering, and
the end-to-end bus on all three backends -- the simulator attaches but
publishes nothing, the thread and process backends deliver per-rank
snapshots including the terminal ``done`` state.  Tracer rank-safety
under concurrent rank threads lives here too: the sampler reads tracers
from another thread, so span parentage must never cross ranks.
"""

import threading

import pytest

from repro.cluster.runtime import BarrierOp, ComputeOp, SleepOp
from repro.exec import get_backend
from repro.obs.live import (
    DEFAULT_INTERVAL_S,
    LiveRunView,
    RankProbe,
    RankSnapshot,
)
from repro.obs.span import NULL_TRACER, NullTracer, Tracer


def make_snap(rank=0, incarnation=0, seq=1, t=0.0, **overrides):
    fields = dict(
        op_index=0,
        op_kind="ComputeOp",
        open_stack=(),
        peak_memory_elements=0,
        messages_sent=0,
        bytes_sent=0,
        done=False,
    )
    fields.update(overrides)
    return RankSnapshot(
        rank=rank, incarnation=incarnation, seq=seq, t=t, **fields
    )


class TestRankSnapshot:
    def test_phase_is_innermost_open_span(self):
        s = make_snap(open_stack=("build", "build.reduce"))
        assert s.phase == "build.reduce"

    def test_phase_none_when_untraced(self):
        assert make_snap(open_stack=()).phase is None


class _FakeEnv:
    incarnation = 2
    peak_memory_elements = 640


class _FakeComm:
    total_messages = 7
    total_bytes = 4096


class TestRankProbe:
    def test_snapshot_reads_env_comm_and_clock(self):
        probe = RankProbe(3, _FakeEnv(), None, _FakeComm(), lambda: 1.5)
        probe.op_index = 9
        probe.op_kind = "SendOp"
        snap = probe.snapshot()
        assert snap.rank == 3
        assert snap.incarnation == 2
        assert snap.t == 1.5
        assert snap.op_index == 9
        assert snap.op_kind == "SendOp"
        assert snap.peak_memory_elements == 640
        assert snap.messages_sent == 7
        assert snap.bytes_sent == 4096
        assert not snap.done

    def test_seq_increments_per_snapshot(self):
        probe = RankProbe(0, None, None, None, lambda: 0.0)
        assert [probe.snapshot().seq for _ in range(3)] == [1, 2, 3]

    def test_placeholder_state_snapshots_cleanly(self):
        # The thread backend creates probes before drivers fill them in;
        # a sampler tick in that window must still produce a snapshot.
        snap = RankProbe(1, None, None, None, lambda: 0.0).snapshot()
        assert snap.incarnation == 0
        assert snap.open_stack == ()
        assert snap.messages_sent == 0
        assert snap.op_kind == "startup"

    def test_open_stack_tracks_mark_and_spans(self):
        tr = Tracer(rank=0, clock=lambda: 0.0)
        probe = RankProbe(0, None, tr, None, lambda: 0.0)
        tr.mark("build.first_level")
        assert probe.snapshot().open_stack == ("build.first_level",)
        with tr.span("serve.batch"):
            assert probe.snapshot().open_stack == (
                "serve.batch", "build.first_level",
            )

    def test_null_tracer_contributes_nothing_and_stays_inert(self):
        probe = RankProbe(0, None, NULL_TRACER, None, lambda: 0.0)
        for _ in range(5):
            assert probe.snapshot().open_stack == ()
        # Sampling an untraced rank must not grow any tracer state.
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.current_phase is None

    def test_done_flag_carried(self):
        probe = RankProbe(0, None, None, None, lambda: 0.0)
        probe.done = True
        assert probe.snapshot().done


class TestLiveRunViewFold:
    def test_update_accepts_strictly_newer(self):
        view = LiveRunView()
        assert view.update(make_snap(seq=1))
        assert view.update(make_snap(seq=2))
        assert view.latest(0).seq == 2
        assert view.snapshot_count == 2

    def test_stale_and_duplicate_snapshots_dropped(self):
        view = LiveRunView()
        view.update(make_snap(seq=5))
        assert not view.update(make_snap(seq=5))  # duplicate
        assert not view.update(make_snap(seq=3))  # late straggler
        assert view.latest(0).seq == 5
        assert view.snapshot_count == 1

    def test_respawn_incarnation_wins_over_higher_seq(self):
        view = LiveRunView()
        view.update(make_snap(incarnation=0, seq=50))
        assert view.update(make_snap(incarnation=1, seq=1))
        assert view.latest(0).incarnation == 1
        # Pre-respawn stragglers never move the view backwards.
        assert not view.update(make_snap(incarnation=0, seq=51))

    def test_rates_from_same_incarnation_deltas(self):
        view = LiveRunView()
        view.update(make_snap(seq=1, t=1.0, messages_sent=2, bytes_sent=1024))
        assert view.rates(0) == (0.0, 0.0)  # one snapshot: no delta yet
        view.update(make_snap(seq=2, t=3.0, messages_sent=6, bytes_sent=5120))
        assert view.rates(0) == (2.0, 2048.0)

    def test_rates_reset_across_respawn(self):
        # A respawn restarts cumulative counters; a cross-incarnation
        # delta would be negative garbage, so the predecessor is dropped.
        view = LiveRunView()
        view.update(make_snap(incarnation=0, seq=9, t=1.0, messages_sent=40))
        view.update(make_snap(incarnation=1, seq=1, t=2.0, messages_sent=0))
        assert view.rates(0) == (0.0, 0.0)

    def test_stack_counts_accumulate_excluding_done(self):
        view = LiveRunView()
        view.update(make_snap(seq=1, open_stack=("build.first_level",)))
        view.update(make_snap(seq=2, open_stack=("build.first_level",)))
        view.update(make_snap(seq=3, open_stack=("build.reduce",)))
        view.update(make_snap(seq=4, open_stack=(), done=True))
        assert view.stack_counts() == {
            (0, ("build.first_level",)): 2,
            (0, ("build.reduce",)): 1,
        }

    def test_snapshots_ordered_by_rank(self):
        view = LiveRunView()
        view.update(make_snap(rank=2))
        view.update(make_snap(rank=0))
        assert [s.rank for s in view.snapshots()] == [0, 2]
        assert view.latest(1) is None

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            LiveRunView(interval_s=0.0)
        assert LiveRunView().interval_s == DEFAULT_INTERVAL_S

    def test_attach_and_finish_lifecycle(self):
        view = LiveRunView()
        view.attach(4, "thread")
        assert (view.num_ranks, view.backend, view.finished) == (
            4, "thread", False,
        )
        view.finish()
        assert view.finished


class TestRender:
    def test_empty_view_renders_placeholder(self):
        text = LiveRunView().render()
        assert "(no snapshots yet)" in text
        assert "running" in text

    def test_frame_shows_ranks_phase_and_bound(self):
        view = LiveRunView(memory_bound_elements=200)
        view.attach(2, "thread")
        view.update(make_snap(
            rank=0, open_stack=("build.first_level",),
            peak_memory_elements=100,
        ))
        view.update(make_snap(rank=1, op_kind="done", done=True))
        view.finish()
        text = view.render()
        assert "live view [thread] finished" in text
        assert "2/2 ranks reporting" in text
        assert "build.first_level" in text
        assert "50%" in text  # 100 of the 200-element bound
        assert "(done)" in text


def _phased_program(env):
    """Two marked phases with real wall-time for the sampler to observe."""
    if env.tracer.enabled:
        env.tracer.mark("build.first_level")
    yield ComputeOp(element_ops=100.0)
    yield SleepOp(seconds=0.05)
    yield BarrierOp()
    if env.tracer.enabled:
        env.tracer.mark("build.reduce")
    yield SleepOp(seconds=0.05)
    return env.rank


class TestBackendBus:
    def test_thread_backend_publishes_phased_snapshots(self):
        view = LiveRunView(interval_s=0.01)
        backend = get_backend("thread")
        backend.spawn_ranks(
            4, _phased_program, record_trace=True, live=view
        )
        assert view.finished
        assert view.num_ranks == 4
        assert view.backend == "thread"
        snaps = view.snapshots()
        assert [s.rank for s in snaps] == [0, 1, 2, 3]
        assert all(s.done for s in snaps)  # final sweep landed
        assert view.snapshot_count >= 4
        observed = {stack for (_, stack) in view.stack_counts()}
        assert observed <= {("build.first_level",), ("build.reduce",)}
        assert observed  # the sleeps guarantee at least one live sample

    def test_process_backend_publishes_terminal_snapshots(self):
        view = LiveRunView()
        backend = get_backend("process")
        backend.spawn_ranks(
            2, _phased_program, record_trace=True, live=view
        )
        assert view.finished
        assert view.num_ranks == 2
        snaps = view.snapshots()
        assert [s.rank for s in snaps] == [0, 1]
        assert all(s.done for s in snaps)

    def test_sim_backend_attaches_but_publishes_nothing(self):
        view = LiveRunView()
        get_backend("sim").spawn_ranks(
            2, _phased_program, record_trace=True, live=view
        )
        assert view.finished
        assert view.num_ranks == 2
        assert view.snapshot_count == 0

    def test_untraced_run_publishes_empty_stacks(self):
        view = LiveRunView(interval_s=0.01)
        get_backend("thread").spawn_ranks(
            2, _phased_program, record_trace=False, live=view
        )
        assert view.finished
        assert all(
            stack == () for (_, stack) in view.stack_counts()
        )

    def test_construct_cube_parallel_live_funnel(self):
        from repro.arrays.dataset import random_sparse
        from repro.core.plan import plan_cube

        view = LiveRunView(interval_s=0.01)
        data = random_sparse((8, 8, 4), 0.3, seed=0)
        plan = plan_cube((8, 8, 4), num_processors=4)
        run = plan.run_parallel(data, trace=True, backend="thread", live=view)
        assert run.backend == "thread"
        assert view.finished
        assert view.num_ranks == 4
        assert all(s.done for s in view.snapshots())
        # The bus observes only: aggregates are bit-identical to a plain build.
        plain = plan.run_parallel(data, backend="thread")
        assert set(run.results) == set(plain.results)
        for node, arr in plain.results.items():
            assert arr.data.tobytes() == run.results[node].data.tobytes()


class TestTracerRankSafety:
    def test_span_parentage_never_crosses_ranks(self):
        # One tracer per rank thread, nesting concurrently: every span
        # must carry its own rank and a parent recorded on the *same*
        # tracer -- exactly the invariant the live sampler relies on when
        # it reads open stacks from another thread.
        tracers = [Tracer(rank=r, clock=lambda: 0.0) for r in range(8)]
        start = threading.Barrier(8)

        def work(rank):
            tr = tracers[rank]
            start.wait()
            for i in range(200):
                with tr.span(f"outer.r{rank}"):
                    with tr.span(f"inner.r{rank}", i=i):
                        pass

        threads = [
            threading.Thread(target=work, args=(r,)) for r in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for rank, tr in enumerate(tracers):
            assert len(tr.spans) == 400
            assert all(s.rank == rank for s in tr.spans)
            for s in tr.spans:
                assert s.parent in (None, f"outer.r{rank}")
                assert s.name.endswith(f".r{rank}")

    def test_null_tracer_inert_under_concurrent_sampling(self):
        # The shared NULL_TRACER is read by samplers while rank threads
        # call its no-op methods: no state may accrete anywhere.
        probe = RankProbe(0, None, NULL_TRACER, None, lambda: 0.0)
        stop = threading.Event()
        stacks = []

        def sample():
            while not stop.is_set():
                stacks.append(probe.snapshot().open_stack)

        sampler = threading.Thread(target=sample)
        sampler.start()
        for i in range(2000):
            NULL_TRACER.mark(f"phase{i}")
            with NULL_TRACER.span("x"):
                NULL_TRACER.instant("y")
        stop.set()
        sampler.join()
        assert all(s == () for s in stacks)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.current_phase is None
        assert isinstance(NULL_TRACER, NullTracer)

    def test_null_tracer_allocates_nothing(self):
        import tracemalloc

        # Warm every code path first so no lazy setup is billed below.
        NULL_TRACER.mark("warm")
        with NULL_TRACER.span("warm"):
            NULL_TRACER.instant("warm")
        NULL_TRACER.open_stack()

        tracemalloc.start()
        for i in range(1000):
            NULL_TRACER.mark("phase")
            with NULL_TRACER.span("x"):
                NULL_TRACER.instant("y")
            assert NULL_TRACER.open_stack() == ()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        span_bytes = sum(
            stat.size
            for stat in snapshot.statistics("filename")
            if "repro/obs/span" in stat.traceback[0].filename.replace("\\", "/")
        )
        assert span_bytes == 0, (
            f"NULL_TRACER allocated {span_bytes} bytes; the disabled "
            "tracer must be free under the live sampler"
        )
