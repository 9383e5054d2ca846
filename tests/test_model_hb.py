"""Happens-before construction: vector clocks, MC301/303/304, and the
trace side, where the linter's TRACE101/102 are read off the same pairing."""

import numpy as np
import pytest

from repro.analysis.model import (
    MRecv,
    MSend,
    build_hb,
    hb_from_trace,
    seed_model_defect,
)
from repro.analysis import lint_trace
from repro.cluster.faults import FaultPlan
from repro.cluster.runtime import RecvOp, run_spmd
from repro.sched import get_scheduler

SHAPE, BITS = (4, 4, 4), (1, 1, 0)


def clean_program(spec="fig5", **kwargs):
    return get_scheduler(spec).symbolic_ops(SHAPE, BITS, **kwargs)


class TestCleanPrograms:
    @pytest.mark.parametrize(
        "spec", ["fig5", "shuffle", "marginals-2", "marginals-2-shuffle"]
    )
    def test_clean_program_is_acyclic_with_zero_diagnostics(self, spec):
        graph = build_hb(clean_program(spec))
        assert graph.acyclic
        assert graph.diagnostics == []
        assert graph.unmatched_sends == []
        assert graph.unmatched_recvs == []

    def test_every_send_happens_before_its_receive(self):
        prog = clean_program()
        graph = build_hb(prog)
        assert graph.pairs, "clean fig5 at p=4 moves messages"
        for (src, dst, _tag), plist in graph.pairs.items():
            for si, ri in plist:
                assert graph.happens_before((src, si), (dst, ri))
                assert not graph.happens_before((dst, ri), (src, si))

    def test_program_order_is_happens_before(self):
        graph = build_hb(clean_program())
        rank = 0
        n = len(graph.streams[rank])
        assert n >= 2
        assert graph.happens_before((rank, 0), (rank, n - 1))

    def test_ft_program_has_one_barrier_episode(self):
        graph = build_hb(clean_program(detection_round=True))
        assert graph.barrier_episodes == 1
        assert graph.diagnostics == []

    def test_barrier_orders_cross_rank_events(self):
        # Every pre-barrier event happens-before every post-barrier event
        # of every other rank.
        prog = clean_program(detection_round=True)
        graph = build_hb(prog)
        from repro.analysis.model import MBarrier

        arrivals = {}
        for rank, stream in enumerate(graph.streams):
            for i, op in enumerate(stream):
                if isinstance(op, MBarrier):
                    arrivals[rank] = i
                    break
        for r1, b1 in arrivals.items():
            for r2, b2 in arrivals.items():
                if r1 == r2 or b2 + 1 >= len(graph.streams[r2]):
                    continue
                assert graph.happens_before((r1, b1), (r2, b2 + 1))


class TestSeededDefects:
    def test_tag_race_fires_mc301(self):
        bad = seed_model_defect(clean_program(), "tag-race")
        graph = build_hb(bad)
        assert "MC301" in {d.rule for d in graph.diagnostics}

    def test_barrier_skip_fires_mc303(self):
        bad = seed_model_defect(
            clean_program(detection_round=True), "barrier-skip"
        )
        graph = build_hb(bad)
        assert "MC303" in {d.rule for d in graph.diagnostics}

    def test_causal_cycle_fires_mc304(self):
        bad = seed_model_defect(clean_program(), "causal-cycle")
        graph = build_hb(bad)
        assert not graph.acyclic
        assert "MC304" in {d.rule for d in graph.diagnostics}
        with pytest.raises(ValueError):
            graph.happens_before((0, 0), (1, 0))


class TestTraceSide:
    def _traced_run(self):
        from repro.core.parallel import construct_cube_parallel

        data = np.arange(64, dtype=float).reshape(SHAPE)
        return construct_cube_parallel(
            data, BITS, trace=True, collect_results=False
        ).metrics

    def test_hb_from_trace_pairs_every_message(self):
        graph = hb_from_trace(self._traced_run())
        assert graph.acyclic
        assert graph.unmatched_sends == []
        assert graph.unmatched_recvs == []
        assert sum(len(v) for v in graph.pairs.values()) > 0

    def test_requires_a_trace(self):
        from repro.core.parallel import construct_cube_parallel

        data = np.arange(64, dtype=float).reshape(SHAPE)
        run = construct_cube_parallel(data, BITS, collect_results=False)
        with pytest.raises(ValueError, match="no trace"):
            hb_from_trace(run.metrics)

    @staticmethod
    def _channels(metrics, rule):
        """``{(src, dst, tag): rank}`` the linter names for ``rule``."""
        out = {}
        for d in lint_trace(metrics):
            if d.rule == rule:
                src, _, rest = d.message.partition("->")
                src = int(src.split()[-1])
                dst, tag = int(rest.split()[0]), int(rest.split()[2])
                out[src, dst, tag] = d.rank
        return out

    @staticmethod
    def _unpaired(graph):
        return {
            (r, graph.streams[r][i].dst, graph.streams[r][i].tag)
            for r, i in graph.unmatched_sends
        }

    def test_parity_on_clean_run(self):
        metrics = self._traced_run()
        assert self._channels(metrics, "TRACE101") == {}
        assert self._channels(metrics, "TRACE102") == {}
        assert self._unpaired(hb_from_trace(metrics)) == set()

    def test_parity_on_undelivered_message(self):
        # Rank 0 sends into the void: TRACE101 is the graph's unpaired
        # send, named on its channel and blamed on the receiver.
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.ones(4), tag=7)
            else:
                yield env.compute(1)

        metrics = run_spmd(2, program, record_trace=True)
        assert self._channels(metrics, "TRACE101") == {(0, 1, 7): 1}
        assert self._unpaired(hb_from_trace(metrics)) == {(0, 1, 7)}

    def test_parity_on_duplicate_delivery(self):
        # An injected duplicate consumed twice: the channel is paired twice
        # against one intentional send, which is TRACE102.
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.ones(4), tag=3)
            else:
                yield RecvOp(src=0, tag=3)
                yield RecvOp(src=0, tag=3)

        plan = FaultPlan(seed=1).duplicate_messages(1.0, src=0, max_events=1)
        metrics = run_spmd(2, program, faults=plan, record_trace=True)
        assert len(hb_from_trace(metrics).pairs[0, 1, 3]) == 2
        assert self._channels(metrics, "TRACE102") == {(0, 1, 3): 1}
        assert self._channels(metrics, "TRACE101") == {}

    def test_injected_drop_is_not_misattributed(self):
        # A dropped payload never reached the network: the graph has no
        # send to leave unpaired, so TRACE101 stays silent.
        def program(env):
            if env.rank == 0:
                yield env.send(1, np.ones(4), tag=5)
            else:
                got = yield RecvOp(src=0, tag=5, timeout=0.01)
                return got

        plan = FaultPlan(seed=1).drop_messages(1.0, src=0, max_events=1)
        metrics = run_spmd(2, program, faults=plan, record_trace=True)
        assert self._unpaired(hb_from_trace(metrics)) == set()
        assert self._channels(metrics, "TRACE101") == {}


class TestProjectionSanity:
    def test_streams_carry_send_and_recv_ops(self):
        prog = clean_program()
        kinds = {
            type(op) for stream in prog.streams for op in stream
        }
        assert MSend in kinds and MRecv in kinds
