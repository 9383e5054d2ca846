"""Static plan verifier: exactness against the closed forms and defect seeding.

The acceptance sweep: for every dimensionality n <= 6, processor count
p in {2, 4, 8, 16}, and *every* partition with sum(k_i) = k, the statically
recorded communication volume equals the Theorem 3 closed form -- and,
for a representative sub-grid, the volume and per-rank memory peaks a real
``run_spmd`` execution measures.  Property tests then prove each seeded
defect class is caught while clean plans yield zero diagnostics.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import seed_model_defect, verify_plan, verify_schedule
from repro.analysis.model import MBarrier, MRecv, MSend
from repro.core.comm_model import total_comm_volume
from repro.core.memory_model import parallel_memory_bound_exact
from repro.core.parallel import construct_cube_parallel
from repro.sched import Fig5Scheduler, get_scheduler


def ft_program(shape, bits):
    """The recorded fault-tolerant Fig 5 program (it has a barrier)."""
    return get_scheduler("fig5").symbolic_ops(shape, bits, detection_round=True)


def compositions(total, parts):
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# Descending (canonical-order) dim sizes, all >= 16 so every k_i <= 4 is
# a legal split with no empty blocks.
DIM_SIZES = (19, 18, 17, 16, 16, 16)

DEFECT_KINDS = ("dropped-recv", "tag-collision", "wrong-lead", "barrier-skip")


class TestClosedFormSweep:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_static_volume_equals_theorem3_for_every_partition(self, n, k):
        shape = DIM_SIZES[:n]
        for bits in compositions(k, n):
            v = verify_plan(shape, bits)
            assert v.ok, (bits, v.describe())
            closed = total_comm_volume(shape, bits)
            assert v.predicted_volume_elements == closed, (bits, v.describe())
            assert v.closed_form_volume_elements == closed
            assert v.predicted_peak_memory_elements <= v.memory_bound_elements
            assert v.memory_bound_elements == parallel_memory_bound_exact(shape, bits)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 4)]
    )
    def test_static_volume_and_peaks_match_measured_run(self, n, k):
        shape = (16,) * n
        arr = np.arange(np.prod(shape), dtype=float).reshape(shape)
        for bits in compositions(k, n):
            v = verify_plan(shape, bits)
            res = construct_cube_parallel(arr, bits, collect_results=False)
            m = res.metrics
            assert m.comm.total_elements == v.predicted_volume_elements, bits
            assert m.comm.total_elements == total_comm_volume(shape, bits)
            assert list(m.rank_peak_memory_elements) == list(
                v.rank_peak_memory_elements
            ), bits

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2)])
    def test_higher_dimensional_measured_runs(self, n, k):
        shape = (4,) * n
        arr = np.arange(np.prod(shape), dtype=float).reshape(shape)
        for bits in compositions(k, n):
            v = verify_plan(shape, bits)
            res = construct_cube_parallel(arr, bits, collect_results=False)
            assert res.metrics.comm.total_elements == v.predicted_volume_elements
            assert list(res.metrics.rank_peak_memory_elements) == list(
                v.rank_peak_memory_elements
            )

    def test_detection_round_adds_only_control_traffic(self):
        plain = verify_plan((8, 6, 4), (1, 1, 1))
        ft = verify_plan((8, 6, 4), (1, 1, 1), detection_round=True)
        assert ft.ok, ft.describe()
        # Heartbeats are zero-element control messages and do not change
        # the Theorem 3 data volume.
        assert ft.predicted_volume_elements == plain.predicted_volume_elements
        p = ft.schedule.num_ranks
        assert ft.schedule.total_messages == plain.schedule.total_messages + p * (p - 1)
        assert all(
            any(isinstance(op, MBarrier) for op in stream)
            for stream in ft.schedule.streams
        )


class TestSeededDefects:
    @pytest.fixture()
    def sched(self):
        return ft_program((4, 4, 2), (1, 1, 0))

    def test_clean_schedule_has_zero_diagnostics(self, sched):
        assert verify_schedule(sched).diagnostics == []

    @pytest.mark.parametrize(
        "kind,rule",
        [
            ("dropped-recv", "SPMD001"),
            ("tag-collision", "MC301"),
            ("wrong-lead", "SPMD004"),
            ("barrier-skip", "MC303"),
        ],
    )
    def test_each_defect_class_is_flagged(self, sched, kind, rule):
        # One rule per defect: the static pass proves each property once.
        diags = verify_schedule(seed_model_defect(sched, kind)).diagnostics
        assert diags, kind
        assert any(d.rule == rule for d in diags), (kind, [d.format() for d in diags])

    def test_dropped_recv_points_at_the_channel(self, sched):
        diags = verify_schedule(seed_model_defect(sched, "dropped-recv")).diagnostics
        d = next(d for d in diags if d.rule == "SPMD001")
        assert d.severity == "error"
        assert d.edge is not None
        assert "recv" in d.hint

    def test_lead_must_hold_the_node_it_receives(self):
        # SPMD004's second clause: correct routing is not enough, the
        # receiver must have the node live when it posts the receive.
        from dataclasses import replace

        from repro.analysis.model import MAlloc, MFree

        clean = get_scheduler("fig5").symbolic_ops((4, 4, 2), (1, 1, 0))
        send = next(
            op for s in clean.streams for op in s if isinstance(op, MSend)
        )
        streams = list(clean.streams)
        streams[send.dst] = tuple(
            op
            for op in streams[send.dst]
            if not (isinstance(op, (MAlloc, MFree)) and op.key == send.edge)
        )
        diags = verify_schedule(replace(clean, streams=tuple(streams))).diagnostics
        assert [d.rule for d in diags] == ["SPMD004"]
        assert (diags[0].rank, diags[0].edge) == (send.dst, send.edge)

    def test_wrong_lead_needs_three_ranks(self):
        sched = get_scheduler("fig5").symbolic_ops((8, 4), (1, 0))
        with pytest.raises(ValueError, match="at least 3 ranks"):
            seed_model_defect(sched, "wrong-lead")

    def test_barrier_skip_requires_detection_round(self):
        sched = get_scheduler("fig5").symbolic_ops((4, 4), (1, 1))
        with pytest.raises(ValueError, match="detection_round"):
            seed_model_defect(sched, "barrier-skip")

    def test_unknown_kind_rejected(self, sched):
        with pytest.raises(ValueError, match="unknown defect kind"):
            seed_model_defect(sched, "gremlins")

    def test_seeding_does_not_mutate_the_original(self, sched):
        before = sched.streams
        seed_model_defect(sched, "tag-collision")
        assert sched.streams == before


@st.composite
def plan_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    bits = draw(st.sampled_from(sorted(compositions(k, n))))
    shape = tuple(draw(st.integers(2**b, 2**b + 3)) for b in bits)
    return shape, bits


class TestDefectProperty:
    @given(case=plan_cases(), kind=st.sampled_from(DEFECT_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_clean_plans_verify_and_defects_do_not(self, case, kind):
        shape, bits = case
        assume(not (kind == "wrong-lead" and 2 ** sum(bits) < 3))
        sched = ft_program(shape, bits)
        assert verify_schedule(sched).diagnostics == []
        # The full plan check also proves Theorem 3 / Theorem 4 hold.
        assert verify_plan(shape, bits, detection_round=True).ok
        diags = verify_schedule(seed_model_defect(sched, kind)).diagnostics
        assert diags, (shape, bits, kind)
        assert all(d.rule.startswith(("SPMD", "MC")) for d in diags)
        assert all(d.severity == "error" for d in diags)


class TestClosedFormRules:
    def test_volume_mismatch_fires_spmd006(self, monkeypatch):
        monkeypatch.setattr(Fig5Scheduler, "declared_volume", lambda self, shape, bits: -1)
        v = verify_plan((4, 4), (1, 1))
        assert not v.ok
        assert [d.rule for d in v.report.errors] == ["SPMD006"]

    def test_memory_bound_excess_fires_mc307(self, monkeypatch):
        monkeypatch.setattr(
            Fig5Scheduler, "declared_memory_bound", lambda self, shape, bits: 0
        )
        v = verify_plan((4, 4), (1, 1))
        assert not v.ok
        # One MC307 per rank over the bound, each naming its rank.
        assert [d.rule for d in v.report.errors] == ["MC307"] * v.schedule.num_ranks
        assert [d.rank for d in v.report.errors] == list(range(v.schedule.num_ranks))

    def test_inflated_alloc_fires_mc307_through_the_ledger(self):
        # The static pass holds the ledger to the declared bound: a seeded
        # inflation pushes the recorded high-water past Theorem 4.
        prog = get_scheduler("fig5").symbolic_ops((4, 4), (1, 1))
        bad = seed_model_defect(prog, "inflated-alloc")
        bound = parallel_memory_bound_exact((4, 4), (1, 1))
        assert verify_schedule(prog, declared_bound_elements=bound).diagnostics == []
        diags = verify_schedule(bad, declared_bound_elements=bound).diagnostics
        assert {d.rule for d in diags} == {"MC307"}


class TestScheduleShape:
    def test_symbolic_ops_are_well_formed(self):
        sched = ft_program((4, 4, 2), (1, 1, 0))
        for rank, stream in enumerate(sched.streams):
            for index, op in enumerate(stream):
                assert (op.rank, op.step) == (rank, index)
                if isinstance(op, MSend):
                    assert op.rank != op.dst
                    assert op.elements >= 0
                    assert (op.edge is None) == (op.elements == 0)
                elif isinstance(op, MRecv):
                    assert op.src != op.rank
        assert sched.total_elements == total_comm_volume((4, 4, 2), (1, 1, 0))

    def test_describe_mentions_theorems(self):
        v = verify_plan((4, 4), (1, 1))
        text = v.describe()
        assert "Theorem 3" in text and "Theorem 4" in text
        assert "no diagnostics" in text

    def test_shape_bits_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            verify_plan((4, 4), (1,))
