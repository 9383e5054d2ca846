"""Tests for the sampling span profiler (repro.obs.profile).

Synthetic-span cases pin the resampling rules exactly -- bucket-midpoint
grids, innermost-span attribution for nested spans, ``[idle]`` for busy
clock outside every span, host-span exclusion -- and an end-to-end sim
build asserts >= 80 % attribution.
"""

from types import SimpleNamespace

import pytest

from repro.obs.live import LiveRunView, RankSnapshot
from repro.obs.profile import ProfileResult, write_collapsed
from repro.obs.span import Span


def span(name, t0, t1, rank=0, parent=None):
    return Span(name=name, rank=rank, t_start=t0, t_end=t1, parent=parent)


def fake_metrics(spans, rank_clocks):
    return SimpleNamespace(spans=spans, rank_clocks=rank_clocks)


class TestFromRun:
    def test_midpoint_grid_attributes_proportionally(self):
        metrics = fake_metrics(
            [span("build.a", 0.0, 0.6), span("build.b", 0.6, 1.0)],
            rank_clocks=[1.0],
        )
        result = ProfileResult.from_run(metrics, interval_s=0.1)
        assert result.stacks == {
            (0, ("build.a",)): 6,
            (0, ("build.b",)): 4,
        }
        assert result.samples_total == 10
        assert result.attribution_fraction == 1.0
        assert result.phase_fractions() == pytest.approx(
            {"build.a": 0.6, "build.b": 0.4}
        )

    def test_nested_spans_attribute_to_innermost(self):
        metrics = fake_metrics(
            [
                span("build", 0.0, 1.0),
                span("build.reduce", 0.5, 1.0, parent="build"),
            ],
            rank_clocks=[1.0],
        )
        result = ProfileResult.from_run(metrics, interval_s=0.1)
        assert result.stacks == {
            (0, ("build",)): 5,
            (0, ("build", "build.reduce")): 5,
        }
        # Top-level phase fractions fold the nested half into "build".
        assert result.phase_fractions() == pytest.approx({"build": 1.0})

    def test_busy_clock_outside_spans_is_idle(self):
        metrics = fake_metrics(
            [span("build.a", 0.0, 0.5)], rank_clocks=[1.0]
        )
        result = ProfileResult.from_run(metrics, interval_s=0.1)
        assert result.stacks[(0, ())] == 5
        assert result.attribution_fraction == pytest.approx(0.5)
        assert "rank 0;[idle] 5" in result.collapsed()

    def test_host_spans_excluded(self):
        metrics = fake_metrics(
            [
                span("host.assemble", 0.0, 10.0, rank=-1),
                span("build.a", 0.0, 1.0, rank=0),
            ],
            rank_clocks=[1.0],
        )
        result = ProfileResult.from_run(metrics, interval_s=0.1)
        assert set(result.stacks) == {(0, ("build.a",))}

    def test_each_rank_sampled_over_its_own_clock(self):
        metrics = fake_metrics(
            [
                span("build.a", 0.0, 1.0, rank=0),
                span("build.a", 0.0, 2.0, rank=1),
            ],
            rank_clocks=[1.0, 2.0],
        )
        result = ProfileResult.from_run(metrics, interval_s=0.1)
        assert result.stacks[(0, ("build.a",))] == 10
        assert result.stacks[(1, ("build.a",))] == 20

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ProfileResult.from_run(fake_metrics([], []), interval_s=0.0)

    def test_no_spans_no_samples(self):
        result = ProfileResult.from_run(fake_metrics([], [5.0]))
        assert result.samples_total == 0
        assert result.attribution_fraction == 1.0
        assert result.collapsed() == ""
        assert result.phase_fractions() == {}


class TestCollapsed:
    def test_heaviest_stack_first_and_semicolon_frames(self):
        result = ProfileResult(
            stacks={
                (0, ("a", "a.x")): 2,
                (1, ("b",)): 7,
            },
            interval_s=0.001,
        )
        lines = result.collapsed().splitlines()
        assert lines == ["rank 1;b 7", "rank 0;a;a.x 2"]

    def test_write_collapsed_roundtrip(self, tmp_path):
        result = ProfileResult(stacks={(0, ("a",)): 3}, interval_s=0.001)
        out = write_collapsed(result, tmp_path / "flame.txt")
        assert out.read_text() == "rank 0;a 3\n"


class TestFromView:
    def test_wraps_live_stack_counts(self):
        view = LiveRunView()
        for seq, stack in enumerate(
            [("build.first_level",), ("build.first_level",), ("build.reduce",)],
            start=1,
        ):
            view.update(RankSnapshot(
                rank=0, incarnation=0, seq=seq, t=float(seq),
                op_index=seq, op_kind="ComputeOp", open_stack=stack,
                peak_memory_elements=0, messages_sent=0, bytes_sent=0,
                done=False,
            ))
        result = ProfileResult.from_view(view)
        assert result.interval_s == 0.0
        assert result.stacks == view.stack_counts()
        assert result.phase_fractions() == pytest.approx(
            {"build.first_level": 2 / 3, "build.reduce": 1 / 3}
        )


class TestEndToEnd:
    def test_sim_build_attribution_meets_gate(self):
        from repro.arrays.dataset import random_sparse
        from repro.core.plan import plan_cube

        shape = (16, 8, 8)
        plan = plan_cube(shape, num_processors=4)
        run = plan.run_parallel(
            random_sparse(shape, 0.3, seed=0),
            trace=True,
            collect_results=False,
        )
        result = ProfileResult.from_run(run.metrics)
        assert result.samples_total > 0
        # The profiler's acceptance bar: >= 80 % of samples land in
        # named spans on an instrumented build.
        assert result.attribution_fraction >= 0.8
        top = result.phase_fractions()
        assert top  # phases named, fractions sum to ~1
        assert sum(top.values()) == pytest.approx(1.0)
