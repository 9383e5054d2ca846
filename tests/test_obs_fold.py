"""The span fold against brute-force reference readers.

Every time-based reading of a run -- the per-rank activity breakdown, the
idle fractions behind ``trace summarize`` and TRACE105, the phase totals
and coverage, and the resampling profiler -- goes through
:func:`repro.obs.report.fold_spans`.  The references below are the
straightforward readers the fold replaced: a per-rank loop summing each op
span's duration, a pass over the top-level rank spans, and a sampler that
scans every span at every sample instant.  Equality is exact (``==`` on
floats and dicts, not approximate) on traced sim, thread and process
builds and on the recorded runs the export tests lint.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import lint_trace
from repro.analysis.lint_trace import IDLE_SKEW_THRESHOLD
from repro.core.parallel import construct_cube_parallel
from repro.obs.profile import ProfileResult
from repro.obs.report import (
    KINDS,
    breakdown,
    fold_spans,
    idle_fractions,
    phase_coverage,
    phase_totals,
)
from repro.obs.span import Span
from tests.test_obs_export import LINT_RUNS


def _build(backend):
    shape = (16, 8, 8, 8)
    data = np.arange(np.prod(shape), dtype=float).reshape(shape)
    return construct_cube_parallel(
        data, (1, 1, 1, 0), backend=backend, trace=True, collect_results=False
    ).metrics


RUNS = {
    "sim": lambda: _build("sim"),
    "thread": lambda: _build("thread"),
    "process": lambda: _build("process"),
    **{f"lint-{name}": build for name, (build, _) in LINT_RUNS.items()},
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    return RUNS[request.param]()


# -- reference readers -------------------------------------------------------


def _innermost_stack(spans, t):
    """The covering spans at instant ``t``, outermost first."""
    covering = [s for s in spans if s.t_start <= t < s.t_end]
    covering.sort(key=lambda s: (s.t_start, -s.t_end))
    return tuple(s.name for s in covering)


def reference_profile(metrics, interval_s):
    by_rank = {}
    for s in metrics.spans:
        if s.rank >= 0:
            by_rank.setdefault(s.rank, []).append(s)
    stacks = {}
    for rank, spans in sorted(by_rank.items()):
        for k in range(int(metrics.rank_clocks[rank] / interval_s)):
            key = (rank, _innermost_stack(spans, (k + 0.5) * interval_s))
            stacks[key] = stacks.get(key, 0) + 1
    return stacks


def reference_op_seconds(metrics):
    per_rank = [{k: 0.0 for k in KINDS} for _ in range(metrics.num_ranks)]
    for ev in metrics.trace:
        per_rank[ev.rank][ev.name] = per_rank[ev.rank].get(ev.name, 0.0) + ev.duration
    return per_rank


def reference_idle_fractions(metrics):
    makespan = metrics.makespan_s
    return [
        max(0.0, makespan - sum(seconds.values())) / makespan
        for seconds in reference_op_seconds(metrics)
    ]


def _top_level_rank_spans(metrics):
    return [s for s in metrics.spans if s.rank >= 0 and s.parent is None]


def reference_phase_totals(metrics):
    totals = {}
    for s in _top_level_rank_spans(metrics):
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return totals


def reference_phase_coverage(metrics):
    total_clock = sum(metrics.rank_clocks)
    if total_clock <= 0.0:
        return 1.0
    return min(1.0, sum(s.duration for s in _top_level_rank_spans(metrics)) / total_clock)


# -- the fold equals the references ------------------------------------------


@pytest.mark.parametrize("interval_s", [1e-3, 1e-4, 1e-5])
def test_profile_stacks_equal_the_per_sample_scan(run, interval_s):
    result = ProfileResult.from_run(run, interval_s=interval_s)
    assert result.stacks == reference_profile(run, interval_s)


def test_profile_instant_on_an_endpoint_belongs_to_the_span_it_starts():
    at = [(k + 0.5) * 0.1 for k in range(4)]  # the sample instants
    metrics = SimpleNamespace(
        spans=[_span("a", at[0], at[2]), _span("b", at[2], at[3])],
        rank_clocks=[0.4],
    )
    stacks = ProfileResult.from_run(metrics, interval_s=0.1).stacks
    assert stacks == reference_profile(metrics, 0.1)
    assert stacks == {(0, ("a",)): 2, (0, ("b",)): 1, (0, ()): 1}


def test_breakdown_equals_the_per_span_sum(run):
    downs = breakdown(run)
    assert [b.rank for b in downs] == list(range(run.num_ranks))
    assert [b.seconds for b in downs] == reference_op_seconds(run)


def test_idle_fractions_and_trace105_verdict_equal_the_reference(run):
    expected = reference_idle_fractions(run) if run.makespan_s > 0 else []
    assert idle_fractions(run) == expected
    fires = len(expected) >= 2 and max(expected) - min(expected) > IDLE_SKEW_THRESHOLD
    fired = [d for d in lint_trace(run) if d.rule == "TRACE105"]
    assert len(fired) == int(fires)


def test_phase_totals_and_coverage_equal_the_span_pass(run):
    # Same keys, same values, same first-seen order (summarize breaks
    # ties between equal totals by that order).
    assert list(phase_totals(run).items()) == list(reference_phase_totals(run).items())
    assert phase_coverage(run) == reference_phase_coverage(run)


# -- the fold itself ---------------------------------------------------------


def _span(name, t0, t1, rank=0):
    return Span(name=name, rank=rank, t_start=t0, t_end=t1)


def test_fold_tiles_each_rank_between_its_first_and_last_endpoint():
    spans = [
        _span("outer", 0.0, 4.0),
        _span("inner", 1.0, 2.0),
        _span("late", 6.0, 7.0),
        _span("instant", 3.0, 3.0),
        _span("other", 0.5, 1.0, rank=1),
    ]
    assert fold_spans(spans) == [
        (0, 0.0, 1.0, ("outer",)),
        (1, 0.5, 1.0, ("other",)),
        (0, 1.0, 2.0, ("outer", "inner")),
        (0, 2.0, 3.0, ("outer",)),
        (0, 3.0, 4.0, ("outer",)),
        (0, 4.0, 6.0, ()),
        (0, 6.0, 7.0, ("late",)),
    ]


def test_equal_spans_stack_in_recorded_order():
    spans = [_span("b", 0.0, 1.0), _span("a", 0.0, 1.0)]
    assert fold_spans(spans) == [(0, 0.0, 1.0, ("b", "a"))]
