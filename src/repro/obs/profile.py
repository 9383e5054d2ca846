"""Sampling span profiler: collapsed-stack (flamegraph) attribution.

The repo's spans already record *where the time went* -- this module
turns them into the form profiler tooling speaks: collapsed stacks, one
line per unique stack, ``frame;frame;frame count``, loadable by
``flamegraph.pl``, speedscope, and every flamegraph viewer since.

Two sample sources share one :class:`ProfileResult`:

- :meth:`ProfileResult.from_run` resamples a *finished* traced run on a
  fixed wall-clock grid: for each rank, one synthetic sample every
  ``interval_s`` over its busy clock, attributed to the innermost
  recorded span covering that instant.  Deterministic (no timers
  involved), and because instrumented builds keep phase coverage >= 95 %
  (:func:`repro.obs.report.phase_coverage`), well over 80 % of samples
  land in named spans (asserted in ``tests/test_obs_profile.py``).
- :meth:`ProfileResult.from_view` collapses the *live* samples a
  :class:`~repro.obs.live.LiveRunView` accumulated from the snapshot
  bus (every accepted snapshot is one wall-clock sample of the rank's
  open stack), so ``build.first_level`` dominance is visible while the
  build is still running.

Stacks are rooted per rank (``rank 3;build.reduce``), so a flamegraph
shows skew across ranks at the first level and phase dominance below.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.live import LiveRunView
from repro.obs.span import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.metrics import RunMetrics

__all__ = ["ProfileResult", "merge_profiles", "write_collapsed"]

#: Default resampling grid of :meth:`ProfileResult.from_run` -- 1 ms is
#: far below any phase duration on real backends, and on the simulator
#: spans are in simulated seconds where 1 ms is equally comfortable.
DEFAULT_INTERVAL_S = 0.001


def _innermost_stack(spans: list[Span], t: float) -> tuple[str, ...]:
    """The covering spans at instant ``t``, outermost first.

    Covering spans sort outer-to-inner by (earlier start, later end):
    a nested span starts no earlier and ends no later than its parent.
    """
    covering = [s for s in spans if s.t_start <= t < s.t_end]
    covering.sort(key=lambda s: (s.t_start, -s.t_end))
    return tuple(s.name for s in covering)


@dataclass(frozen=True)
class ProfileResult:
    """Collapsed-stack sample counts plus the attribution headline."""

    #: ``(rank, stack) -> samples``; an empty stack is an unattributed
    #: sample (busy clock outside every named span).
    stacks: dict[tuple[int, tuple[str, ...]], int]
    #: Seconds between synthetic samples (0.0 for live-view collapses,
    #: where the cadence was the snapshot bus interval).
    interval_s: float

    @property
    def samples_total(self) -> int:
        """Every sample taken, attributed or not."""
        return sum(self.stacks.values())

    @property
    def samples_attributed(self) -> int:
        """Samples that landed inside at least one named span."""
        return sum(n for (_, stack), n in self.stacks.items() if stack)

    @property
    def attribution_fraction(self) -> float:
        """Attributed / total (1.0 when no samples were taken)."""
        total = self.samples_total
        return self.samples_attributed / total if total else 1.0

    def phase_fractions(self) -> dict[str, float]:
        """Fraction of attributed samples per top-level phase name."""
        per_phase: dict[str, int] = {}
        for (_, stack), n in self.stacks.items():
            if stack:
                per_phase[stack[0]] = per_phase.get(stack[0], 0) + n
        attributed = self.samples_attributed
        if not attributed:
            return {}
        return {k: v / attributed for k, v in per_phase.items()}

    def collapsed(self) -> str:
        """Flamegraph collapsed-stack format, heaviest stacks first.

        Unattributed samples render under the conventional ``[idle]``
        frame so the flamegraph's total width stays the total clock.
        """
        rows = sorted(
            self.stacks.items(), key=lambda kv: (-kv[1], kv[0])
        )
        lines = []
        for (rank, stack), n in rows:
            frames = ";".join(stack) if stack else "[idle]"
            lines.append(f"rank {rank};{frames} {n}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        metrics: "RunMetrics",
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> "ProfileResult":
        """Resample a finished traced run on a fixed per-rank grid.

        Sample instants are bucket midpoints (``(k + 0.5) * interval``),
        so a span of duration ``d`` receives ``~d / interval`` samples
        regardless of grid alignment.  Ranks are sampled over their own
        busy clock (host spans, ``rank == -1``, are excluded: they run
        concurrently with the ranks and would double-bill wall time).
        """
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        by_rank: dict[int, list[Span]] = {}
        for s in getattr(metrics, "spans", []):
            if s.rank >= 0:
                by_rank.setdefault(s.rank, []).append(s)
        clocks = list(getattr(metrics, "rank_clocks", []))
        stacks: dict[tuple[int, tuple[str, ...]], int] = {}
        for rank, spans in sorted(by_rank.items()):
            clock = (
                clocks[rank]
                if rank < len(clocks)
                else max(s.t_end for s in spans)
            )
            n_samples = int(clock / interval_s)
            for k in range(n_samples):
                t = (k + 0.5) * interval_s
                key = (rank, _innermost_stack(spans, t))
                stacks[key] = stacks.get(key, 0) + 1
        return cls(stacks=stacks, interval_s=interval_s)

    @classmethod
    def from_view(cls, view: LiveRunView) -> "ProfileResult":
        """Collapse the live samples a :class:`LiveRunView` accumulated."""
        return cls(stacks=view.stack_counts(), interval_s=0.0)


def write_collapsed(
    result: ProfileResult, path: str | Path
) -> Path:
    """Write collapsed stacks to ``path``; returns the written path."""
    out = Path(path)
    out.write_text(result.collapsed(), encoding="utf-8")
    return out


def merge_profiles(parts: Iterable[ProfileResult]) -> ProfileResult:
    """Sum several profiles' sample counts (e.g. repeated runs)."""
    stacks: dict[tuple[int, tuple[str, ...]], int] = {}
    interval = 0.0
    for part in parts:
        interval = interval or part.interval_s
        for key, n in part.stacks.items():
            stacks[key] = stacks.get(key, 0) + n
    return ProfileResult(stacks=stacks, interval_s=interval)
