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
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.live import LiveRunView
from repro.obs.report import Interval, fold_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.metrics import RunMetrics

__all__ = ["ProfileResult", "write_collapsed"]

#: Default resampling grid of :meth:`ProfileResult.from_run` -- 1 ms is
#: far below any phase duration on real backends, and on the simulator
#: spans are in simulated seconds where 1 ms is equally comfortable.
DEFAULT_INTERVAL_S = 0.001


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
        spans = [s for s in metrics.spans if s.rank >= 0]
        by_rank: dict[int, list[Interval]] = {s.rank: [] for s in spans}
        for iv in fold_spans(spans):
            by_rank[iv[0]].append(iv)
        clocks = metrics.rank_clocks
        stacks: dict[tuple[int, tuple[str, ...]], int] = {}
        for rank, ivs in sorted(by_rank.items()):
            clock = (
                clocks[rank]
                if rank < len(clocks)
                else max(s.t_end for s in spans if s.rank == rank)
            )
            instants = (np.arange(int(clock / interval_s)) + 0.5) * interval_s
            # The interval holding each instant; one before the first span
            # or past the last is busy clock outside every span.
            at = np.searchsorted([iv[1] for iv in ivs], instants, side="right") - 1
            inside = (at >= 0) & (instants < (ivs[-1][2] if ivs else 0.0))
            counts = np.bincount(at[inside], minlength=len(ivs)).tolist()
            keys = [iv[3] for iv in ivs] + [()]
            for stack, n in zip(keys, counts + [int((~inside).sum())]):
                if n:
                    stacks[rank, stack] = stacks.get((rank, stack), 0) + n
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
