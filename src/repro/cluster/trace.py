"""Timeline analysis of simulated runs: where does the time go?

With ``record_trace=True`` on :func:`repro.cluster.runtime.run_spmd` (or
``trace=True`` on the constructors that expose it), every rank's simulated
execution is captured as ``cat="op"`` spans.  This module turns those into
the numbers the paper's figures are explained by:

- per-rank and aggregate **breakdowns** (compute / send / recv / wait /
  disk / barrier / idle);
- **utilization** (compute fraction of the makespan) -- the 1-d partition's
  poor showing in Figure 7 is visible here as leads waiting/receiving while
  everyone else idles;
- an ASCII **Gantt chart** for eyeballing schedules in a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.metrics import RunMetrics

KINDS = ("compute", "send", "recv", "wait", "disk", "barrier")

_GLYPH = {
    "compute": "#",
    "send": ">",
    "recv": "<",
    "wait": ".",
    "disk": "D",
    "barrier": "|",
}


@dataclass
class TimeBreakdown:
    """Seconds per activity for one rank (idle = makespan - accounted)."""

    rank: int
    seconds: dict[str, float]
    makespan: float

    @property
    def busy(self) -> float:
        return sum(self.seconds.values())

    @property
    def idle(self) -> float:
        return max(0.0, self.makespan - self.busy)

    @property
    def compute_fraction(self) -> float:
        return self.seconds.get("compute", 0.0) / self.makespan if self.makespan else 0.0


def breakdown(metrics: RunMetrics) -> list[TimeBreakdown]:
    """Per-rank activity totals from a traced run."""
    if not metrics.trace:
        raise ValueError(
            "run has no trace; pass record_trace=True / trace=True"
        )
    per_rank: dict[int, dict[str, float]] = {
        r: {k: 0.0 for k in KINDS} for r in range(metrics.num_ranks)
    }
    for ev in metrics.trace:
        # Unknown op names in a loaded file accumulate too, but only the
        # canonical KINDS are tabulated by summarize().
        per_rank[ev.rank][ev.name] = (
            per_rank[ev.rank].get(ev.name, 0.0) + ev.duration
        )
    return [
        TimeBreakdown(rank=r, seconds=per_rank[r], makespan=metrics.makespan_s)
        for r in range(metrics.num_ranks)
    ]


def utilization(metrics: RunMetrics) -> float:
    """Mean compute fraction across ranks (1.0 = perfectly busy)."""
    downs = breakdown(metrics)
    if not downs:
        return 0.0
    return sum(b.compute_fraction for b in downs) / len(downs)


def summarize(metrics: RunMetrics) -> str:
    """Multi-line per-rank breakdown table (seconds and percentages)."""
    downs = breakdown(metrics)
    header = "rank " + " ".join(f"{k:>9}" for k in KINDS) + f" {'idle':>9} {'busy%':>6}"
    lines = [header, "-" * len(header)]
    for b in downs:
        cells = " ".join(f"{b.seconds[k]:9.4f}" for k in KINDS)
        busy_pct = 100.0 * b.busy / b.makespan if b.makespan else 0.0
        lines.append(f"{b.rank:>4} {cells} {b.idle:9.4f} {busy_pct:5.1f}%")
    lines.append(f"makespan {metrics.makespan_s:.4f}s, "
                 f"mean compute utilization {utilization(metrics):.1%}")
    return "\n".join(lines)


def ascii_gantt(
    metrics: RunMetrics,
    width: int = 80,
    ranks: Sequence[int] | None = None,
) -> str:
    """Terminal Gantt chart: one row per rank, one glyph per time slot.

    Glyphs: ``#`` compute, ``>`` send, ``<`` receive, ``.`` waiting,
    ``D`` disk, ``|`` barrier, ``X`` an entry of the run's fault log, space
    idle.  Later events overwrite earlier ones within a slot (slots are
    makespan/width wide); fault marks are drawn last.
    """
    if width < 1:
        raise ValueError("width must be positive")
    if not metrics.trace:
        raise ValueError("run has no trace; pass record_trace=True / trace=True")
    span = metrics.makespan_s or 1.0
    rows = {}
    chosen = list(ranks) if ranks is not None else list(range(metrics.num_ranks))
    for r in chosen:
        rows[r] = [" "] * width
    for ev in metrics.trace:
        if ev.rank not in rows:
            continue
        lo = min(width - 1, int(ev.t_start / span * width))
        hi = min(width, max(lo + 1, int(ev.t_end / span * width)))
        glyph = _GLYPH.get(ev.name, "?")
        for i in range(lo, hi):
            rows[ev.rank][i] = glyph
    for fault in metrics.faults.events:
        if fault.rank in rows:
            rows[fault.rank][min(width - 1, int(fault.time / span * width))] = "X"
    lines = [f"{r:>4} |{''.join(rows[r])}|" for r in rows]
    legend = "      # compute  > send  < recv  . wait  D disk  | barrier  X fault"
    return "\n".join(lines + [legend])


def critical_rank(metrics: RunMetrics) -> int:
    """The rank whose clock defines the makespan."""
    return max(range(metrics.num_ranks), key=lambda r: metrics.rank_clocks[r])
