"""Reading a finished run: timelines, phase attribution, skew, diffs.

Works on any traced :class:`~repro.cluster.metrics.RunMetrics`, live from
a backend or reloaded by :func:`repro.obs.export.load_run`.  Every
time-based reading goes through one fold, :func:`fold_spans`, which cuts
spans into elementary intervals keyed by ``(rank, stack)``.  Over the op
spans it gives the per-rank :func:`breakdown` (Figure 7's 1-d partition
shows as leads receiving while everyone else idles), the idle fractions
behind ``trace summarize`` and lint rule TRACE105, and the Gantt chart's
utilization; over the named spans, :func:`phase_totals`,
:func:`phase_coverage` (instrumented builds keep >= 95% of rank clock in
named phases, which is what makes the attribution trustworthy) and
:meth:`repro.obs.profile.ProfileResult.from_run`.

Cluster imports are type-only (``cluster.runtime`` imports ``repro.obs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.span import Span
from repro.util import human_bytes, human_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.metrics import RunMetrics

__all__ = [
    "KINDS",
    "TimeBreakdown",
    "ascii_gantt",
    "breakdown",
    "critical_rank",
    "diff_runs",
    "fold_spans",
    "idle_fractions",
    "phase_coverage",
    "phase_totals",
    "summarize",
    "summarize_run",
    "utilization",
]

#: One elementary interval of a folded span list: ``(rank, lo, hi, stack)``.
Interval = tuple[int, float, float, tuple[str, ...]]

KINDS = ("compute", "send", "recv", "wait", "disk", "barrier")

#: Gantt glyph per op kind, in :data:`KINDS` order.
_GLYPH = dict(zip(KINDS, "#><.D|"))


def fold_spans(spans: Iterable[Span]) -> list[Interval]:
    """Cut each rank's spans at every span endpoint: the one fold.

    Between consecutive endpoints on a rank the spans covering an instant
    (``t_start <= t < t_end``) do not change; each such interval's
    ``stack`` names them outermost first (earlier start, then later end,
    then recorded order), empty where no span covers.  Intervals sort by
    ``(lo, hi, rank)``: on spans disjoint within each rank, each interval
    is one whole span in time-sorted span order, so sums over the fold
    add the same terms in the same order as a pass over the spans.
    """
    by_rank: dict[int, list[Span]] = {}
    for s in spans:
        by_rank.setdefault(s.rank, []).append(s)
    out: list[Interval] = []
    for rank, rank_spans in by_rank.items():
        keyed = sorted(
            ((s.t_start, -s.t_end, i), s.name) for i, s in enumerate(rank_spans)
        )
        bounds = sorted({t for s in rank_spans for t in (s.t_start, s.t_end)})
        active: list[tuple[tuple[float, float, int], str]] = []
        nxt = 0
        for lo, hi in zip(bounds, bounds[1:]):
            while nxt < len(keyed) and keyed[nxt][0][0] <= lo:
                active.append(keyed[nxt])
                nxt += 1
            active = [a for a in active if -a[0][1] > lo]
            out.append((rank, lo, hi, tuple(name for _, name in active)))
    out.sort(key=lambda iv: (iv[1], iv[2], iv[0]))
    return out


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


def breakdown(metrics: "RunMetrics") -> list[TimeBreakdown]:
    """Per-rank activity totals from a traced run's op spans."""
    if not metrics.trace:
        raise ValueError("run has no trace; pass record_trace=True / trace=True")
    per_rank: dict[int, dict[str, float]] = {
        r: {k: 0.0 for k in KINDS} for r in range(metrics.num_ranks)
    }
    for rank, lo, hi, stack in fold_spans(metrics.trace):
        # Unknown op names in a loaded file accumulate too, but only the
        # canonical KINDS are tabulated by summarize().
        for name in stack:
            per_rank[rank][name] = per_rank[rank].get(name, 0.0) + (hi - lo)
    return [
        TimeBreakdown(rank=r, seconds=per_rank[r], makespan=metrics.makespan_s)
        for r in range(metrics.num_ranks)
    ]


def idle_fractions(metrics: "RunMetrics") -> list[float]:
    """Each rank's idle share of the makespan (empty for an untraced or
    zero-length run)."""
    if not metrics.trace or metrics.makespan_s <= 0.0:
        return []
    return [b.idle / b.makespan for b in breakdown(metrics)]


def utilization(metrics: "RunMetrics") -> float:
    """Mean compute fraction across ranks (1.0 = perfectly busy)."""
    downs = breakdown(metrics)
    if not downs:
        return 0.0
    return sum(b.compute_fraction for b in downs) / len(downs)


def summarize(metrics: "RunMetrics") -> str:
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
    metrics: "RunMetrics",
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
    chosen = ranks if ranks is not None else range(metrics.num_ranks)
    rows = {r: [" "] * width for r in chosen}
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


def critical_rank(metrics: "RunMetrics") -> int:
    """The rank whose clock defines the makespan."""
    return max(range(metrics.num_ranks), key=lambda r: metrics.rank_clocks[r])


def _phase_intervals(metrics: "RunMetrics") -> list[Interval]:
    """The fold of the rank spans (host spans, ``rank == -1``, excluded)."""
    return [
        iv for iv in fold_spans(s for s in metrics.spans if s.rank >= 0)
        if iv[3]
    ]


def phase_totals(metrics: "RunMetrics") -> dict[str, float]:
    """Summed seconds per top-level phase name across all ranks.

    Each stretch of a rank's clock is billed once, to its outermost span,
    so nested sub-spans never double-bill their parent phase.
    """
    totals: dict[str, float] = {}
    for _, lo, hi, stack in _phase_intervals(metrics):
        totals[stack[0]] = totals.get(stack[0], 0.0) + (hi - lo)
    return totals


def phase_coverage(metrics: "RunMetrics") -> float:
    """Fraction of total rank clock covered by named top-level spans.

    1.0 means every second of every rank's clock is attributed to a named
    phase; the ``trace summarize`` acceptance bar is >= 0.95.  Runs with
    zero total clock (degenerate empty schedules) report full coverage.
    """
    total_clock = sum(metrics.rank_clocks)
    if total_clock <= 0.0:
        return 1.0
    covered = sum(hi - lo for _, lo, hi, _ in _phase_intervals(metrics))
    return min(1.0, covered / total_clock)


def summarize_run(metrics: "RunMetrics") -> str:
    """The ``repro-cube trace summarize`` report: one text block.

    Sections: run header, per-phase makespan attribution (sorted by time,
    with coverage), idle-skew across ranks, per-rank peak memory, comm
    totals, fault log summary, and the metrics-registry counters.
    """
    lines = [
        f"run      backend={metrics.backend} ranks={metrics.num_ranks} "
        f"makespan={metrics.makespan_s:.6f}s",
        "",
        "phase attribution (top-level spans, all ranks)",
    ]
    total_clock = sum(metrics.rank_clocks)
    totals = phase_totals(metrics)
    if totals:
        width = max(len(name) for name in totals)
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            pct = 100.0 * seconds / total_clock if total_clock > 0 else 0.0
            lines.append(f"  {name:<{width}}  {seconds:12.6f}s  {pct:5.1f}%")
        lines.append(f"  coverage: {phase_coverage(metrics):.1%} of total rank clock")
    else:
        lines.append("  (no spans recorded; op-level trace only)")

    host_spans = [s for s in metrics.spans if s.rank < 0]
    if host_spans:
        lines += ["", "host phases (wall clock, outside rank timelines)"]
        width = max(len(s.name) for s in host_spans)
        for s in host_spans:
            lines.append(f"  {s.name:<{width}}  {s.duration * 1e3:10.3f} ms")

    fractions = idle_fractions(metrics)
    if fractions:
        spread = max(fractions) - min(fractions)
        lines += [
            "",
            f"idle     min={min(fractions):.1%} max={max(fractions):.1%} "
            f"skew={spread:.1%} across ranks",
        ]

    peaks = metrics.rank_peak_memory_elements
    if peaks:
        lines.append(
            f"memory   peak held-results per rank: max={max(peaks)} "
            f"min={min(peaks)} elements"
        )
    comm = metrics.comm
    lines.append(
        f"comm     {human_bytes(comm.total_bytes)} "
        f"({human_count(comm.total_elements)} elements, "
        f"{comm.total_messages} messages, {len(comm.per_pair)} pairs)"
    )
    if metrics.faults.any:
        lines.append(f"faults   {metrics.faults.summary()}")

    registry = metrics.registry
    if len(registry):
        lines += ["", "counters"]
        for counter in registry.counters():
            lines.append(f"  {counter.full_name} = {counter.value}")
        for gauge in registry.gauges():
            lines.append(f"  {gauge.full_name} = {gauge.value:g}")
        for hist in registry.histograms():
            p50, p95, p99 = hist.percentiles()
            lines.append(
                f"  {hist.full_name} n={hist.count} "
                f"p50={p50:.3f} p95={p95:.3f} p99={p99:.3f}"
            )
    return "\n".join(lines)


def diff_runs(a: "RunMetrics", b: "RunMetrics") -> str:
    """Compare two traced runs phase-by-phase (``trace diff`` output).

    Shows per-phase seconds for both runs and the relative change, plus
    makespan and comm-volume deltas.  Phases present in only one run show
    ``-`` on the missing side.
    """
    ta, tb = phase_totals(a), phase_totals(b)
    names = sorted(set(ta) | set(tb), key=lambda n: -(max(ta.get(n, 0.0), tb.get(n, 0.0))))
    lines: list[str] = []

    def _pct(x: float, y: float) -> str:
        if x <= 0.0:
            return "new" if y > 0 else "-"
        return f"{100.0 * (y - x) / x:+.1f}%"

    lines.append(
        f"makespan  {a.makespan_s:.6f}s -> {b.makespan_s:.6f}s "
        f"({_pct(a.makespan_s, b.makespan_s)})"
    )
    lines.append(
        f"comm      {a.comm.total_bytes} B -> {b.comm.total_bytes} B "
        f"({_pct(float(a.comm.total_bytes), float(b.comm.total_bytes))})"
    )
    if names:
        width = max(len(n) for n in names)
        lines.append("")
        lines.append(f"  {'phase':<{width}}  {'run A (s)':>12}  {'run B (s)':>12}  delta")
        for name in names:
            va, vb = ta.get(name), tb.get(name)
            sa = f"{va:12.6f}" if va is not None else f"{'-':>12}"
            sb = f"{vb:12.6f}" if vb is not None else f"{'-':>12}"
            lines.append(f"  {name:<{width}}  {sa}  {sb}  {_pct(va or 0.0, vb or 0.0)}")
    return "\n".join(lines)
