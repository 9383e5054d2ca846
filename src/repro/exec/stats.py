"""Host-side merging of per-rank driver stats into :class:`RunMetrics`.

Both real backends (:class:`~repro.exec.process.ProcessBackend`,
:class:`~repro.exec.thread.ThreadBackend`) run
:func:`~repro.exec.driver.drive_rank` once per rank and get back its stats
dict (result, clock, comm counters, trace, spans, per-rank metrics
registry).  :func:`merge_rank_stats` is the single place those are folded
into the backend-neutral :class:`~repro.cluster.metrics.RunMetrics`, so the
two backends cannot drift in how they aggregate -- and the parity suite's
"equal messages, equal peak memory" comparisons stay meaningful.

A ``None`` entry in ``stats`` is a declared-dead rank whose portion was
recovered by its buddy (process backend only).  It keeps its position in
every per-rank list -- clock 0.0, peak 0, result ``None``, as the simulator
reports a crashed rank -- so rank ``r`` is index ``r`` for every reader.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.cluster.faults import FaultStats
from repro.cluster.metrics import CommStats, RunMetrics
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.span import Sample, Span

__all__ = ["empty_metrics", "merge_rank_stats"]


def empty_metrics(backend: str) -> RunMetrics:
    """The metrics of a zero-rank run."""
    return RunMetrics(
        makespan_s=0.0, rank_clocks=[], comm=CommStats(),
        rank_peak_memory_elements=[], rank_compute_ops=[],
        rank_disk_bytes_written=[], rank_disk_bytes_read=[],
        rank_results=[], backend=backend,
    )


def _by_time(sp: Span) -> tuple[float, float, int]:
    return (sp.t_start, sp.t_end, sp.rank)


def merge_rank_stats(
    stats: Sequence[dict[str, Any] | None],
    *,
    backend: str,
    record_trace: bool,
    extra_faults: FaultStats | None = None,
) -> RunMetrics:
    """Fold per-rank driver stats into one :class:`RunMetrics`.

    ``extra_faults`` carries supervisor-side observations (respawns,
    declared deaths) on backends that have a supervisor.
    """
    comm = CommStats()
    trace: list[Span] = []
    spans: list[Span] = []
    samples: list[Sample] = []
    registry = MetricsRegistry() if record_trace else NULL_REGISTRY
    fstats = FaultStats()
    for s in stats:
        if s is None:  # a declared-dead rank, recovered by its buddy
            continue
        comm.merge(s["comm"])
        trace.extend(s["trace"])
        spans.extend(s["spans"])
        samples.extend(s["samples"])
        fstats.merge(s["faults"])
        if s["registry"] is not None:
            registry.merge(s["registry"])
    if extra_faults is not None:
        fstats.merge(extra_faults)
    trace.sort(key=_by_time)
    spans.sort(key=_by_time)
    samples.sort(key=lambda sm: (sm.t, sm.rank))

    def per_rank(key: str, dead: Any) -> list[Any]:
        return [dead if s is None else s[key] for s in stats]

    clocks = per_rank("clock", 0.0)
    return RunMetrics(
        makespan_s=max(clocks, default=0.0),
        rank_clocks=clocks,
        comm=comm,
        rank_peak_memory_elements=per_rank("peak_memory_elements", 0),
        rank_compute_ops=per_rank("compute_ops", 0.0),
        rank_disk_bytes_written=per_rank("disk_bytes_written", 0),
        rank_disk_bytes_read=per_rank("disk_bytes_read", 0),
        rank_results=per_rank("result", None),
        trace=trace,
        faults=fstats,
        backend=backend,
        spans=spans,
        samples=samples,
        registry=registry,
    )
