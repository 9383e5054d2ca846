"""The run record: what one SPMD run measured, on any backend.

Every :class:`RunMetrics` -- simulated, thread, process, or loaded from
an export -- is built by :func:`build_run` from one :func:`rank_record`
per rank; builder, exporter and loader read the per-rank columns from
:data:`RANK_COLUMNS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.cluster.faults import FaultStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Sample, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.runtime import RankEnv

#: The per-rank columns of :class:`RunMetrics`: ``(field, RankEnv
#: attribute, value a rank declared dead reports)``.
RANK_COLUMNS: tuple[tuple[str, str, Any], ...] = (
    ("rank_clocks", "clock", 0.0),
    ("rank_peak_memory_elements", "peak_memory_elements", 0),
    ("rank_compute_ops", "compute_ops", 0.0),
    ("rank_disk_bytes_written", "disk_bytes_written", 0),
    ("rank_disk_bytes_read", "disk_bytes_read", 0),
)


@dataclass
class CommStats:
    """Network counters for one run."""

    total_bytes: int = 0
    total_elements: int = 0
    total_messages: int = 0
    per_pair: dict[tuple[int, int], int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int, elements: int) -> None:
        self.total_bytes += nbytes
        self.total_elements += elements
        self.total_messages += 1
        key = (src, dst)
        self.per_pair[key] = self.per_pair.get(key, 0) + nbytes

    def merge(self, other: "CommStats") -> None:
        """Fold another rank's counters into this one (process backends
        count sends per worker and combine them host-side)."""
        self.total_bytes += other.total_bytes
        self.total_elements += other.total_elements
        self.total_messages += other.total_messages
        for key, nbytes in other.per_pair.items():
            self.per_pair[key] = self.per_pair.get(key, 0) + nbytes


@dataclass
class RunMetrics:
    """Everything measured during one SPMD run.

    ``backend`` names the executor that produced the numbers (``"sim"``:
    clocks are simulated seconds under the machine cost model;
    ``"process"``: clocks are wall-clock seconds measured on real OS
    processes).  The vocabulary is otherwise identical, so downstream
    consumers (:mod:`repro.obs.report`, :mod:`repro.analysis.lint_trace`)
    work on either kind of run.  Construct it with :func:`build_run`.
    """

    makespan_s: float
    rank_clocks: list[float]
    comm: CommStats
    rank_peak_memory_elements: list[int]
    rank_compute_ops: list[float]
    rank_disk_bytes_written: list[int]
    rank_disk_bytes_read: list[int]
    rank_results: list[Any]
    trace: list[Any] = field(default_factory=list)
    faults: FaultStats = field(default_factory=FaultStats)
    backend: str = "sim"
    #: Named phase timeline from :class:`repro.obs.Tracer` (traced runs only).
    spans: list[Span] = field(default_factory=list)
    #: Timestamped per-rank series (held memory over time; traced runs only).
    samples: list[Sample] = field(default_factory=list)
    #: Run-level counters/gauges/histograms (per-pair collective bytes land
    #: here when the run is traced).
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def num_ranks(self) -> int:
        return len(self.rank_clocks)

    @property
    def max_peak_memory_elements(self) -> int:
        return max(self.rank_peak_memory_elements, default=0)

    @property
    def total_compute_ops(self) -> float:
        return sum(self.rank_compute_ops)

    def summary(self) -> str:
        text = (
            f"backend={self.backend} "
            f"ranks={self.num_ranks} makespan={self.makespan_s:.4f}s "
            f"comm={self.comm.total_bytes}B/{self.comm.total_messages}msgs "
            f"peak_mem={self.max_peak_memory_elements}el"
        )
        if self.faults.any:
            text += f" faults[{self.faults.summary()}]"
        return text


def _by_time(sp: Span) -> tuple[float, float, int]:
    return (sp.t_start, sp.t_end, sp.rank)


def rank_record(
    env: "RankEnv",
    result: Any,
    *,
    comm: CommStats | None = None,
    trace: list[Span] | None = None,
    faults: FaultStats | None = None,
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """One rank's entry for :func:`build_run`, read off its finished env.

    ``comm``, ``trace``, ``faults`` and ``registry`` are the rank's own
    streams where a backend keeps them per rank (the real-clock driver);
    the simulator keeps them run-wide and hands them to :func:`build_run`.
    """
    record = {attr: getattr(env, attr) for _, attr, _ in RANK_COLUMNS}
    record.update(
        result=result, comm=comm, trace=trace or [], faults=faults,
        spans=env.tracer.spans, samples=env.tracer.samples, registry=registry,
    )
    return record


def build_run(
    ranks: Sequence[Mapping[str, Any] | None],
    *,
    backend: str,
    registry: MetricsRegistry | None = None,
    comm: CommStats | None = None,
    faults: FaultStats | None = None,
    trace: Iterable[Span] = (),
    spans: Iterable[Span] = (),
    samples: Iterable[Sample] = (),
) -> RunMetrics:
    """The one constructor of :class:`RunMetrics`, from one record per rank.

    A ``None`` rank was declared dead (its portion recovered by a buddy):
    it keeps its index, with the dead values of :data:`RANK_COLUMNS` and
    result ``None``.  The ranks' streams merge in rank order, then the
    run-wide ones given here (the simulator's network and fault log, a
    supervisor's notes, a loaded file's timeline); ``registry`` (fresh if
    not given) receives the ranks' registries.  Op trace and spans are
    sorted by ``(t_start, t_end, rank)``, samples by ``(t, rank)``.
    """
    run_comm, run_faults = CommStats(), FaultStats()
    run_registry = MetricsRegistry() if registry is None else registry
    timeline: dict[str, list[Any]] = {"trace": [], "spans": [], "samples": []}
    run_wide: dict[str, Any] = {
        "comm": comm, "faults": faults, "trace": trace, "spans": spans,
        "samples": samples,
    }
    records: list[Mapping[str, Any] | None] = [*ranks, run_wide]
    for rec in records:
        if rec is None:
            continue
        if rec.get("comm") is not None:
            run_comm.merge(rec["comm"])
        if rec.get("faults") is not None:
            run_faults.merge(rec["faults"])
        if rec.get("registry") is not None:
            run_registry.merge(rec["registry"])
        for key, stream in timeline.items():
            stream.extend(rec.get(key, ()))
    columns: dict[str, Any] = {
        name: [dead if rec is None else rec[attr] for rec in ranks]
        for name, attr, dead in RANK_COLUMNS
    }
    return RunMetrics(
        makespan_s=max(columns["rank_clocks"], default=0.0),
        comm=run_comm,
        rank_results=[None if rec is None else rec.get("result") for rec in ranks],
        trace=sorted(timeline["trace"], key=_by_time),
        faults=run_faults,
        backend=backend,
        spans=sorted(timeline["spans"], key=_by_time),
        samples=sorted(timeline["samples"], key=lambda sm: (sm.t, sm.rank)),
        registry=run_registry,
        **columns,
    )
