"""repro.obs: the unified telemetry subsystem (spans, metrics, exporters).

Zero-dependency instrumentation wired through the whole stack:

- :class:`Tracer` collects hierarchical :class:`Span` timelines (phases,
  interpreted ops, zero-width markers) and :class:`Sample` series, one
  tracer per SPMD rank (simulated or real clocks) or per service;
- :class:`MetricsRegistry` holds named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments with labels -- the single vocabulary that
  ``CacheStats``, ``CubeService`` counters, and ``ServiceStats``
  percentiles are views over;
- :mod:`repro.obs.export` renders a traced run as Chrome trace-event JSON
  (open it in Perfetto / ``chrome://tracing``) or a JSONL stream, and
  :func:`load_run` reconstructs a ``RunMetrics`` from either file so the
  trace linters run on exports unchanged;
- :mod:`repro.obs.report` reads a finished run through one span fold:
  per-rank activity breakdowns and Gantt charts, per-phase makespan
  attribution and idle skew (``repro-cube trace summarize`` / ``diff``);
- :mod:`repro.obs.live` is the snapshot bus: backends publish per-rank
  :class:`RankSnapshot` streams merged into a monotonic
  :class:`LiveRunView` readable *while the build runs* (``repro-cube
  top``);
- :mod:`repro.obs.expo` exposes a registry in Prometheus text format
  over ``/metrics`` + ``/health`` + ``/ready`` (:class:`ObsEndpoint`);
- :mod:`repro.obs.profile` collapses spans or live samples into
  flamegraph collapsed-stack output (:class:`ProfileResult`);
- :mod:`repro.obs.slo` evaluates declarative :class:`SLO` objects over
  the latency histograms with multi-window burn-rate alerting
  (:class:`BurnRateMonitor`, ``repro-cube slo check``).

Quickstart::

    import repro
    data = repro.random_sparse((16, 16, 16, 16), sparsity=0.2, seed=1)
    run = repro.plan_cube(data.shape, num_processors=8).run_parallel(
        data, trace_out="run.json")
    # run.json now loads in https://ui.perfetto.dev
    print(repro.obs.summarize_run(run.metrics))

When tracing is off, the shared :data:`NULL_TRACER` is in place and hot
paths skip instrumentation entirely -- a disabled run allocates nothing in
this package (``tests/test_obs.py`` enforces that).
"""

from repro.obs.export import (
    FORMAT_NAME,
    load_run,
    to_chrome_trace,
    to_jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.expo import ObsEndpoint, render_prometheus, sanitize_metric_name
from repro.obs.live import LiveRunView, RankProbe, RankSnapshot
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import ProfileResult, write_collapsed
from repro.obs.report import (
    diff_runs,
    phase_coverage,
    phase_totals,
    summarize_run,
)
from repro.obs.slo import (
    SLO,
    BurnRateMonitor,
    BurnWindow,
    SLOStatus,
    evaluate_slo,
)
from repro.obs.span import (
    NULL_TRACER,
    NullTracer,
    Sample,
    Span,
    Tracer,
)

__all__ = [
    "BurnRateMonitor",
    "BurnWindow",
    "Counter",
    "FORMAT_NAME",
    "Gauge",
    "Histogram",
    "LiveRunView",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsEndpoint",
    "ProfileResult",
    "RankProbe",
    "RankSnapshot",
    "SLO",
    "SLOStatus",
    "Sample",
    "Span",
    "Tracer",
    "diff_runs",
    "evaluate_slo",
    "load_run",
    "phase_coverage",
    "phase_totals",
    "render_prometheus",
    "sanitize_metric_name",
    "summarize_run",
    "to_chrome_trace",
    "to_jsonl_records",
    "write_chrome_trace",
    "write_collapsed",
    "write_jsonl",
]
