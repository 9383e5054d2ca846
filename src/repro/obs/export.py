"""Exporters: Chrome trace-event JSON, JSONL, and the round-trip loader.

:func:`to_chrome_trace` renders a traced :class:`~repro.cluster.metrics.RunMetrics`
as a Chrome trace-event JSON object (the format Perfetto and
``chrome://tracing`` load directly): one process lane per rank (plus a
``host`` lane for rank ``-1`` spans), a ``phases`` thread for the named
spans and an ``ops`` thread for the ``cat="op"`` spans of ``RunMetrics.trace``
(both through one ``_span_event``), instant markers drawn from the fault
log, and counter tracks for sampled quantities (per-rank held memory over
time).

Timestamps in the Chrome format are integer-ish microseconds, which loses
precision relative to the float seconds the backends record, so every
exported event also carries the exact values in its ``args`` (``_t0``/
``_t1``), and run-level state (comm totals, per-pair bytes, fault log,
registry snapshot) rides along under ``otherData``.  The fault instants
are a view for the timeline UI; ``otherData.faults`` is the one copy the
reader loads.  That makes the export *lossless where it matters*:
:func:`load_run` reconstructs a :class:`RunMetrics` whose trace, comm,
memory, and fault data are exactly the recorded values, so
:func:`repro.analysis.lint_trace` produces the same TRACE diagnostics on
the file as on the in-memory run.

This module deliberately imports cluster modules inside functions only:
``cluster.runtime`` imports ``repro.obs`` for its tracer types, and keeping
the reverse edge lazy keeps the import graph acyclic.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Sample, Span, op_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.faults import FaultEvent
    from repro.cluster.metrics import RunMetrics

__all__ = [
    "FORMAT_NAME",
    "load_run",
    "to_chrome_trace",
    "to_jsonl_records",
    "write_chrome_trace",
    "write_jsonl",
]

#: Identifies our export dialect inside ``otherData`` / the JSONL meta record.
#: v2: ops are ``cat="op"`` spans and fault rows carry ``peer``/``tag``.
FORMAT_NAME = "repro-run-v2"

RunSource = Union["RunMetrics", str, Path, Mapping[str, Any]]

_US = 1e6  # seconds -> Chrome microseconds


def _host_pid(num_ranks: int) -> int:
    # Host-side spans (rank -1) get their own lane after the rank lanes.
    return num_ranks


def _meta_events(num_ranks: int, have_host: bool) -> list[dict[str, Any]]:
    lanes = [(rank, f"rank {rank}") for rank in range(num_ranks)]
    if have_host:
        lanes.append((_host_pid(num_ranks), "host"))
    events: list[dict[str, Any]] = []
    for pid, name in lanes:
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": name}})
        events.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                       "tid": 0, "args": {"sort_index": pid}})
    for pid, _ in lanes:
        for tid, thread in enumerate(("phases", "ops")):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": thread}})
    return events


def _span_event(span: Span, num_ranks: int) -> dict[str, Any]:
    pid = span.rank if span.rank >= 0 else _host_pid(num_ranks)
    args: dict[str, Any] = dict(span.attrs)
    args["_t0"] = span.t_start
    args["_t1"] = span.t_end
    if span.parent is not None:
        args["parent"] = span.parent
    return {
        "ph": "X",
        "name": span.name,
        "cat": span.cat,
        "pid": pid,
        "tid": 1 if span.cat == "op" else 0,
        "ts": span.t_start * _US,
        "dur": span.duration * _US,
        "args": args,
    }


def _fault_event(ev: "FaultEvent") -> dict[str, Any]:
    return {
        "ph": "i",
        "name": f"fault:{ev.kind}",
        "cat": "fault",
        "pid": ev.rank,
        "tid": 1,
        "ts": ev.time * _US,
        "s": "t",
        "args": {"detail": ev.detail},
    }


def _sample_event(sample: Sample, num_ranks: int) -> dict[str, Any]:
    pid = sample.rank if sample.rank >= 0 else _host_pid(num_ranks)
    return {
        "ph": "C",
        "name": sample.name,
        "pid": pid,
        "tid": 0,
        "ts": sample.t * _US,
        "args": {"value": sample.value, "_t": sample.t},
    }


def _other_data(metrics: "RunMetrics") -> dict[str, Any]:
    from repro.cluster.metrics import RANK_COLUMNS

    return {
        "format": FORMAT_NAME,
        "backend": metrics.backend,
        "num_ranks": metrics.num_ranks,
        "makespan_s": metrics.makespan_s,
        **{name: list(getattr(metrics, name)) for name, _, _ in RANK_COLUMNS},
        "comm": {
            "total_bytes": metrics.comm.total_bytes,
            "total_elements": metrics.comm.total_elements,
            "total_messages": metrics.comm.total_messages,
            "per_pair": [
                [src, dst, nbytes]
                for (src, dst), nbytes in sorted(metrics.comm.per_pair.items())
            ],
        },
        "faults": {
            "events": [
                [ev.kind, ev.time, ev.rank, ev.detail, ev.peer, ev.tag]
                for ev in metrics.faults.events
            ],
        },
        "registry": metrics.registry.snapshot(),
    }


def to_chrome_trace(metrics: "RunMetrics") -> dict[str, Any]:
    """Render a traced run as a Chrome trace-event JSON object.

    Raises ``ValueError`` if the run was not traced (no span stream and no
    op trace): an empty timeline is almost always a forgotten
    ``trace=True``, not a real run.
    """
    spans = list(metrics.spans)
    if not metrics.trace and not spans:
        raise ValueError("run has no trace; pass record_trace=True / trace=True")
    num_ranks = metrics.num_ranks
    have_host = any(s.rank < 0 for s in spans)
    events = [_span_event(span, num_ranks) for span in (*spans, *metrics.trace)]
    events += [_fault_event(fault) for fault in metrics.faults.events]
    events += [_sample_event(sample, num_ranks) for sample in metrics.samples]
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return {
        "traceEvents": _meta_events(num_ranks, have_host) + events,
        "displayTimeUnit": "ms",
        "otherData": _other_data(metrics),
    }


def write_chrome_trace(metrics: "RunMetrics", path: str | Path) -> Path:
    """Write the Chrome trace-event JSON for ``metrics`` to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(metrics), indent=1) + "\n")
    return path


def to_jsonl_records(metrics: "RunMetrics") -> Iterator[dict[str, Any]]:
    """Yield the run as a stream of JSON-safe records.

    The first record is ``{"type": "meta", ...}`` with all run-level state;
    then one ``"span"`` record per phase span and per op (``cat: "op"``) and
    one ``"sample"`` record per sample, each in recorded order.  The stream
    carries exactly the information of the Chrome export, one object per
    line, for consumers that want to grep/stream rather than load a
    timeline UI.
    """
    yield {"type": "meta", **_other_data(metrics)}
    for span in (*metrics.spans, *metrics.trace):
        yield {
            "type": "span",
            "name": span.name,
            "rank": span.rank,
            "t_start": span.t_start,
            "t_end": span.t_end,
            "cat": span.cat,
            "parent": span.parent,
            "attrs": dict(span.attrs),
        }
    for sample in metrics.samples:
        yield {
            "type": "sample",
            "name": sample.name,
            "rank": sample.rank,
            "t": sample.t,
            "value": sample.value,
        }


def write_jsonl(metrics: "RunMetrics", path: str | Path) -> Path:
    """Write the JSONL stream for ``metrics`` to ``path``."""
    path = Path(path)
    with path.open("w") as fh:
        for record in to_jsonl_records(metrics):
            fh.write(json.dumps(record) + "\n")
    return path


def _records_from_chrome(doc: Mapping[str, Any]) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Normalize a Chrome export back into (meta, records)."""
    meta = _checked_meta(doc.get("otherData"))
    records: list[dict[str, Any]] = []
    num_ranks = int(meta["num_ranks"])
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        args = ev.get("args", {})
        if ph in ("M", "i"):  # fault instants are a view of otherData.faults
            continue
        rank = int(ev["pid"])
        if rank >= num_ranks:
            rank = -1  # the host lane
        if ph == "C":
            records.append(
                {"type": "sample", "name": ev["name"], "rank": rank,
                 "t": args["_t"], "value": args["value"]}
            )
        elif ph == "X":
            attrs = {k: v for k, v in args.items() if not k.startswith("_") and k != "parent"}
            records.append(
                {"type": "span", "name": ev["name"], "rank": rank,
                 "t_start": args["_t0"], "t_end": args["_t1"],
                 "cat": ev.get("cat", "phase"), "parent": args.get("parent"),
                 "attrs": attrs}
            )
    return meta, records


def _checked_meta(meta: Any) -> dict[str, Any]:
    """``meta`` as a dict, provided it carries this version's format marker."""
    found = meta.get("format") if isinstance(meta, Mapping) else None
    if found != FORMAT_NAME:
        raise ValueError(
            f"not a {FORMAT_NAME} export (its format marker is {found!r}); "
            "older exports are not read -- export the run again"
        )
    return dict(meta)


def _read_source(source: RunSource) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    if isinstance(source, Mapping):
        if "traceEvents" in source:
            return _records_from_chrome(source)
        raise ValueError("mapping is not a Chrome trace export (no traceEvents)")
    path = Path(source)
    text = path.read_text()
    head = text.lstrip()[:1]
    if head == "{" and '"traceEvents"' in text[:4096]:
        return _records_from_chrome(json.loads(text))
    # JSONL: one record per line, meta first.
    meta: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "meta":
            meta = _checked_meta(record)
        else:
            records.append(record)
    if meta is None:
        raise ValueError(f"no meta record found in {path}")
    return meta, records


def load_run(source: RunSource) -> "RunMetrics":
    """Reconstruct a :class:`RunMetrics` from an exported run.

    ``source`` is a path to a Chrome trace or JSONL export (either format
    is auto-detected), an already-parsed Chrome trace dict, or a
    :class:`RunMetrics`, returned as is.  The
    reconstruction is exact for everything the linters and reports consume
    -- op trace, spans, samples, comm totals and per-pair bytes, per-rank
    clocks/memory/compute/disk, fault log, counters and gauges --
    so ``lint_trace(load_run(path))`` equals ``lint_trace(metrics)``.
    Histogram observations are summarized in exports (count/sum/
    percentiles), not raw, so histograms do not round-trip; rank results
    are not serialized at all (``rank_results`` loads as ``None`` per rank).
    """
    from repro.cluster.faults import FaultStats
    from repro.cluster.metrics import RANK_COLUMNS, CommStats, RunMetrics, build_run

    if isinstance(source, RunMetrics):
        return source
    meta, records = _read_source(source)
    counts = meta["comm"]
    comm = CommStats(
        int(counts["total_bytes"]), int(counts["total_elements"]),
        int(counts["total_messages"]),
        {(int(src), int(dst)): int(nbytes) for src, dst, nbytes in counts["per_pair"]},
    )
    faults = FaultStats()
    for kind, t, rank, detail, peer, tag in meta["faults"]["events"]:
        faults.note(str(kind), float(t), int(rank), str(detail), peer=peer, tag=tag)
    registry = MetricsRegistry()
    reg_snapshot = meta.get("registry")
    if isinstance(reg_snapshot, Mapping):
        for name, value in reg_snapshot.get("counters", {}).items():
            base, labels = _parse_full_name(name)
            registry.counter(base, **labels).inc(int(value))
        for name, value in reg_snapshot.get("gauges", {}).items():
            base, labels = _parse_full_name(name)
            registry.gauge(base, **labels).set(float(value))

    trace: list[Span] = []
    spans: list[Span] = []
    samples: list[Sample] = []
    for record in records:
        if record["type"] not in ("span", "sample"):
            continue
        name, rank = str(record["name"]), int(record["rank"])
        if record["type"] == "sample":
            samples.append(Sample(name, rank, float(record["t"]), float(record["value"])))
        else:
            t_start, t_end = float(record["t_start"]), float(record["t_end"])
            attrs = dict(record.get("attrs") or {})
            if record.get("cat") == "op":
                # Through the constructor, so a send/recv without its
                # channel is rejected here and not inside a lint rule.
                trace.append(op_span(rank, name, t_start, t_end, **attrs))
            else:
                cat = str(record.get("cat") or "phase")
                spans.append(Span(name, rank, t_start, t_end, cat, record.get("parent"), attrs))
    ranks = [
        {attr: type(dead)(meta[name][r]) for name, attr, dead in RANK_COLUMNS}
        for r in range(int(meta["num_ranks"]))
    ]
    return build_run(
        ranks,
        backend=str(meta["backend"]),
        registry=registry,
        comm=comm,
        faults=faults,
        trace=trace,
        spans=spans,
        samples=samples,
    )


def _parse_full_name(name: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`repro.obs.metrics.full_name` for registry reload."""
    if not name.endswith("}") or "{" not in name:
        return name, {}
    base, _, inner = name.partition("{")
    pairs = (part.partition("=") for part in inner[:-1].split(",") if part)
    return base, {k: v for k, _, v in pairs}
