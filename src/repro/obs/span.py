"""Spans, samples, and the :class:`Tracer`: the timeline half of
``repro.obs``.

A :class:`Span` is a named interval on one rank's clock with optional
attributes and a parent (spans nest) -- a named phase (``cat="phase"``),
one interpreted op (``cat="op"``, built by :func:`op_span`), or a
zero-width marker such as a cache invalidation; a :class:`Sample` is a
timestamped value of a named quantity (per-rank held-memory over time).
Faults are not on this timeline: they are noted once, in
:class:`repro.cluster.faults.FaultStats`.

Two recording styles coexist because the codebase has two kinds of code:

- host-side / service code uses the context manager::

      with tracer.span("serve.batch", queries=64):
          ...

- SPMD rank *programs* are generators that suspend at every ``yield``, so
  a ``with`` block cannot bracket simulated time.  They read the clock
  before the work and close the span after::

      t0 = tracer.clock()
      yield env.disk_read(nbytes)
      tracer.end_span("build.input_read", t0)

Each rank gets its own :class:`Tracer` (rank-safety by construction); the
service shares one tracer across threads, appending under the GIL like
every other counter in the repo.  When tracing is off, the module-level
:data:`NULL_TRACER` singleton stands in: its ``enabled`` flag is False and
instrumentation sites guard on it, so a disabled run executes no
observability code at all (pinned by ``tests/test_obs.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union, cast

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Sample",
    "Span",
    "Tracer",
    "op_channel",
    "op_span",
]

AttrValue = Union[str, int, float, bool, None]


@dataclass(frozen=True)
class Span:
    """One named interval on one rank's clock.

    ``rank`` is the SPMD rank, or ``-1`` for host-side phases (partition,
    assembly) that happen outside the rank programs.  ``parent`` is the
    name of the innermost enclosing span on the same tracer, or ``None``
    for a top-level phase; the per-phase attribution in
    :mod:`repro.obs.report` sums top-level spans only, so nesting never
    double-counts.
    """

    name: str
    rank: int
    t_start: float
    t_end: float
    cat: str = "phase"
    parent: str | None = None
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.t_end < self.t_start:
            raise ValueError(
                f"span {self.name!r} ends before it starts "
                f"({self.t_start} .. {self.t_end})"
            )

    @property
    def duration(self) -> float:
        """``t_end - t_start`` in clock seconds."""
        return self.t_end - self.t_start


def op_span(
    rank: int,
    name: str,
    t_start: float,
    t_end: float,
    *,
    peer: int | None = None,
    tag: int | None = None,
    nbytes: int | None = None,
    detail: str | None = None,
) -> Span:
    """One interpreted op on ``rank``'s timeline (``cat="op"``).

    ``name`` is one of ``compute``, ``send``, ``wait`` (idle, blocked on a
    receive or asleep), ``recv`` (receiver-side transfer), ``disk``,
    ``barrier``.  ``peer`` is the other endpoint (destination of a send,
    source of a recv/wait), ``tag`` the message tag, ``nbytes`` the payload
    size of a completed transfer; ``detail`` says what those cannot (disk
    ``read``/``write``, wait ``sleep``/``timeout``).  Unset fields are left
    out of ``attrs``.
    """
    if name in ("send", "recv") and (peer is None or tag is None):
        raise ValueError(
            f"op span {name!r} on rank {rank} requires peer and tag "
            f"(got peer={peer}, tag={tag}); analyzers match channels on them"
        )
    fields: dict[str, AttrValue] = {
        "peer": peer, "tag": tag, "nbytes": nbytes, "detail": detail
    }
    attrs = {k: v for k, v in fields.items() if v is not None}
    return Span(name, rank, t_start, t_end, "op", attrs=attrs)


def op_channel(op: Span) -> tuple[int, int]:
    """``(peer, tag)`` of a ``send``/``recv`` op span, as :func:`op_span` set them."""
    return cast(int, op.attrs["peer"]), cast(int, op.attrs["tag"])


@dataclass(frozen=True)
class Sample:
    """One timestamped value of a named per-rank quantity."""

    name: str
    rank: int
    t: float
    value: float


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_cat", "_attrs", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        attrs: Mapping[str, AttrValue],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._attrs = attrs
        self._t0 = 0.0

    def __enter__(self) -> "_SpanContext":
        self._tracer._stack.append(self._name)
        self._t0 = self._tracer.clock()
        return self

    def __exit__(self, *exc: object) -> None:
        tr = self._tracer
        t1 = tr.clock()
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append(
            Span(
                name=self._name,
                rank=tr.rank,
                t_start=self._t0,
                t_end=t1,
                cat=self._cat,
                parent=parent,
                attrs=self._attrs,
            )
        )


class Tracer:
    """Collects :class:`Span`/:class:`Sample` streams for one rank (or for
    the host, ``rank=-1``).

    ``clock`` is any zero-argument callable returning seconds; the
    simulator passes a closure over the rank's simulated clock, the
    process backend passes monotonic-minus-epoch, and the default is
    ``time.perf_counter`` for host-side use.
    """

    enabled: bool = True

    def __init__(self, rank: int = -1, clock: Callable[[], float] | None = None) -> None:
        self.rank = rank
        self.clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self.spans: list[Span] = []
        self.samples: list[Sample] = []
        self._stack: list[str] = []
        #: The phase the rank program last announced via :meth:`mark`.
        #: Rank programs record spans with the chained ``end_span`` style,
        #: where the phase name only becomes known as the span *closes* --
        #: useless for a live sampler that wants to know what a rank is
        #: doing right now.  ``mark`` is the forward announcement: one
        #: attribute write at the start of each phase.
        self.current_phase: str | None = None

    def mark(self, name: str) -> None:
        """Announce the phase now starting (live-visibility hint).

        Does not record anything on the timeline; it only updates
        :attr:`current_phase` so the live snapshot bus and the sampling
        profiler can attribute in-flight work to a named phase before the
        closing ``end_span`` exists.
        """
        self.current_phase = name

    def open_stack(self) -> tuple[str, ...]:
        """The currently open span stack, outermost first.

        Context-manager spans contribute their nesting; the innermost
        entry is the phase last announced with :meth:`mark` (when one is
        active and differs from the innermost open span).  This is what a
        live snapshot publishes as "what is this rank doing".
        """
        stack = tuple(self._stack)
        phase = self.current_phase
        if phase is not None and (not stack or stack[-1] != phase):
            return stack + (phase,)
        return stack

    def span(self, name: str, cat: str = "phase", **attrs: AttrValue) -> _SpanContext:
        """Open a nested span as a context manager (host/service style)."""
        return _SpanContext(self, name, cat, attrs)

    def end_span(
        self,
        name: str,
        t_start: float,
        cat: str = "phase",
        attrs: Mapping[str, AttrValue] | None = None,
    ) -> float:
        """Close a span opened by hand at ``t_start`` (rank-program style).

        The parent is whatever context-manager span is currently open on
        this tracer (usually none inside rank programs, where hand-opened
        spans are flat phases).  Returns the span's end time so callers
        can chain phases — starting the next span where this one ended
        keeps interpreter overhead and scheduler stalls attributed to a
        named phase instead of falling into coverage gaps (on real-clock
        backends; on the simulator the clock cannot advance between
        spans, so chaining changes nothing).
        """
        parent = self._stack[-1] if self._stack else None
        t_end = self.clock()
        self.spans.append(
            Span(
                name=name,
                rank=self.rank,
                t_start=t_start,
                t_end=t_end,
                cat=cat,
                parent=parent,
                attrs=attrs if attrs is not None else {},
            )
        )
        return t_end

    def instant(self, name: str, cat: str = "event", **attrs: AttrValue) -> None:
        """Record a zero-width span (a marker) at the current clock."""
        t = self.clock()
        self.spans.append(Span(name, self.rank, t, t, cat, attrs=attrs))

    def sample(self, name: str, value: float) -> None:
        """Record a timestamped value of a named quantity."""
        self.samples.append(Sample(name=name, rank=self.rank, t=self.clock(), value=value))


class _NullSpanContext:
    """No-op stand-in for :class:`_SpanContext`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """The disabled tracer: ``enabled`` is False and every method is a no-op.

    Instrumentation sites in hot paths guard on ``tracer.enabled`` and skip
    even the clock read, so this class exists for the call sites that do
    not bother guarding (service code off the hot path).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(rank=-1, clock=lambda: 0.0)

    def span(self, name: str, cat: str = "phase", **attrs: AttrValue) -> _SpanContext:
        """No-op: returns a shared, do-nothing context manager."""
        return _NULL_SPAN_CONTEXT  # type: ignore[return-value]

    def end_span(
        self,
        name: str,
        t_start: float,
        cat: str = "phase",
        attrs: Mapping[str, AttrValue] | None = None,
    ) -> float:
        """No-op."""
        return 0.0

    def instant(self, name: str, cat: str = "event", **attrs: AttrValue) -> None:
        """No-op."""

    def sample(self, name: str, value: float) -> None:
        """No-op."""

    def mark(self, name: str) -> None:
        """No-op: a disabled tracer never changes state."""

    def open_stack(self) -> tuple[str, ...]:
        """Always empty, and allocation-free (one shared tuple)."""
        return ()


#: Shared disabled tracer; the default for every ``tracer`` field/argument.
NULL_TRACER = NullTracer()
