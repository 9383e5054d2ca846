"""Collective operations built on point-to-point messages.

The paper's parallel algorithm needs one collective: combine the partial
results of a reduction group onto its *lead* processor.  Two implementations
are provided -- the flat gather-to-lead the paper describes, and a
binomial-tree reduction with the same total volume but logarithmic depth
(the T-comm ablation compares them) -- plus two variants of the flat one:
a slab-chunked reduction (the paper's buffer-size tradeoff) and an
acknowledged, retrying one that survives dropped payloads.

All of these are generator helpers: call them with ``yield from`` inside a
rank program.  Numeric payloads are numpy arrays (or objects with
``nbytes``); accumulation is the caller-supplied ``combine`` (default:
in-place numpy add).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.cluster.network import Control, payload_nbytes
from repro.cluster.runtime import Op, RankEnv, RecvOp, RECV_TIMEOUT


class DeliveryError(RuntimeError):
    """A reliable collective exhausted its retry budget."""


def _default_combine(acc: Any, other: Any) -> Any:
    acc += other
    return acc


def _note_send(env: RankEnv, dst: int, tag: int, payload: Any) -> None:
    """Publish per-pair collective traffic to the run's metrics registry.

    Only called on traced runs (callers guard on ``env.tracer.enabled``),
    so untraced hot paths never compute payload sizes twice.
    """
    env.obs.counter(
        "collective.bytes", src=env.rank, dst=dst, tag=tag
    ).inc(payload_nbytes(payload))
    env.obs.counter("collective.messages", src=env.rank, dst=dst, tag=tag).inc()


def reduce_to_lead(
    env: RankEnv,
    group: Sequence[int],
    value: Any,
    tag: int,
    combine: Callable[[Any, Any], Any] = _default_combine,
    element_ops: float | None = None,
) -> Generator[Op, Any, Any]:
    """Flat reduction: every non-lead sends to ``group[0]`` (the paper's).

    Returns the combined value on the lead and ``None`` elsewhere.
    ``element_ops`` charges compute time per combine (defaults to the
    payload's ``size``).
    """
    group = list(group)
    if env.rank not in group:
        raise ValueError(f"rank {env.rank} not in group {group}")
    lead = group[0]
    if env.rank != lead:
        if env.tracer.enabled:
            _note_send(env, lead, tag, value)
        yield env.send(lead, value, tag)
        return None
    acc = value
    for src in group[1:]:
        other = yield env.recv(src, tag)
        ops = element_ops if element_ops is not None else getattr(other, "size", 0)
        if ops:
            yield env.compute(ops)
        acc = combine(acc, other)
    return acc


# Ack tags live far above the data-tag space used by the cube schedules
# (step indices and the chunked-reduction namespace both stay well below).
_ACK_TAG_BASE = 900_000_000


def reduce_to_lead_reliable(
    env: RankEnv,
    group: Sequence[int],
    value: Any,
    tag: int,
    combine: Callable[[Any, Any], Any] = _default_combine,
    element_ops: float | None = None,
    timeout: float = 1e-3,
    max_retries: int = 3,
    backoff: float = 2.0,
) -> Generator[Op, Any, Any]:
    """Flat reduction with per-message acks, bounded retries, and
    exponential backoff -- survives dropped (and duplicated) payloads.

    Protocol: every non-lead sends its partial to the lead and waits for a
    :class:`~repro.cluster.network.Control` ack; if the ack does not arrive
    within ``timeout * backoff**attempt`` seconds, the partial is resent
    (up to ``max_retries`` resends).  The lead symmetrically re-arms its
    receive with the same growing windows.  Each window is shaped by the
    executing backend's :class:`~repro.cluster.runtime.TimeoutPolicy`
    (``env.timeouts.effective``): under the simulator the windows are the
    literal simulated seconds above, while a real-process backend scales
    and floors them in ``time.monotonic`` seconds so OS scheduling jitter
    is never mistaken for a dropped payload.  Duplicate payloads
    (from a retry that crossed a late ack) are left unmatched and are
    harmless: each (src, attempt-independent) payload is combined once.

    Raises :class:`DeliveryError` when the retry budget is exhausted -- a
    lost *ack* on the final attempt is indistinguishable from a lost
    payload, so acks must be at least as reliable as the configured retry
    budget assumes.  Returns the combined value on the lead and ``None``
    elsewhere; retry attempts are recorded in ``RunMetrics.faults``.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if timeout <= 0 or backoff < 1.0:
        raise ValueError("timeout must be positive and backoff >= 1")
    group = list(group)
    if env.rank not in group:
        raise ValueError(f"rank {env.rank} not in group {group}")
    lead = group[0]
    ack_tag = _ACK_TAG_BASE + tag
    if env.rank != lead:
        for attempt in range(max_retries + 1):
            if env.tracer.enabled:
                _note_send(env, lead, tag, value)
            yield env.send(lead, value, tag)
            window = env.timeouts.effective(timeout * backoff ** attempt)
            ack = yield RecvOp(src=lead, tag=ack_tag, timeout=window)
            if ack is not RECV_TIMEOUT:
                return None
            env.note_retry(f"resend to lead {lead} (attempt {attempt + 1})")
        raise DeliveryError(
            f"rank {env.rank}: no ack from lead {lead} after "
            f"{max_retries + 1} attempts (tag {tag})"
        )
    acc = value
    for src in group[1:]:
        other = RECV_TIMEOUT
        for attempt in range(max_retries + 1):
            window = env.timeouts.effective(timeout * backoff ** attempt)
            other = yield RecvOp(src=src, tag=tag, timeout=window)
            if other is not RECV_TIMEOUT:
                break
            env.note_retry(f"re-arm recv from {src} (attempt {attempt + 1})")
        if other is RECV_TIMEOUT:
            raise DeliveryError(
                f"lead {env.rank}: no payload from rank {src} after "
                f"{max_retries + 1} attempts (tag {tag})"
            )
        yield env.send(src, Control("ack", (tag,)), ack_tag)
        ops = element_ops if element_ops is not None else getattr(other, "size", 0)
        if ops:
            yield env.compute(ops)
        acc = combine(acc, other)
    return acc


def reduce_binomial(
    env: RankEnv,
    group: Sequence[int],
    value: Any,
    tag: int,
    combine: Callable[[Any, Any], Any] = _default_combine,
    element_ops: float | None = None,
) -> Generator[Op, Any, Any]:
    """Binomial-tree reduction onto ``group[0]``.

    Same total volume as :func:`reduce_to_lead` -- ``(|group|-1)`` payload
    sends -- but depth ``ceil(log2 |group|)``, so the lead is less of a
    serial bottleneck.  Requires no special group size (non-powers of two
    handled by the standard index folding).
    """
    group = list(group)
    if env.rank not in group:
        raise ValueError(f"rank {env.rank} not in group {group}")
    me = group.index(env.rank)
    n = len(group)
    acc = value
    dist = 1
    while dist < n:
        if me % (2 * dist) == 0:
            partner = me + dist
            if partner < n:
                other = yield env.recv(group[partner], tag)
                ops = element_ops if element_ops is not None else getattr(other, "size", 0)
                if ops:
                    yield env.compute(ops)
                acc = combine(acc, other)
        elif me % (2 * dist) == dist:
            partner = me - dist
            if env.tracer.enabled:
                _note_send(env, group[partner], tag, acc)
            yield env.send(group[partner], acc, tag)
            return None
        dist *= 2
    return acc if me == 0 else None


def reduce_to_lead_chunked(
    env: RankEnv,
    group: Sequence[int],
    value: Any,
    tag: int,
    max_message_elements: int,
    element_ops_per_element: float = 1.0,
    combine_flat: Callable[[Any, Any], Any] = _default_combine,
) -> Generator[Op, Any, Any]:
    """Flat reduction in slabs of at most ``max_message_elements``.

    Models the paper's section-4 discussion: "a processor can receive a
    single element from one other processor, add it ... and then use the
    same one element buffer" -- minimal memory, maximal message count --
    versus whole-array messages.  This helper realizes any point on that
    tradeoff: the lead's receive buffer is capped at one slab while the
    number of messages (hence latency cost) grows as the slab shrinks.

    ``value`` is a DenseArray or numpy array.  Slabs are merged with
    ``combine_flat`` applied to flat views (default: in-place add; pass a
    measure's ``combine`` for MIN/MAX/COUNT reductions).
    """
    if max_message_elements <= 0:
        raise ValueError("max_message_elements must be positive")
    group = list(group)
    if env.rank not in group:
        raise ValueError(f"rank {env.rank} not in group {group}")
    lead = group[0]
    # numpy arrays expose a buffer-protocol .data memoryview; dispatch on
    # type instead of attribute presence.
    data = value if isinstance(value, np.ndarray) else value.data
    if not data.flags.c_contiguous:
        raise ValueError("chunked reduction requires a C-contiguous array")
    flat = data.reshape(-1)
    nslabs = max(1, -(-flat.size // max_message_elements))
    # Namespace slab tags under the caller's tag; FIFO matching keeps any
    # residual collisions ordered correctly, this just keeps them rare.
    base = (tag + 1) * 10_000_000
    if env.rank != lead:
        for s in range(nslabs):
            lo = s * max_message_elements
            hi = min(flat.size, lo + max_message_elements)
            slab = flat[lo:hi].copy()
            if env.tracer.enabled:
                _note_send(env, lead, base + s, slab)
            yield env.send(lead, slab, base + s)
        return None
    # Lead: receive slab by slab from each partner, reusing one slab's
    # worth of buffer memory (accounted explicitly).
    buf_elems = min(max_message_elements, max(flat.size, 1))
    env.alloc(("recvbuf", tag), buf_elems)
    try:
        for src in group[1:]:
            for s in range(nslabs):
                lo = s * max_message_elements
                hi = min(flat.size, lo + max_message_elements)
                slab = yield env.recv(src, base + s)
                yield env.compute((hi - lo) * element_ops_per_element)
                combine_flat(flat[lo:hi], slab)
    finally:
        env.free(("recvbuf", tag))
    return value
