"""Happens-before construction and race checks (MC301/303/304).

The happens-before relation of a :class:`ModelProgram` is the smallest
partial order containing

- **program order**: each rank's stream, in sequence;
- **message order**: every FIFO-paired send precedes its receive (the
  ``k``-th send on a ``(src, dst, tag)`` channel pairs with the ``k``-th
  receive, which is exactly the mailbox semantics both backends
  implement);
- **barrier order**: the ``k``-th barrier arrival of every rank precedes
  every rank's first op after its own ``k``-th arrival (arrive/depart
  splitting, so a barrier is a synchronization clique without 2-cycles).

Vector clocks are computed along a topological order, giving an O(1)
``happens_before`` test.  On that structure:

- **MC303** fires when ranks disagree on how many barrier episodes they
  join;
- **MC304** fires when the edge set has a cycle (the program requires an
  event to precede itself -- no execution can realize it);
- **MC301** fires when two messages share a channel but are unordered:
  safety of FIFO pairing requires ``recv_i -> send_j`` for ``i < j``,
  otherwise which payload pairs with which receive is a race.

:func:`hb_from_trace` builds the same structure from a *recorded* run's
``send``/``recv`` op spans and fault log, which is how the trace linter's
TRACE101/102 channel accounting is cross-checked against an independent
happens-before pairing (:func:`crosscheck_trace`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model.ops import (
    MBarrier,
    MOp,
    MRecv,
    MSend,
    ModelProgram,
)
from repro.cluster.metrics import RunMetrics
from repro.obs.span import op_channel

__all__ = [
    "HBGraph",
    "TraceParity",
    "build_hb",
    "crosscheck_trace",
    "hb_from_trace",
]

#: Event id: ``(rank, index)`` for stream events; barriers add synthetic
#: ``(-1, episode)`` sync nodes.
EventId = tuple[int, int]


@dataclass
class HBGraph:
    """The happens-before relation of one program, with vector clocks."""

    num_ranks: int
    streams: tuple[tuple[MOp, ...], ...]
    #: FIFO-paired messages per channel: ``(src, dst, tag) -> [(send_idx,
    #: recv_idx), ...]`` (indices into the respective rank streams).
    pairs: dict[tuple[int, int, int], list[tuple[int, int]]]
    #: Sends that never pair (undelivered) and receives that never pair.
    unmatched_sends: list[EventId]
    unmatched_recvs: list[EventId]
    #: Vector clock of every stream event; empty when the graph is cyclic.
    clocks: dict[EventId, tuple[int, ...]]
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: True when a topological order exists (no causal cycle).
    acyclic: bool = True
    barrier_episodes: int = 0

    @property
    def num_events(self) -> int:
        return sum(len(s) for s in self.streams)

    def happens_before(self, e1: EventId, e2: EventId) -> bool:
        """``e1 -> e2`` in the happens-before partial order."""
        if not self.acyclic:
            raise ValueError("happens-before is undefined on a cyclic graph")
        if e1 == e2:
            return False
        c1, c2 = self.clocks[e1], self.clocks[e2]
        r1 = e1[0]
        return c1[r1] <= c2[r1]


def _succ_edges(
    streams: Sequence[Sequence[MOp]],
    pairs: dict[tuple[int, int, int], list[tuple[int, int]]],
    episodes: list[list[EventId]],
) -> dict[EventId, list[EventId]]:
    """Adjacency of the happens-before DAG (program, message, barrier)."""
    succ: dict[EventId, list[EventId]] = {}

    def add(a: EventId, b: EventId) -> None:
        succ.setdefault(a, []).append(b)

    for rank, stream in enumerate(streams):
        for i in range(len(stream) - 1):
            add((rank, i), (rank, i + 1))
    for (src, dst, _tag), plist in pairs.items():
        for si, ri in plist:
            add((src, si), (dst, ri))
    # Barrier episode k: every arrival -> sync node (-1, k) -> the arrival
    # itself "departs", i.e. the sync node precedes each arrival's
    # *successor*; routing through the arrival's program-order successor is
    # equivalent to arrive/depart splitting.
    for k, arrivals in enumerate(episodes):
        sync = (-1, k)
        for rank, idx in arrivals:
            add((rank, idx), sync)
            if idx + 1 < len(streams[rank]):
                add(sync, (rank, idx + 1))
    return succ


def build_hb(prog: ModelProgram) -> HBGraph:
    """Construct the happens-before graph and run MC301/303/304."""
    streams = prog.streams
    diags: list[Diagnostic] = []

    # FIFO pairing per channel.
    send_seq: dict[tuple[int, int, int], list[int]] = {}
    recv_seq: dict[tuple[int, int, int], list[int]] = {}
    for rank, stream in enumerate(streams):
        for i, op in enumerate(stream):
            if isinstance(op, MSend):
                send_seq.setdefault((op.rank, op.dst, op.tag), []).append(i)
            elif isinstance(op, MRecv):
                recv_seq.setdefault((op.src, op.rank, op.tag), []).append(i)
    pairs: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    unmatched_sends: list[EventId] = []
    unmatched_recvs: list[EventId] = []
    for key in sorted(set(send_seq) | set(recv_seq)):
        sends = send_seq.get(key, [])
        recvs = recv_seq.get(key, [])
        paired = list(zip(sends, recvs))
        if paired:
            pairs[key] = paired
        src, dst, _tag = key
        unmatched_sends.extend((src, i) for i in sends[len(paired) :])
        unmatched_recvs.extend((dst, i) for i in recvs[len(paired) :])

    # Barrier episodes (MC303).
    barrier_idx: list[list[int]] = [
        [i for i, op in enumerate(s) if isinstance(op, MBarrier)]
        for s in streams
    ]
    counts = sorted({len(b) for b in barrier_idx})
    episodes: list[list[EventId]] = []
    if len(counts) > 1:
        per_rank = ", ".join(
            f"rank {r}: {len(b)}" for r, b in enumerate(barrier_idx)
        )
        diags.append(
            Diagnostic(
                "MC303",
                f"ranks disagree on the number of barrier episodes "
                f"({per_rank}); the extra arrivals can never be released",
                hint="every rank must yield the same barrier sequence; a "
                "skipped arrival stalls all other participants forever",
            )
        )
    n_episodes = min(len(b) for b in barrier_idx) if barrier_idx else 0
    for k in range(n_episodes):
        episodes.append(
            [(rank, barrier_idx[rank][k]) for rank in range(prog.num_ranks)]
        )

    succ = _succ_edges(streams, pairs, episodes)

    # Kahn: detect cycles (MC304), produce a topological order.
    indeg: dict[EventId, int] = {}
    all_nodes: list[EventId] = [
        (rank, i) for rank, s in enumerate(streams) for i in range(len(s))
    ]
    all_nodes.extend((-1, k) for k in range(n_episodes))
    for node in all_nodes:
        indeg.setdefault(node, 0)
    for node, outs in succ.items():
        for b in outs:
            indeg[b] = indeg.get(b, 0) + 1
    queue = [node for node in all_nodes if indeg[node] == 0]
    topo: list[EventId] = []
    while queue:
        node = queue.pop()
        topo.append(node)
        for b in succ.get(node, []):
            indeg[b] -= 1
            if indeg[b] == 0:
                queue.append(b)
    acyclic = len(topo) == len(all_nodes)
    clocks: dict[EventId, tuple[int, ...]] = {}
    if not acyclic:
        stuck = sorted(
            node for node in all_nodes if indeg[node] > 0 and node[0] >= 0
        )[:6]
        sample = ", ".join(
            f"rank {r} op {i} ({type(streams[r][i]).__name__})"
            for r, i in stuck
        )
        diags.append(
            Diagnostic(
                "MC304",
                f"the happens-before relation is cyclic; "
                f"{len(all_nodes) - len(topo)} event(s) sit on causal "
                f"cycles (e.g. {sample})",
                hint="a chain of message and program-order edges requires "
                "an event to precede itself; no interleaving can realize "
                "this program",
            )
        )
    else:
        # Vector clocks along the topological order.
        zero = (0,) * prog.num_ranks
        pred: dict[EventId, list[EventId]] = {}
        for a, outs in succ.items():
            for b in outs:
                pred.setdefault(b, []).append(a)
        for node in topo:
            vc = list(zero)
            for p in pred.get(node, []):
                pv = clocks[p]
                for r in range(prog.num_ranks):
                    if pv[r] > vc[r]:
                        vc[r] = pv[r]
            rank, idx = node
            if rank >= 0:
                vc[rank] = idx + 1
            clocks[node] = tuple(vc)

    graph = HBGraph(
        num_ranks=prog.num_ranks,
        streams=streams,
        pairs=pairs,
        unmatched_sends=sorted(unmatched_sends),
        unmatched_recvs=sorted(unmatched_recvs),
        clocks=clocks,
        diagnostics=diags,
        acyclic=acyclic,
        barrier_episodes=n_episodes,
    )

    # MC301: multi-message channels must serialize recv_i -> send_{i+1}.
    if acyclic:
        for key, plist in sorted(pairs.items()):
            if len(plist) < 2:
                continue
            src, dst, tag = key
            for (si, ri), (sj, _rj) in zip(plist, plist[1:]):
                if not graph.happens_before((dst, ri), (src, sj)):
                    op = streams[src][sj]
                    assert isinstance(op, MSend)
                    diags.append(
                        Diagnostic(
                            "MC301",
                            f"channel {src}->{dst} tag {tag} carries "
                            f"{len(plist)} messages but message "
                            f"{plist.index((sj, _rj)) + 1} is posted before "
                            f"the previous receive completes in some "
                            f"interleaving; FIFO pairing is a race",
                            rank=src,
                            edge=op.edge,
                            step=op.step,
                            hint="give concurrent messages distinct tags "
                            "(the schedulers tag with the step index), or "
                            "synchronize the second send after the first "
                            "receive",
                        )
                    )
                    break
    return graph


# -- trace-side construction and the TRACE101/102 cross-check ---------------


def _as_metrics(metrics: Union[RunMetrics, str, Path, Mapping]) -> RunMetrics:
    if not isinstance(metrics, RunMetrics):
        from repro.obs.export import load_run

        metrics = load_run(metrics)
    return metrics


def hb_from_trace(metrics: Union[RunMetrics, str, Path, Mapping]) -> HBGraph:
    """Build the happens-before graph of a *recorded* run.

    ``metrics`` is an in-memory :class:`RunMetrics` or an exported run
    (path / parsed mapping), exactly as :func:`lint_trace` accepts.  The
    ``send``/``recv`` op spans are projected per rank in trace order (each
    rank's ops are appended in its own program order by both backends);
    the fault log's dropped copies are removed from the sender's stream
    and its duplicated copies re-posted -- the same fault accounting the
    trace linter applies -- and FIFO pairing then proceeds exactly as on
    symbolic programs.
    """
    metrics = _as_metrics(metrics)
    if not metrics.trace:
        raise ValueError("run has no trace; pass record_trace=True / trace=True")
    num_ranks = metrics.num_ranks
    streams: list[list[MOp]] = [[] for _ in range(num_ranks)]
    for ev in metrics.trace:
        if ev.name == "send":
            peer, tag = op_channel(ev)
            streams[ev.rank].append(MSend(ev.rank, peer, tag, 0, step=len(streams[ev.rank])))
        elif ev.name == "recv":
            peer, tag = op_channel(ev)
            streams[ev.rank].append(MRecv(ev.rank, peer, tag, step=len(streams[ev.rank])))
    # Fault accounting: a "drop" consumes the sender's most recent posted
    # copy on that channel, so remove the last dropped copies; a
    # "duplicate" posts one more (delivered after the original, so
    # appending preserves FIFO pairing).
    for (src, dst, tag), k in metrics.faults.channel_counts("drop").items():
        removed = 0
        for i in range(len(streams[src]) - 1, -1, -1):
            op = streams[src][i]
            if (
                removed < k
                and isinstance(op, MSend)
                and (op.dst, op.tag) == (dst, tag)
            ):
                del streams[src][i]
                removed += 1
    for (src, dst, tag), k in metrics.faults.channel_counts("duplicate").items():
        for _ in range(k):
            streams[src].append(
                MSend(src, dst, tag, 0, step=len(streams[src]))
            )
    prog = ModelProgram(
        shape=(),
        bits=(),
        num_ranks=num_ranks,
        streams=tuple(tuple(s) for s in streams),
        scheduler=metrics.backend or "trace",
    )
    return build_hb(prog)


@dataclass
class TraceParity:
    """Agreement between the trace linter and the model's happens-before.

    Both sides classify the same run's channels independently: the linter
    by per-channel multiset counting (TRACE101/102), the model by FIFO
    pairing on the happens-before graph (an unpaired send is an
    undelivered message; a receive beyond the sender's intentional posts
    is a duplicate delivery).  ``agree`` is the parity the tests pin.
    """

    lint_undelivered: frozenset[tuple[int, int, int]]
    lint_duplicate: frozenset[tuple[int, int, int]]
    model_undelivered: frozenset[tuple[int, int, int]]
    model_duplicate: frozenset[tuple[int, int, int]]

    @property
    def agree(self) -> bool:
        return (
            self.lint_undelivered == self.model_undelivered
            and self.lint_duplicate == self.model_duplicate
        )

    def describe(self) -> str:
        def fmt(channels: frozenset[tuple[int, int, int]]) -> str:
            if not channels:
                return "none"
            return ", ".join(
                f"{s}->{d} tag {t}" for s, d, t in sorted(channels)
            )

        lines = [
            f"undelivered channels: lint {{{fmt(self.lint_undelivered)}}} "
            f"vs model {{{fmt(self.model_undelivered)}}}",
            f"duplicate channels:   lint {{{fmt(self.lint_duplicate)}}} "
            f"vs model {{{fmt(self.model_duplicate)}}}",
            "parity: " + ("agree" if self.agree else "DIVERGE"),
        ]
        return "\n".join(lines)


#: The linter's channel phrasing; both rules name the channel this way.
_CHANNEL_RE = re.compile(r"(\d+)->(\d+) tag (\d+)")


def crosscheck_trace(
    metrics: Union[RunMetrics, str, Path, Mapping],
) -> TraceParity:
    """Cross-check TRACE101/102 against the happens-before pairing."""
    from repro.analysis.lint_trace import lint_trace

    metrics = _as_metrics(metrics)
    lint_undelivered: set[tuple[int, int, int]] = set()
    lint_duplicate: set[tuple[int, int, int]] = set()
    for diag in lint_trace(metrics):
        if diag.rule not in ("TRACE101", "TRACE102"):
            continue
        m = _CHANNEL_RE.search(diag.message)
        assert m is not None, f"unparseable channel in {diag.message!r}"
        channel = (int(m.group(1)), int(m.group(2)), int(m.group(3)))
        if diag.rule == "TRACE101":
            lint_undelivered.add(channel)
        else:
            lint_duplicate.add(channel)

    graph = hb_from_trace(metrics)
    model_undelivered = {
        (rank, idx)
        for rank, idx in graph.unmatched_sends
    }
    undelivered_channels: set[tuple[int, int, int]] = set()
    for rank, idx in model_undelivered:
        op = graph.streams[rank][idx]
        assert isinstance(op, MSend)
        undelivered_channels.add((op.rank, op.dst, op.tag))
    # Duplicate delivery: the receiver consumed more copies than the
    # sender posted *intentionally* -- i.e. pairing needed the injected
    # duplicates.  Reconstruct intentional counts from the HB streams
    # (pairs + unmatched - injected duplicates are not distinguishable in
    # the stream, so count recvs beyond sends-minus-duplicates directly).
    dup_channels: set[tuple[int, int, int]] = set()
    intentional: dict[tuple[int, int, int], int] = {}
    consumed: dict[tuple[int, int, int], int] = {}
    for ev in metrics.trace:
        if ev.name == "send":
            key = (ev.rank, *op_channel(ev))
            intentional[key] = intentional.get(key, 0) + 1
    for key, plist in graph.pairs.items():
        consumed[key] = len(plist)
    for key, got in consumed.items():
        if got > intentional.get(key, 0):
            dup_channels.add(key)
    return TraceParity(
        lint_undelivered=frozenset(lint_undelivered),
        lint_duplicate=frozenset(lint_duplicate),
        model_undelivered=frozenset(undelivered_channels),
        model_duplicate=frozenset(dup_channels),
    )
