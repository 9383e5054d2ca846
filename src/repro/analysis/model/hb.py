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

The FIFO pairing here is the analyses' only one: the plan verifier reads
its unpaired sends and receives (SPMD001/002) and its pairs (SPMD004).
:func:`hb_from_trace` builds the same structure from a *recorded* run's
``send``/``recv`` op spans and fault log, and the trace linter reads its
TRACE101/102 off that graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model.ops import (
    MBarrier,
    MOp,
    MRecv,
    MSend,
    ModelProgram,
)
from repro.obs.export import RunSource, load_run
from repro.obs.span import op_channel

__all__ = ["HBGraph", "build_hb", "hb_from_trace"]

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

    def unpaired_by_channel(self) -> dict[tuple[int, int, int], list[MSend]]:
        """The sends no receive pairs with, per channel, in program order."""
        out: dict[tuple[int, int, int], list[MSend]] = {}
        for rank, i in self.unmatched_sends:
            op = self.streams[rank][i]
            assert isinstance(op, MSend)
            out.setdefault((rank, op.dst, op.tag), []).append(op)
        return out

    def happens_before(self, e1: EventId, e2: EventId) -> bool:
        """``e1 -> e2`` in the happens-before partial order."""
        if not self.acyclic:
            raise ValueError("happens-before is undefined on a cyclic graph")
        if e1 == e2:
            return False
        c1, c2 = self.clocks[e1], self.clocks[e2]
        r1 = e1[0]
        return c1[r1] <= c2[r1]


def _vector_clocks(
    streams: Sequence[Sequence[MOp]],
    pairs: dict[tuple[int, int, int], list[tuple[int, int]]],
    episodes: list[list[EventId]],
) -> tuple[dict[EventId, tuple[int, ...]], int]:
    """Vector clocks of every event no causal cycle holds back.

    Each rank's stream is walked in program order; an event waits until
    its other predecessors have clocks -- a receive its paired send, the
    op after a barrier arrival the episode's sync point (every rank's
    arrival; arrive/depart splitting, so a barrier is a clique without
    2-cycles).  Returns the clocks and how many sync points were reached:
    the relation is acyclic iff every event and sync point was.
    """
    num_ranks = len(streams)
    sent_by = {
        (dst, ri): (src, si) for (src, dst, _t), plist in pairs.items() for si, ri in plist
    }
    released_by = {
        (rank, idx + 1): k for k, arrivals in enumerate(episodes) for rank, idx in arrivals
    }
    clocks: dict[EventId, tuple[int, ...]] = {}
    sync: dict[int, tuple[int, ...]] = {}

    def sync_clock(k: int) -> tuple[int, ...] | None:
        if k not in sync and all(a in clocks for a in episodes[k]):
            sync[k] = tuple(map(max, zip(*(clocks[a] for a in episodes[k]))))
        return sync.get(k)

    def joined(event: EventId, vc: tuple[int, ...]) -> tuple[int, ...] | None:
        """``vc`` joined with the event's message and barrier predecessors,
        or ``None`` while one of them has no clock yet."""
        if event in sent_by:
            sent = clocks.get(sent_by[event])
            if sent is None:
                return None
            vc = tuple(map(max, vc, sent))
        if event in released_by:
            released = sync_clock(released_by[event])
            if released is None:
                return None
            vc = tuple(map(max, vc, released))
        return vc

    pos = [0] * num_ranks
    last = [(0,) * num_ranks] * num_ranks
    progress = True
    while progress:
        progress = False
        for rank, stream in enumerate(streams):
            i, vc = pos[rank], last[rank]
            while i < len(stream):
                ready = joined((rank, i), vc)
                if ready is None:
                    break
                vc = ready[:rank] + (i + 1,) + ready[rank + 1 :]
                clocks[rank, i] = vc
                i += 1
            if i > pos[rank]:
                pos[rank], last[rank] = i, vc
                progress = True
    return clocks, sum(sync_clock(k) is not None for k in range(len(episodes)))


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
    if len({len(b) for b in barrier_idx}) > 1:
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
    episodes = [[(rank, b[k]) for rank, b in enumerate(barrier_idx)] for k in range(n_episodes)]

    clocks, n_synced = _vector_clocks(streams, pairs, episodes)
    num_events = sum(len(s) for s in streams)
    acyclic = len(clocks) == num_events and n_synced == n_episodes
    if not acyclic:
        stuck = sorted(
            (rank, i)
            for rank, s in enumerate(streams)
            for i in range(len(s))
            if (rank, i) not in clocks
        )[:6]
        sample = ", ".join(
            f"rank {r} op {i} ({type(streams[r][i]).__name__})"
            for r, i in stuck
        )
        diags.append(
            Diagnostic(
                "MC304",
                f"the happens-before relation is cyclic; "
                f"{num_events - len(clocks) + n_episodes - n_synced} event(s) sit "
                f"on causal cycles (e.g. {sample})",
                hint="a chain of message and program-order edges requires "
                "an event to precede itself; no interleaving can realize "
                "this program",
            )
        )
        clocks = {}

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


# -- trace-side construction --------------------------------------------------


def hb_from_trace(metrics: RunSource) -> HBGraph:
    """Build the happens-before graph of a *recorded* run.

    ``metrics`` is an in-memory :class:`RunMetrics` or an exported run
    (path / parsed mapping), exactly as :func:`lint_trace` accepts.  The
    ``send``/``recv`` op spans are projected per rank in trace order (each
    rank's ops are appended in its own program order by both backends);
    the fault log's dropped copies are removed from the sender's stream
    and its duplicated copies re-posted, and FIFO pairing then proceeds
    exactly as on symbolic programs.  An unpaired send is a message that
    reached the network and was never received (TRACE101).
    """
    metrics = load_run(metrics)
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
        posted = [
            i
            for i, op in enumerate(streams[src])
            if isinstance(op, MSend) and (op.dst, op.tag) == (dst, tag)
        ]
        for i in reversed(posted[max(0, len(posted) - k) :]):
            del streams[src][i]
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
