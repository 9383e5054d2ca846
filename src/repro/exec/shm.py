"""Staging of cube outputs in one buffer every rank can write.

Inputs need no staging: every backend hands its ranks the host's blocks of
the initial array.  Threads share the host's address space, and the
process backend forks its workers after the partition, so they read the
same pages copy-on-write and, since input blocks are never written, no
page is copied.

Outputs do: :class:`OutputArena` is one buffer holding a *global-shaped*
slot per written cube node.  At writeback each lead writes its finalized
portion directly into its slice of the node's slot
(:meth:`OutputArena.stage`) and returns a tiny :class:`StagedResult`
marker instead of the aggregate; the host takes the finished arrays from
the buffer (:meth:`OutputArena.collect`).  Because each lead's portion
occupies disjoint slices of the node array, the writes need no locking,
and every output cell is written once.  The arena is geometry plus
``stage`` over *some* buffer; the backend picks the owner of that buffer
in ``prepare_outputs``:

* :class:`PrivateOutputArena` (threads) -- a process-private anonymous
  mapping.
* :class:`SharedOutputArena` (forked processes) -- an anonymous
  ``MAP_SHARED`` mapping created before the fork, so the workers write the
  very pages the host reads.

Either way ``collect`` returns **views**, so the arrays of a finished
build *are* the memory the ranks wrote: no copy-out, nothing to unlink,
and the mapping lives exactly as long as some result array does.  Neither
buffer is zero-filled by hand: a fresh anonymous mapping reads as zero.
Forked workers also send each other partials through a :class:`MessageRegion`.
"""

from __future__ import annotations

import mmap
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.arrays.dense import DEFAULT_DTYPE, DenseArray
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import rank_slices
from repro.core.lattice import Node, node_size

#: Cache-line alignment for every node slot in the buffer.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class OutputLayout:
    """What one construction writes back: the geometry of the output arena.

    ``nodes`` are the cube nodes the schedule actually writes (discarded
    intermediates excluded); ``shape``/``grid`` fix each node's global
    projected shape and each lead's slice of it -- the same geometry
    :func:`repro.core.parallel.assemble_results` stitches by.
    ``declared_volume`` is the scheduler's declared communication volume in
    elements (Theorem 3 for Fig 5); it sizes a :class:`MessageRegion`.
    """

    shape: tuple[int, ...]
    grid: ProcessorGrid
    nodes: tuple[Node, ...]
    dtype: np.dtype = field(default_factory=lambda: np.dtype(DEFAULT_DTYPE))
    declared_volume: int = 0


@dataclass(frozen=True)
class StagedResult:
    """Marker a rank program returns instead of an aggregate it staged.

    The real array already sits in the :class:`OutputArena`; only this
    marker travels back through the backend's result channel.
    ``nbytes`` preserves the portion size for metrics.
    """

    node: Node
    nbytes: int = 0


class OutputArena:
    """Global-shaped slots for every written cube node, over one buffer.

    The geometry and the write path; a subclass owns the buffer
    (``_buf``, at least :attr:`nbytes` zero-reading bytes, set in its
    constructor before any rank runs -- for forked workers, before the
    fork, so they inherit the mapping).  Rank side: :meth:`stage` writes
    one rank's finalized portion into its slice of the node slot and
    reports whether staging applied (a ``False`` return tells the program
    to fall back to returning the array through the normal channel --
    staging is an optimization, never a correctness requirement).  Host
    side: :meth:`collect` hands out the finished nodes, :meth:`close`
    ends staging.
    """

    def __init__(self, layout: OutputLayout) -> None:
        self.layout = layout
        self._dtype = np.dtype(layout.dtype)
        self._rank_slices = rank_slices(layout.grid.bits, tuple(layout.shape))
        self._slots: dict[Node, tuple[int, tuple[int, ...]]] = {}
        total = 0
        for node in layout.nodes:
            if node in self._slots:
                raise ValueError(f"duplicate output node {node}")
            total = _aligned(total)
            self._slots[node] = (total, tuple(layout.shape[d] for d in node))
            total += node_size(node, layout.shape) * self._dtype.itemsize
        #: Size of the backing buffer in bytes.
        self.nbytes = max(total, 1)
        self._buf: Any = None

    def _view(self, node: Node) -> np.ndarray:
        offset, node_shape = self._slots[node]
        return np.ndarray(
            node_shape, dtype=self._dtype, buffer=self._buf, offset=offset
        )

    def stage(self, rank: int, node: Node, data: np.ndarray) -> bool:
        """Write ``rank``'s finalized portion of ``node`` into the arena.

        Returns ``False`` (stage nothing) when the arena is closed, the
        node has no slot, or the portion does not match the slot's
        dtype/geometry; the caller then returns the array through the
        normal result channel.
        """
        if self._buf is None or node not in self._slots:
            return False
        if data.dtype != self._dtype:
            return False
        slices = self._rank_slices[rank]
        # The trailing Ellipsis keeps a 0-d slot (the grand total) a view.
        dest = self._view(node)[(*[slices[d] for d in node], ...)]
        if dest.shape != data.shape:
            return False
        dest[...] = data
        return True

    def collect(self, nodes: Sequence[Node] | None = None) -> dict[Node, DenseArray]:
        """The finished node arrays, as views of the buffer (host side).

        ``nodes`` restricts collection (default: every slot).
        """
        wanted = self._slots.keys() if nodes is None else nodes
        out: dict[Node, DenseArray] = {}
        for node in wanted:
            if node not in self._slots:
                raise KeyError(f"node {node} has no output slot")
            out[node] = DenseArray(self._view(node), node)
        return out

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._slots)

    def close(self) -> None:
        """End staging and let go of the buffer (host side; idempotent)."""
        self._buf = None


class PrivateOutputArena(OutputArena):
    """Output arena over a process-private anonymous mapping (threads).

    Collected arrays are views of the mapping and keep it alive: they stay
    valid -- and writable -- after :meth:`close`, which only drops the
    arena's own reference, and the pages go back to the system when the
    last of them does.  Holding one cuboid of a build therefore holds the
    whole build's buffer.  Pages become resident only as leads write them.
    """

    def __init__(self, layout: OutputLayout) -> None:
        super().__init__(layout)
        if sys.platform != "win32":
            # Private pages are cheaper to first-touch than the default
            # MAP_SHARED ones, and nothing outside this process maps them.
            self._buf = mmap.mmap(
                -1, self.nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            )
        else:
            self._buf = mmap.mmap(-1, self.nbytes)


class SharedOutputArena(OutputArena):
    """Output arena over an anonymous shared mapping (forked workers).

    Created host-side *before* workers fork, so they inherit the mapping
    and their writes land in the host's pages.  As on threads, collected
    arrays are views that keep the whole mapping alive, and :meth:`close`
    only stops staging.  The pages are also shared with every process the
    host forks later (a later build's workers included), so such a child's
    writes to a result array would be visible to the host.
    """

    def __init__(self, layout: OutputLayout) -> None:
        super().__init__(layout)
        self._buf = mmap.mmap(
            -1, self.nbytes, flags=mmap.MAP_SHARED | mmap.MAP_ANONYMOUS
        )


class MessageRegion:
    """The arrays forked workers send each other, in one anonymous
    ``MAP_SHARED`` mapping made before the fork: a bump-offset header, then
    ``layout.declared_volume`` elements.  :meth:`park` copies a numeric array
    (bare or in a ``DenseArray``) into the next slot, claimed under ``lock``,
    and returns ``(offset, shape, dtype, dims)``; any other payload, or one
    that does not fit, comes back as it is.  :meth:`unpark` reads a slot in
    place.  Slots are never reused, so a view stays valid.
    """

    def __init__(self, layout: OutputLayout, lock: Any) -> None:
        self.nbytes = layout.declared_volume * np.dtype(layout.dtype).itemsize
        self._lock = lock
        self._buf = mmap.mmap(-1, _ALIGN + self.nbytes, flags=mmap.MAP_SHARED | mmap.MAP_ANONYMOUS)
        self._used = np.ndarray((), dtype=np.int64, buffer=self._buf)

    def park(self, payload: Any) -> Any:
        dims = payload.dims if isinstance(payload, DenseArray) else None
        data = payload if dims is None else payload.data
        if not isinstance(data, np.ndarray) or data.dtype.kind not in "biufc":
            return payload
        size = -(-data.nbytes // 8) * 8
        with self._lock:
            start = int(self._used)
            if start + size > self.nbytes:
                return payload
            self._used[...] = start + size
        offset = _ALIGN + start
        np.ndarray(data.shape, dtype=data.dtype, buffer=self._buf, offset=offset)[...] = data
        return (offset, data.shape, data.dtype, dims)

    def unpark(self, payload: Any) -> Any:
        # A payload is an array, a Control or None: only a parked one is a tuple.
        if type(payload) is not tuple:
            return payload
        offset, shape, dtype, dims = payload
        data = np.ndarray(shape, dtype=dtype, buffer=self._buf, offset=offset)
        return data if dims is None else DenseArray(data, dims)
