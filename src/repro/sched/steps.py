"""The step-list IR of the Fig 5 schedule.

A schedule is a flat list of these three steps, shared by every rank.
:func:`repro.sched.fig5.fig5_schedule` and
:func:`repro.sched.marginals.pruned_schedule` build one; the rank programs
in :mod:`repro.sched.fig5` interpret it; and
:func:`repro.core.partial.construct_partial_cube_sequential` walks it
without communication.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lattice import Node


@dataclass(frozen=True)
class PLocalAggregate:
    """All holders of ``node`` locally aggregate every child's partial."""

    node: Node
    children: tuple[Node, ...]


@dataclass(frozen=True)
class PFinalize:
    """Reduction groups along ``dim`` combine partials of ``child`` onto leads."""

    child: Node
    dim: int


@dataclass(frozen=True)
class PWriteBack:
    """Holders of ``node`` write their finalized portion to disk.

    With ``discard=True`` the node is freed without being written (used by
    partial materialization for ancestors that were only needed as
    intermediates).
    """

    node: Node
    discard: bool = False


PStep = PLocalAggregate | PFinalize | PWriteBack
