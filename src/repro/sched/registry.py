"""Name-based registry of construction schedulers.

A thin instantiation of the generic :class:`repro.registry.Registry`
(shared with :mod:`repro.exec.registry`): ``get_scheduler("fig5")`` /
``get_scheduler("shuffle")`` return a *fresh* scheduler instance per call,
and third-party schedulers join via :func:`register_scheduler`.  On top of
exact names, the registry understands parameterized *families*:
``get_scheduler("marginals-2")`` and ``get_scheduler("marginals-2-shuffle")``
construct :class:`~repro.sched.marginals.MarginalsScheduler` instances with
the order parsed out of the spec.

Entries carry capability metadata (description, which build options the
scheduler honors) used by ``BuildConfig`` validation errors and rendered
by ``repro-cube sched list`` through the same code path as
``repro-cube backends list``.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping

from repro.registry import Registry
from repro.sched.base import Scheduler
from repro.sched.fig5 import Fig5Scheduler
from repro.sched.marginals import MarginalsScheduler
from repro.sched.shuffle import ShuffleScheduler

#: The scheduler registry (an instance of the one generic Registry).
SCHEDULERS: Registry[Scheduler] = Registry("scheduler")


def register_scheduler(
    name: str,
    factory: Callable[[], Scheduler],
    *,
    metadata: Mapping[str, Any] | None = None,
) -> None:
    """Register ``factory`` under ``name`` (overwrites an existing entry).

    ``factory`` is called with no arguments and must return a fresh
    :class:`~repro.sched.base.Scheduler` each time.
    """
    if not name or not isinstance(name, str):
        raise ValueError("scheduler name must be a non-empty string")
    SCHEDULERS.register(name, factory, metadata=metadata, replace=True)


def register_scheduler_family(
    template: str,
    parser: Callable[[str], Scheduler | None],
    *,
    metadata: Mapping[str, Any] | None = None,
) -> None:
    """Register a parameterized spec family (e.g. ``marginals-<k>``).

    ``parser`` receives the full spec string and returns a scheduler, or
    ``None`` when the spec is not of this family; ``template`` is the
    human-readable form shown in listings and error messages.
    """
    if not template or not isinstance(template, str):
        raise ValueError("scheduler family template must be a non-empty string")
    SCHEDULERS.register_family(template, parser, metadata=metadata, replace=True)


def available_schedulers() -> tuple[str, ...]:
    """Registered scheduler specs (exact names plus family templates), sorted."""
    return tuple(SCHEDULERS.names())


def get_scheduler(spec: str) -> Scheduler:
    """A fresh scheduler for ``spec`` (exact name or parameterized family)."""
    return SCHEDULERS.get(spec)


def scheduler_metadata(spec: str) -> Mapping[str, Any]:
    """Capability metadata of the scheduler governing ``spec``."""
    return SCHEDULERS.metadata_for(spec)


def resolve_scheduler(scheduler: object) -> Scheduler:
    """Normalize a spec string or :class:`Scheduler` instance to an instance."""
    if isinstance(scheduler, Scheduler):
        return scheduler
    if isinstance(scheduler, str):
        return get_scheduler(scheduler)
    raise TypeError(
        "scheduler must be a registered spec string or a Scheduler "
        f"instance, got {type(scheduler).__name__}"
    )


_MARGINALS_RE = re.compile(r"^marginals-(\d+)(-shuffle)?$")


def _parse_marginals(spec: str) -> Scheduler | None:
    m = _MARGINALS_RE.match(spec)
    if m is None:
        return None
    k = int(m.group(1))
    base = "shuffle" if m.group(2) else "fig5"
    return MarginalsScheduler(k, base=base)


register_scheduler(
    "fig5",
    Fig5Scheduler,
    metadata={
        "description": "the paper's Fig 5 SPMD schedule (communication and memory optimal)",
        "options": ("checkpoint", "max_message_elements"),
    },
)
register_scheduler(
    "shuffle",
    ShuffleScheduler,
    metadata={
        "description": "MapReduce-style batch-shuffle materialization (arXiv:1709.10072)",
        "options": (),
    },
)
register_scheduler_family(
    "marginals-<k>[-shuffle]",
    _parse_marginals,
    metadata={
        "description": "only the order-k group-bys (arXiv:1509.08855), fig5 or shuffle planning",
        "options": (),
    },
)
