"""The construction schedulers by name: one fixed table of classes.

``get_scheduler("fig5")`` / ``get_scheduler("shuffle")`` return a *fresh*
scheduler instance per call; ``get_scheduler("marginals-2")`` and
``get_scheduler("marginals-2-shuffle")`` construct
:class:`~repro.sched.marginals.MarginalsScheduler` instances with the order
(and base) parsed out of the spec.  Each class declares its
``description`` (the ``repro-cube sched list`` line) and the build
``options`` it honors.  A custom scheduler plugs in as an instance:
``BuildConfig(scheduler=MyScheduler())``.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.sched.base import Scheduler
from repro.sched.fig5 import Fig5Scheduler
from repro.sched.marginals import MarginalsScheduler
from repro.sched.shuffle import ShuffleScheduler
from repro.util import unknown_name

#: The listed spec of the ``marginals`` family (not itself a spec).
_MARGINALS = "marginals-<k>[-shuffle]"
_MARGINALS_RE = re.compile(r"^marginals-(\d+)(-shuffle)?$")

#: Listed spec -> class, in listing order.
SCHEDULER_CLASSES: Mapping[str, type[Scheduler]] = {
    "fig5": Fig5Scheduler,
    "shuffle": ShuffleScheduler,
    _MARGINALS: MarginalsScheduler,
}


def available_schedulers() -> tuple[str, ...]:
    """Scheduler specs (exact names plus the family template), sorted."""
    return tuple(sorted(SCHEDULER_CLASSES))


def get_scheduler(spec: str) -> Scheduler:
    """A fresh scheduler for ``spec`` (exact name or ``marginals-<k>[-shuffle]``)."""
    m = _MARGINALS_RE.match(spec)
    if m is not None:
        return MarginalsScheduler(int(m.group(1)), base="shuffle" if m.group(2) else "fig5")
    if spec == _MARGINALS or spec not in SCHEDULER_CLASSES:
        exact = [s for s in SCHEDULER_CLASSES if s != _MARGINALS]
        raise unknown_name("scheduler", spec, SCHEDULER_CLASSES, exact)
    return SCHEDULER_CLASSES[spec]()


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
