"""Pluggable construction schedulers: the planner half of a build.

This package separates *what to compute in what order* (the scheduler)
from *how ranks exchange bytes* (the execution backend,
:mod:`repro.exec`).  A :class:`~repro.sched.base.Scheduler` owns cuboid
ordering, reduction-lead routing, and the communication schedule; it emits
an ordinary generator rank-program over the portable op vocabulary, so
every scheduler runs unchanged on every backend.

Three strategies ship, looked up by name (:mod:`repro.sched.registry`):

- ``fig5`` -- the paper's Fig 5 SPMD schedule (communication and memory
  optimal): the rank programs that walk the one step list of
  :func:`repro.core.aggregation_tree.tree_schedule`, over any tree and
  target set (``Fig5Scheduler(targets=..., tree=...)``);
- ``shuffle`` -- MapReduce-style batch-shuffle materialization
  (arXiv:1709.10072);
- ``marginals-<k>`` / ``marginals-<k>-shuffle`` -- only the order-``k``
  group-bys (arXiv:1509.08855), with either base strategy.

Select one with ``BuildConfig(scheduler=...)``,
``plan_cube(..., scheduler=...)``, ``DataCube.build(..., scheduler=...)``,
or ``repro-cube construct --scheduler ...`` -- by spec, or as an instance
(the way a custom scheduler plugs in); compare them with
``repro-cube sched compare``.
"""

from repro.sched.base import ProgramFactory, Scheduler
from repro.sched.fig5 import Fig5Scheduler
from repro.sched.marginals import MarginalsScheduler, order_k_nodes
from repro.sched.registry import available_schedulers, get_scheduler, resolve_scheduler
from repro.sched.shuffle import ShuffleScheduler, shuffle_comm_volume, shuffle_targets

__all__ = [
    "Fig5Scheduler",
    "MarginalsScheduler",
    "ProgramFactory",
    "Scheduler",
    "ShuffleScheduler",
    "available_schedulers",
    "get_scheduler",
    "order_k_nodes",
    "resolve_scheduler",
    "shuffle_comm_volume",
    "shuffle_targets",
]
