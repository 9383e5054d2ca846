"""The materialized data cube with named-dimension access.

:class:`DataCube` ties a :class:`repro.olap.schema.Schema` to the
constructors: ``DataCube.build`` plans (optimal ordering + partitioning),
constructs every group-by -- sequentially or on an execution backend --
and exposes them by dimension *names*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray
from repro.cluster.machine import MachineModel
from repro.core.lattice import Node
from repro.core.plan import CubePlan, plan_cube
from repro.olap.schema import Schema
from repro.sched import Fig5Scheduler


@dataclass
class DataCube:
    """All ``2**n - 1`` materialized aggregates of a fact array."""

    schema: Schema
    plan: CubePlan
    aggregates: dict[Node, DenseArray]
    base: SparseArray | DenseArray | None = None
    build_stats: object | None = None
    measure_name: str = "sum"
    refresh_listeners: list[Callable[[], None]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: In-place refreshes committed so far (bumped before listeners run).
    refreshes: int = field(default=0, repr=False, compare=False)

    # -- construction ----------------------------------------------------------------

    @classmethod
    def build(
        cls,
        schema: Schema,
        data: SparseArray | DenseArray | np.ndarray,
        num_processors: int = 1,
        machine: MachineModel | None = None,
        keep_base: bool = True,
        measure: Measure | str = SUM,
        backend: str = "sim",
        scheduler: str | object = "fig5",
    ) -> "DataCube":
        """Plan and construct the cube.

        ``num_processors == 1`` runs the sequential Fig 3 algorithm;
        otherwise the parallel algorithm on the selected execution
        backend (``"sim"``: the deterministic simulator; ``"process"``:
        real OS processes -- bit-identical aggregates either way).
        ``scheduler`` picks the construction planner (see
        :mod:`repro.sched`): ``"fig5"`` (default) materializes the full
        cube with the paper's schedule, ``"shuffle"`` via a MapReduce-style
        batch shuffle, and ``"marginals-<k>"`` only the order-``k``
        group-bys -- queries over unmaterialized group-bys are still
        answered from the nearest materialized ancestor (or the base
        array) by :class:`repro.olap.query.QueryEngine`.
        ``measure`` is any distributive measure (default SUM).
        """
        if tuple(data.shape) != schema.shape:
            raise ValueError(
                f"data shape {tuple(data.shape)} != schema shape {schema.shape}"
            )
        measure = get_measure(measure)
        plan = plan_cube(
            schema.shape, num_processors=num_processors, scheduler=scheduler
        )
        if num_processors == 1:
            run = plan.run_sequential(data, measure, targets=plan.target_nodes)
            aggregates = run.results
        else:
            run = plan.run_parallel(
                data, machine=machine, measure=measure, backend=backend
            )
            assert run.results is not None
            aggregates = run.results
        base = data if keep_base else None
        if isinstance(base, np.ndarray):
            base = DenseArray.full_cube_input(base)
        return cls(
            schema=schema,
            plan=plan,
            aggregates=aggregates,
            base=base,
            build_stats=run,
            measure_name=measure.name,
        )

    @classmethod
    def build_partial(
        cls,
        schema: Schema,
        data: SparseArray | DenseArray | np.ndarray,
        views: Sequence[Sequence[str]] | Sequence[Node],
        num_processors: int = 1,
        machine: MachineModel | None = None,
        keep_base: bool = True,
        measure: Measure | str = SUM,
    ) -> "DataCube":
        """Materialize only the named ``views`` (plus transient ancestors).

        ``views`` may be dimension-name lists (``[["item", "branch"],
        ["item"]]``) or node tuples.  Queries over unmaterialized group-bys
        are answered from the smallest materialized cover, or the base
        array as a last resort (see :class:`repro.olap.query.QueryEngine`).
        """
        if tuple(data.shape) != schema.shape:
            raise ValueError(
                f"data shape {tuple(data.shape)} != schema shape {schema.shape}"
            )
        targets = []
        for v in views:
            v = tuple(v)
            if v and isinstance(v[0], str):
                targets.append(schema.node_of(v))
            else:
                targets.append(v)
        measure = get_measure(measure)
        plan = plan_cube(schema.shape, num_processors=num_processors)
        if num_processors == 1:
            run = plan.run_sequential(data, measure, targets=targets)
        else:
            pruned = Fig5Scheduler(targets=[plan.to_plan_node(t) for t in targets])
            run = plan.run_parallel(data, scheduler=pruned, machine=machine, measure=measure)
        base = data if keep_base else None
        if isinstance(base, np.ndarray):
            base = DenseArray.full_cube_input(base)
        return cls(
            schema=schema,
            plan=plan,
            aggregates=run.results,
            base=base,
            build_stats=run,
            measure_name=measure.name,
        )

    # -- refresh notification ----------------------------------------------------------

    def subscribe_refresh(self, listener: Callable[[], object]) -> None:
        """Register a zero-arg callable invoked after every in-place refresh.

        :func:`repro.olap.maintenance.apply_delta` calls
        :meth:`notify_refresh` once the aggregates have been updated;
        caching layers (:class:`repro.serve.CubeService`) subscribe to
        invalidate stale results.  A listener that returns ``False`` is
        unsubscribed (the convention weakref-backed listeners use to
        signal their referent is gone, so a forgotten service never keeps
        the cube pinging a corpse).
        """
        self.refresh_listeners.append(listener)

    def notify_refresh(self) -> None:
        """Invoke every refresh listener, dropping any that return False.

        Every listener runs even when one raises; the first error is re-raised.
        """
        errors: list[Exception] = []
        for listener in list(self.refresh_listeners):
            try:
                if listener() is False:
                    self.refresh_listeners.remove(listener)
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    # -- access ------------------------------------------------------------------------

    def node_for(self, names: Sequence[str]) -> Node:
        return self.schema.node_of(names)

    def group_by(self, *names: str) -> DenseArray:
        """The aggregate over all dimensions *not* named.

        ``cube.group_by("item", "branch")`` returns the item x branch
        array (axes ordered by the schema's dimension order).
        """
        node = self.node_for(names)
        if len(node) == len(self.schema.dimensions):
            raise KeyError(
                "the full group-by is the base array; ask for fewer dimensions"
            )
        return self._view(node)

    def _view(self, node: Node) -> DenseArray:
        """The materialized view ``node`` itself, or else the group-by over
        it answered by :class:`repro.olap.query.QueryEngine` (from the
        smallest materialized cover, or the base)."""
        if node in self.aggregates:
            return self.aggregates[node]
        from repro.olap.query import GroupByQuery, QueryEngine  # imports this module

        query = GroupByQuery(group_by=self.schema.names_of(node))
        return DenseArray(np.asarray(QueryEngine(self).execute(query).values), node)

    @property
    def grand_total(self) -> float:
        """The scalar ``all`` aggregate."""
        return float(self._view(()).data)

    def value(self, **coords: int | str) -> float:
        """Point lookup on the group-by over the named dimensions.

        Coordinates may be member indices or labels:
        ``cube.value(item=3, branch="oslo")``.
        """
        names = sorted(coords, key=self.schema.index)
        node = self.node_for(names)
        if len(node) == len(self.schema.dimensions):
            raise KeyError("point lookups on the base array go through .base")
        arr = self._view(node)
        idx = []
        for name in names:
            dim = self.schema.dimension(name)
            c = coords[name]
            idx.append(dim.index_of(c) if isinstance(c, str) else int(c))
        return float(arr.data[tuple(idx)])

    def slice_sum(self, fixed: Mapping[str, int | str], by: Sequence[str] = ()) -> np.ndarray | float:
        """Sum with some dimensions fixed and others kept.

        ``cube.slice_sum({"branch": 2}, by=["time"])`` -> sales over time at
        branch 2.  Answered from the group-by over ``fixed + by``, which
        :class:`repro.olap.query.QueryEngine` rolls up from its smallest
        materialized cover when it is not materialized itself.
        """
        names = sorted(set(fixed) | set(by), key=self.schema.index)
        node = self.node_for(names)
        arr = self._view(node)
        index: list[object] = []
        for name in names:
            if name in fixed:
                dim = self.schema.dimension(name)
                c = fixed[name]
                index.append(dim.index_of(c) if isinstance(c, str) else int(c))
            else:
                index.append(slice(None))
        out = arr.data[tuple(index)]
        if isinstance(out, np.ndarray) and out.ndim == 0:
            return float(out)
        if isinstance(out, np.ndarray):
            return out
        return float(out)

    def rollup(self, name: str, hierarchy: str, *keep: str) -> np.ndarray:
        """Group-by over ``[name] + keep`` with ``name`` rolled up.

        E.g. ``cube.rollup("time", "month", "branch")`` -> month x branch.
        The rolled-up dimension becomes axis 0.  Folds with the cube's
        measure, and answers a partial cube from its cover or the base
        (:class:`repro.olap.granularity.GranularityEngine`).
        """
        from repro.olap.granularity import GranularityEngine  # imports this module

        grain: dict[str, str | None] = dict.fromkeys(keep)
        grain[name] = hierarchy
        axis = sorted(grain, key=self.schema.index).index(name)
        return np.moveaxis(GranularityEngine(self).view(grain), axis, 0)

    def top_k(self, name: str, k: int = 5) -> list[tuple[str, float]]:
        """Largest members of a 1-d group-by, labelled."""
        arr = self.group_by(name)
        dim = self.schema.dimension(name)
        order = np.argsort(arr.data)[::-1][:k]
        return [(dim.label_of(int(i)), float(arr.data[i])) for i in order]

    def memory_footprint_elements(self) -> int:
        return sum(a.size for a in self.aggregates.values())

    def describe(self) -> str:
        lines = [f"DataCube over {' x '.join(self.schema.names)} {self.schema.shape}"]
        lines.append(f"  plan: {self.plan.describe()}")
        lines.append(f"  aggregates: {len(self.aggregates)}")
        lines.append(f"  total output elements: {self.memory_footprint_elements()}")
        return "\n".join(lines)
