"""Multi-granularity views: roll-up navigation over hierarchies.

OLAP sessions move between granularities -- sales by *day* roll up to
*month*, branches to *regions* -- without touching the base data.  A
*grain* assigns each mentioned dimension either its base granularity or one
of its named hierarchies; the corresponding view derives from the
group-by over the same dimensions, answered by
:class:`~repro.olap.query.QueryEngine`, by folding each hierarchical axis
with its mapping.  Derived views are cached: a dashboard flipping between
month/quarter/year pays each roll-up once.

This composes with everything else: partial cubes (the group-by comes from
the query engine's best cover, or the base), measures (roll-ups fold with
the cube measure's combine -- MIN of months is the MIN of their days), and
maintenance (a view cached before a refresh is never served after it).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.arrays.measures import Measure
from repro.olap.cube import DataCube
from repro.olap.query import GroupByQuery, QueryEngine
from repro.olap.schema import Hierarchy


def fold_axis(data: np.ndarray, axis: int, hierarchy: Hierarchy, measure: Measure) -> np.ndarray:
    """Roll ``axis`` of ``data`` into ``hierarchy``'s groups with the
    measure's combine (SUM and COUNT add, MIN and MAX keep the extreme).

    Works on a 2-d (member, rest) layout so each ``out[group]`` row is a
    writable view for the measure's in-place combine.
    """
    if data.shape[axis] != len(hierarchy.mapping):
        raise ValueError(
            f"axis length {data.shape[axis]} != hierarchy size {len(hierarchy.mapping)}"
        )
    moved = np.moveaxis(data, axis, 0)
    tail = moved.shape[1:]
    flat = np.ascontiguousarray(moved).reshape(moved.shape[0], -1)
    out = np.full((hierarchy.num_groups, flat.shape[1]), measure.identity, dtype=np.float64)
    for member, group in enumerate(hierarchy.mapping):
        measure.combine(out[group], flat[member])
    return np.moveaxis(out.reshape((hierarchy.num_groups,) + tail), 0, axis)


class GranularityEngine:
    """Derives and caches grain views over a :class:`DataCube`.

    A grain is ``{dimension_name: hierarchy_name | None}``; dimensions not
    mentioned are aggregated away entirely (as in an ordinary group-by).
    """

    def __init__(self, cube: DataCube):
        self.cube = cube
        self._engine = QueryEngine(cube)
        #: grain key -> (``cube.refreshes`` read before deriving, view).
        self._cache: dict[tuple, tuple[int, np.ndarray]] = {}
        self.derivations = 0  # cache misses, for tests/diagnostics

    # -- core ---------------------------------------------------------------------

    def _grain_key(self, grain: Mapping[str, str | None]) -> tuple:
        return tuple(
            (name, grain[name])
            for name in sorted(grain, key=self.cube.schema.index)
        )

    def view(self, grain: Mapping[str, str | None]) -> np.ndarray:
        """The aggregate at ``grain``; axes follow schema dimension order.

        ``grain={"week": "month", "branch": None}`` returns month x branch;
        ``{}`` the grand total.  A view cached before the cube's last
        refresh is derived again.
        """
        schema = self.cube.schema
        key = self._grain_key(grain)
        tag = self.cube.refreshes
        hit = self._cache.get(key)
        if hit is not None and hit[0] == tag:
            return hit[1]
        names = tuple(name for name, _lvl in key)
        answer = self._engine.execute(GroupByQuery(group_by=names))
        data = np.asarray(answer.values, dtype=np.float64)
        for axis, (name, level) in enumerate(key):
            if level is not None:
                h = schema.dimension(name).hierarchy(level)
                data = fold_axis(data, axis, h, self._engine.measure)
        self._cache[key] = (tag, data)
        self.derivations += 1
        return data

    # -- navigation -----------------------------------------------------------------

    def roll_up(
        self, grain: Mapping[str, str | None], name: str, level: str
    ) -> dict[str, str | None]:
        """New grain with ``name`` coarsened to ``level`` (validated)."""
        self.cube.schema.dimension(name).hierarchy(level)  # must exist
        if name not in grain:
            raise KeyError(f"dimension {name!r} not in the current grain")
        out = dict(grain)
        out[name] = level
        return out

    def drill_down(
        self, grain: Mapping[str, str | None], name: str
    ) -> dict[str, str | None]:
        """New grain with ``name`` back at base granularity."""
        if name not in grain:
            raise KeyError(f"dimension {name!r} not in the current grain")
        out = dict(grain)
        out[name] = None
        return out

    def labels(self, grain: Mapping[str, str | None]) -> dict[str, Sequence[str]]:
        """Axis labels of a grain view (hierarchy group names or members)."""
        schema = self.cube.schema
        out: dict[str, Sequence[str]] = {}
        for name, level in self._grain_key(grain):
            dim = schema.dimension(name)
            if level is None:
                out[name] = tuple(dim.label_of(i) for i in range(dim.size))
            else:
                out[name] = dim.hierarchy(level).group_labels
        return out

    def invalidate(self) -> None:
        """Drop every cached view (a refresh already retires the stale ones)."""
        self._cache.clear()
