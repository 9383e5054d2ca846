"""Incremental cube maintenance: absorbing new facts without rebuilding.

Warehouses refresh periodically (the retail chain's nightly load).  For
*distributive* measures each new fact is folded, in delta order, into the
cell it projects to in every materialized view ``T`` with the measure's
element-wise operator (``Measure.op``):

    new_aggregate[T][cell] = op(old_aggregate[T][cell], fact)

No delta cube is built: the cost is O(views x delta facts).  This works for
SUM/COUNT/MIN/MAX inserts (and for SUM retractions encoded as negative
values); it cannot retract facts under MIN/MAX or COUNT -- those need
recomputation, which :func:`refresh_full` provides.

A *partially* materialized cube folds the delta into its stored views only,
so maintenance cost scales with what is stored, not with `2^n`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays.measures import get_measure
from repro.arrays.sparse import SparseArray
from repro.cluster.machine import MachineModel
from repro.olap.cube import DataCube


def merge_sparse(
    a: SparseArray, b: SparseArray, chunk_shape=None
) -> SparseArray:
    """Union of two sparse fact arrays (coinciding cells summed, ``a`` first).

    With ``chunk_shape`` both are re-ingested onto that grid.  Otherwise only
    ``b`` is encoded, onto ``a``'s chunk grid: chunks ``b`` misses are
    shared, touched ones merge two sorted offset runs (``a`` is not decoded).
    An ``a`` off a balanced grid is re-ingested as one chunk.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if chunk_shape is None:
        # The largest extent per axis reproduces a balanced grid's blocks.
        grid = np.max([c.shape for c in a.chunks] or [a.shape], axis=0).tolist()
        fresh = SparseArray.from_coords(a.shape, *b.all_coords_values(), chunk_shape=grid)
        onto = {(c.origin, c.shape): c for c in fresh.chunks}
        if sorted((c.origin, c.shape) for c in a.chunks) == sorted(onto):
            merged = [c.materialized().merged(onto[c.origin, c.shape]) for c in a.chunks]
            return SparseArray(a.shape, merged)
        chunk_shape = a.shape
    coords, values = (
        np.concatenate(pair) for pair in zip(a.all_coords_values(), b.all_coords_values())
    )
    return SparseArray.from_coords(a.shape, coords, values, chunk_shape=chunk_shape)


@dataclass
class MaintenanceStats:
    """What one incremental refresh did."""

    facts_absorbed: int
    nodes_updated: int


def apply_delta(
    cube: DataCube,
    delta: SparseArray,
    update_base: bool = True,
) -> MaintenanceStats:
    """Absorb ``delta`` facts into a materialized cube, in place.

    Decodes the delta once for the fold and folds its facts into each of
    the cube's views with ``measure.op.at`` (see the module docstring).  The update
    lands in the views' own arrays whatever their strides, so views of a
    thread build's shared mapping see it.  Raises for empty deltas, shape
    mismatches, and base updates of a dense base.
    """
    measure = get_measure(cube.measure_name)
    if tuple(delta.shape) != cube.schema.shape:
        raise ValueError(
            f"delta shape {tuple(delta.shape)} != schema shape {cube.schema.shape}"
        )
    if delta.nnz == 0:
        raise ValueError("empty delta; nothing to absorb")
    update_base = update_base and cube.base is not None
    if update_base and not isinstance(cube.base, SparseArray):
        raise ValueError("base updates require a sparse base array; rebuild instead")
    coords, values = delta.all_coords_values()
    if measure.transform_values is not None:
        values = measure.transform_values(values)
    # All or nothing: a writable view of its cuboid's shape takes every delta
    # cell, so past these checks no fold fails and a retry folds once.
    base = merge_sparse(cube.base, delta) if update_base else cube.base
    for node, view in cube.aggregates.items():
        data = view.data
        if not data.flags.writeable or data.shape != tuple([delta.shape[d] for d in node]):
            raise ValueError(f"view {node} is read-only or not of its cuboid's shape")
    for node, view in cube.aggregates.items():
        data, cells = view.data, tuple(coords.T[list(node)])
        if data.flags.c_contiguous:  # reshape is a view, the 0-d total's too
            flat = np.ravel_multi_index(cells, data.shape) if node else np.zeros(len(values), int)
            measure.op.at(data.reshape(-1), flat, values)
        else:
            measure.op.at(data, cells, values)
    cube.base = base
    cube.refreshes += 1  # committed: a listener's error below must not re-fold it
    cube.notify_refresh()
    return MaintenanceStats(facts_absorbed=delta.nnz, nodes_updated=len(cube.aggregates))


def refresh_full(
    cube: DataCube,
    machine: MachineModel | None = None,
) -> DataCube:
    """Rebuild the cube from its (updated) base facts.

    The fallback for non-incrementable changes (retractions under
    MIN/MAX/COUNT).  Returns a new cube with the same schema, plan
    processor count, measure, and view set.
    """
    if cube.base is None:
        raise ValueError("no base facts kept; cannot rebuild")
    n = len(cube.schema.dimensions)
    views = list(cube.aggregates)
    full = len(views) == 2 ** n - 1
    if full:
        return DataCube.build(
            cube.schema,
            cube.base,
            num_processors=cube.plan.num_processors,
            machine=machine,
            measure=cube.measure_name,
        )
    return DataCube.build_partial(
        cube.schema,
        cube.base,
        views=views,
        num_processors=cube.plan.num_processors,
        machine=machine,
        measure=cube.measure_name,
    )
