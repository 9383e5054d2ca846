"""Property-based tests for the OLAP layer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.dataset import random_sparse
from repro.arrays.sparse import SparseArray
from repro.core.lattice import all_nodes
from repro.olap import (
    DataCube,
    Dimension,
    GroupByQuery,
    Hierarchy,
    QueryEngine,
    Schema,
    apply_delta,
)
from repro.olap.granularity import GranularityEngine
from repro.olap.maintenance import merge_sparse


@st.composite
def schemas(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    dims = []
    for i in range(n):
        size = draw(st.integers(min_value=2, max_value=8))
        hierarchies = ()
        if draw(st.booleans()) and size >= 2:
            groups = draw(st.integers(min_value=1, max_value=size))
            mapping = tuple(
                draw(st.integers(min_value=0, max_value=groups - 1))
                for _ in range(size)
            )
            labels = tuple(f"g{k}" for k in range(groups))
            hierarchies = (Hierarchy("h", mapping, labels),)
        dims.append(Dimension(f"d{i}", size, hierarchies=hierarchies))
    return Schema(tuple(dims))


@given(schema=schemas(), seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_query_engine_matches_dense_recomputation(schema, seed):
    data = random_sparse(schema.shape, 0.4, seed=seed)
    cube = DataCube.build(schema, data)
    dense = data.to_dense()
    eng = QueryEngine(cube)
    n = len(schema.dimensions)
    # Every single-dimension group-by.
    for d in range(n):
        ans = eng.execute(GroupByQuery(group_by=(schema.names[d],)))
        drop = tuple(i for i in range(n) if i != d)
        assert np.allclose(ans.values, dense.sum(axis=drop))
    # Grand total.
    assert np.isclose(eng.execute(GroupByQuery()).values, dense.sum())


@given(schema=schemas(), seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_rollup_views_preserve_total(schema, seed):
    data = random_sparse(schema.shape, 0.4, seed=seed)
    cube = DataCube.build(schema, data)
    eng = GranularityEngine(cube)
    total = data.to_dense().sum()
    for dim in schema.dimensions:
        for h in dim.hierarchies:
            view = eng.view({dim.name: h.name})
            assert np.isclose(view.sum(), total)
            # Each group equals the sum of its members' base values.
            base = cube.group_by(dim.name).data
            for g in range(h.num_groups):
                members = [m for m, grp in enumerate(h.mapping) if grp == g]
                assert np.isclose(view[g], base[members].sum())


@given(schema=schemas(), seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_delta_commutes_with_merge(schema, seed):
    """fold(old cube, delta facts) == rebuild(merged facts), for every
    measure on the full cube and on a partial view set.  The SUM delta may
    hit the base's cells (the merge sums them); the MIN / MAX / COUNT delta
    avoids them, since a coinciding cell merges into one summed fact, which
    those measures would see as one fact, not two."""
    base = random_sparse(schema.shape, 0.3, seed=seed)
    fresh = random_sparse(schema.shape, 0.2, seed=seed + 1000)
    disjoint = SparseArray.from_dense(
        np.where(base.to_dense() != 0, 0.0, fresh.to_dense())
    )
    n = len(schema.dimensions)
    partial_views = [node for node in all_nodes(n) if len(node) < n][seed % 3 :: 3]
    for measure in ("sum", "count", "min", "max"):
        delta = fresh if measure == "sum" else disjoint
        if delta.nnz == 0:
            continue
        merged = merge_sparse(base, delta)
        for views in (None, partial_views):
            if views is None:
                incremental = DataCube.build(schema, base, measure=measure)
                rebuilt = DataCube.build(schema, merged, measure=measure)
            else:
                incremental = DataCube.build_partial(
                    schema, base, views=views, measure=measure
                )
                rebuilt = DataCube.build_partial(
                    schema, merged, views=views, measure=measure
                )
            apply_delta(incremental, delta)
            assert set(incremental.aggregates) == set(rebuilt.aggregates)
            for node in rebuilt.aggregates:
                assert np.allclose(
                    incremental.aggregates[node].data, rebuilt.aggregates[node].data
                ), (measure, views, node)
