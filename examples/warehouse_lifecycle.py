#!/usr/bin/env python
"""A warehouse's life: build, persist, query, nightly refresh.

Ties the whole library together the way a deployment would use it:

1. initial load: plan + build the cube on a simulated 8-node cluster;
2. persist cube and facts to .npz; reload in a "new process";
3. serve dashboard queries from the materialized aggregates;
4. nightly delta: absorb a day of new transactions *incrementally*
   (each fact folded into every view -- no rebuild), verify queries see them;
5. compare the incremental refresh cost against a full rebuild.

Run:  python examples/warehouse_lifecycle.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.arrays.dataset import zipf_sparse
from repro.arrays.persist import load_cube, load_sparse, save_cube, save_sparse
from repro.olap import (
    DataCube,
    GroupByQuery,
    QueryEngine,
    Schema,
    apply_delta,
    refresh_full,
)
from repro.util import human_count


def main() -> None:
    schema = Schema.simple(item=128, branch=16, day=32, channel=4)
    workdir = Path(tempfile.mkdtemp(prefix="warehouse_"))
    print(f"workspace: {workdir}")

    # --- 1. initial load ----------------------------------------------------
    facts = zipf_sparse(schema.shape, nnz=40_000, seed=71)
    cube = DataCube.build(schema, facts, num_processors=8)
    stats = cube.build_stats
    print(f"initial build: {len(cube.aggregates)} aggregates, "
          f"{stats.simulated_time_s:.4f} simulated s, "
          f"{human_count(stats.comm_volume_elements)} elements moved")

    # --- 2. persist and reload ----------------------------------------------
    save_sparse(workdir / "facts.npz", facts)
    save_cube(workdir / "cube.npz", cube.aggregates, schema.shape)
    aggs, shape, measure = load_cube(workdir / "cube.npz")
    reloaded = DataCube(
        schema=schema,
        plan=cube.plan,
        aggregates=aggs,
        base=load_sparse(workdir / "facts.npz"),
        measure_name=measure,
    )
    print(f"persisted + reloaded cube ({measure}, shape {shape})")

    # --- 3. serve queries -----------------------------------------------------
    engine = QueryEngine(reloaded)
    q = GroupByQuery(group_by=("branch",), where={"day": (0, 7)})
    week1 = engine.execute(q)
    print(f"week-1 sales by branch (from {week1.served_by}): "
          f"{np.asarray(week1.values).round(1)[:4]} ...")

    # --- 4. nightly delta ------------------------------------------------------
    tonight = zipf_sparse(schema.shape, nnz=1_500, seed=72)
    t0 = time.perf_counter()
    mstats = apply_delta(reloaded, tonight)
    dt_incremental = time.perf_counter() - t0
    print(f"\nnightly refresh: absorbed {mstats.facts_absorbed} facts into "
          f"{mstats.nodes_updated} views in {dt_incremental * 1e3:.1f} ms")
    total = reloaded.grand_total
    expected = facts.to_dense().sum() + tonight.to_dense().sum()
    assert np.isclose(total, expected), "refresh lost facts!"
    print(f"grand total now {total:.1f} (verified against raw facts)")

    # Persist the refreshed state.
    save_sparse(workdir / "facts.npz", reloaded.base)
    save_cube(workdir / "cube.npz", reloaded.aggregates, schema.shape)

    # --- 5. incremental vs full rebuild -----------------------------------------
    t0 = time.perf_counter()
    rebuilt = refresh_full(reloaded)
    dt_rebuild = time.perf_counter() - t0
    for node in rebuilt.aggregates:
        assert np.allclose(
            rebuilt.aggregates[node].data, reloaded.aggregates[node].data
        ), node
    print(f"\nincremental refresh vs full rebuild (host wall clock): "
          f"{dt_incremental * 1e3:.1f} ms vs {dt_rebuild * 1e3:.1f} ms; "
          f"results identical")


if __name__ == "__main__":
    main()
