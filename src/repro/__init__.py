"""repro: communication and memory optimal parallel data cube construction.

A full reproduction of Jin, Yang, Vaidyanathan & Agrawal,
*"Communication and Memory Optimal Parallel Data Cube Construction"*
(ICPP 2003): the aggregation tree, the memory bounds (Theorems 1-5), the
closed-form communication volume (Lemma 1 / Theorem 3), the ordering
optimality results (Theorems 6-7), the greedy partitioning algorithm
(Fig 6 / Theorem 8), sequential (Fig 3) and parallel (Fig 5) constructors,
and the substrates they need: a chunk-offset sparse array format and a
deterministic distributed-memory cluster simulator.

On top of the construction algorithms sits the warehouse stack: named
schemas and materialized cubes (:mod:`repro.olap`) and a high-throughput
serving layer with result caching and batched execution
(:mod:`repro.serve`).  Construction runs on a pluggable execution
backend (:mod:`repro.exec`): ``"sim"`` interprets the rank programs on
the deterministic cluster simulator, ``"process"`` runs them on real OS
processes over shared memory, and ``"thread"`` on GIL-releasing threads
with a persistent worker pool -- all producing bit-identical aggregates.
The *planner* half of a build is pluggable too (:mod:`repro.sched`):
``"fig5"`` runs the paper's communication/memory-optimal schedule,
``"shuffle"`` the MapReduce-style batch shuffle, and ``"marginals-<k>"``
materializes only the order-``k`` group-bys -- any scheduler on any
backend, selected with ``scheduler=`` anywhere a build starts.
Every layer reports through one telemetry subsystem (:mod:`repro.obs`):
hierarchical spans, a metrics registry, and Chrome-trace/Perfetto export
(``trace=True`` / ``trace_out=`` on a build, ``metrics=`` on a service).

Quickstart (construction)::

    import repro
    data = repro.random_sparse((16, 12, 8, 8), sparsity=0.25, seed=1)
    plan = repro.plan_cube(data.shape, num_processors=8)
    run = plan.run_parallel(data)
    ab = run.results[(0, 1)]            # the aggregate over dims 2 and 3
    print(run.simulated_time_s, run.comm_volume_elements)

Quickstart (serving)::

    schema = repro.Schema.simple(item=16, branch=12, time=8)
    cube = repro.DataCube.build(schema, data)
    service = repro.CubeService(cube)
    r = service.execute(repro.GroupByQuery(group_by=("item",)))
    print(r.values, r.served_by, r.cells_scanned)
"""

from repro.arrays import (
    DenseArray,
    SparseArray,
    random_dense,
    random_sparse,
    zipf_sparse,
)
from repro.cluster import MachineModel, ProcessorGrid
from repro.core import (
    AggregationTree,
    BuildConfig,
    CubeLattice,
    CubePlan,
    PrefixTree,
    construct_cube_parallel,
    construct_cube_sequential,
    greedy_partition,
    plan_cube,
    sequential_memory_bound,
    total_comm_volume,
)
from repro.core.sequential import cube_reference, verify_cube
from repro.exec import (
    Backend,
    ProcessBackend,
    SimBackend,
    ThreadBackend,
    WorkerPool,
    available_backends,
    get_backend,
)
from repro.registry import Registry
from repro.obs import (
    MetricsRegistry,
    Tracer,
    load_run,
    summarize_run,
    write_chrome_trace,
)
from repro.olap import (
    DataCube,
    Dimension,
    GroupByQuery,
    QueryEngine,
    QueryResult,
    Schema,
)
from repro.sched import (
    Scheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
)
from repro.serve import CubeService, ServiceStats


def _version() -> str:
    """Resolve the package version with ``pyproject.toml`` as the source.

    A source checkout (the tests run with ``PYTHONPATH=src``) parses the
    adjacent ``pyproject.toml`` -- it outranks any installed distribution's
    metadata, which can lag the tree.  Installed copies without the source
    tree read the distribution metadata; anything else gets the literal
    matching the last release.
    """
    from pathlib import Path

    pyproject = Path(__file__).resolve().parent.parent.parent / "pyproject.toml"
    try:
        import tomllib

        with pyproject.open("rb") as fh:
            return str(tomllib.load(fh)["project"]["version"])
    except Exception:
        pass
    try:
        import re

        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
        if match:
            return match.group(1)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return "6.0.2"


__version__ = _version()

__all__ = [
    "DenseArray",
    "SparseArray",
    "random_dense",
    "random_sparse",
    "zipf_sparse",
    "MachineModel",
    "ProcessorGrid",
    "AggregationTree",
    "BuildConfig",
    "CubeLattice",
    "CubePlan",
    "PrefixTree",
    "construct_cube_parallel",
    "construct_cube_sequential",
    "greedy_partition",
    "plan_cube",
    "sequential_memory_bound",
    "total_comm_volume",
    "cube_reference",
    "verify_cube",
    "Backend",
    "ProcessBackend",
    "SimBackend",
    "ThreadBackend",
    "WorkerPool",
    "Registry",
    "available_backends",
    "get_backend",
    "Scheduler",
    "available_schedulers",
    "get_scheduler",
    "register_scheduler",
    "MetricsRegistry",
    "Tracer",
    "load_run",
    "summarize_run",
    "write_chrome_trace",
    "DataCube",
    "Dimension",
    "GroupByQuery",
    "QueryEngine",
    "QueryResult",
    "Schema",
    "CubeService",
    "ServiceStats",
    "__version__",
]
