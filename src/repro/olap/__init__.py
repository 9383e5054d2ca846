"""OLAP layer: the application the paper motivates.

Data warehouses express facts as a sparse multidimensional array (the
paper's retail example: item x branch x time) and answer *group-by* queries
from precomputed aggregates.  This subpackage wraps the cube constructors
with named dimensions, hierarchies, and a query interface:

- :mod:`repro.olap.schema` -- named dimensions with optional member labels
  and roll-up hierarchies.
- :mod:`repro.olap.cube` -- :class:`DataCube`: build (sequentially or on an
  execution backend) and hold every materialized group-by.
- :mod:`repro.olap.query` -- queries answered from the smallest
  materialized cover (or the base facts).
- :mod:`repro.olap.view_selection` -- HRU greedy selection under a space
  budget.
- :mod:`repro.olap.workload` -- reproducible query-mix generation.
- :mod:`repro.olap.maintenance` -- incremental refresh: delta facts folded into each view.
- :mod:`repro.olap.granularity` -- hierarchy roll-up views with caching.
"""

from repro.olap.schema import Dimension, Hierarchy, Schema
from repro.olap.cube import DataCube
from repro.olap.query import (
    CanonicalQuery,
    GroupByQuery,
    QueryEngine,
    QueryResult,
    canonicalize_query,
)
from repro.olap.granularity import GranularityEngine
from repro.olap.maintenance import (
    MaintenanceStats,
    apply_delta,
    merge_sparse,
    refresh_full,
)
from repro.olap.workload import (
    WorkloadSpec,
    generate_workload,
    workload_node_frequencies,
)
from repro.olap.view_selection import (
    ViewSelection,
    answering_cost,
    closure_views,
    greedy_select_views,
    uniform_workload,
    workload_cost,
)

__all__ = [
    "Dimension",
    "Hierarchy",
    "Schema",
    "DataCube",
    "CanonicalQuery",
    "GroupByQuery",
    "QueryResult",
    "QueryEngine",
    "canonicalize_query",
    "GranularityEngine",
    "MaintenanceStats",
    "apply_delta",
    "merge_sparse",
    "refresh_full",
    "WorkloadSpec",
    "generate_workload",
    "workload_node_frequencies",
    "ViewSelection",
    "answering_cost",
    "closure_views",
    "greedy_select_views",
    "uniform_workload",
    "workload_cost",
]
