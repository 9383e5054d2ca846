"""Core algorithms: the paper's contribution.

- :mod:`repro.core.lattice` -- the data-cube lattice (Def 1) and minimal
  parents (section 2).
- :mod:`repro.core.prefix_tree` -- the prefix tree (Def 2).
- :mod:`repro.core.aggregation_tree` -- the aggregation tree (Def 3) and the
  right-to-left depth-first schedule (Fig 3 / Fig 5): the one step IR and
  the one linearizer, ``tree_schedule``.
- :mod:`repro.core.spanning_tree` -- generic spanning trees of the lattice
  and a memory simulator for Theorems 1/2 comparisons.
- :mod:`repro.core.comm_model` -- closed-form communication volume
  (Lemma 1, Theorem 3).
- :mod:`repro.core.memory_model` -- memory bounds (Theorems 1, 2, 4, 5).
- :mod:`repro.core.ordering` -- dimension-ordering optimality (Theorems 6, 7).
- :mod:`repro.core.partition` -- the greedy partitioning algorithm
  (Fig 6, Theorem 8).
- :mod:`repro.core.sequential` -- sequential cube construction (Fig 3).
- :mod:`repro.core.parallel` -- parallel cube construction (Fig 5): the
  host side, on any execution backend.
- :mod:`repro.core.plan` -- end-to-end planner tying ordering + partitioning
  + tree together for arbitrary (unsorted) user dimensions.
"""

from repro.core.lattice import (
    all_nodes,
    full_node,
    node_complement,
    node_size,
    lattice_parents,
    lattice_children,
    minimal_parent,
    minimal_parents,
    CubeLattice,
)
from repro.core.prefix_tree import PrefixTree, prefix_children, prefix_parent
from repro.core.aggregation_tree import (
    AggregationTree,
    ScheduleStep,
    ComputeChildren,
    Finalize,
    WriteBack,
    tree_schedule,
)
from repro.core.spanning_tree import (
    SpanningTree,
    minimal_parent_tree,
    left_deep_tree,
    simulate_schedule_memory,
    tree_computation_cost,
)
from repro.core.comm_model import (
    comm_coefficient,
    edge_comm_volume,
    total_comm_volume,
    total_comm_volume_by_edges,
    tree_comm_volume,
)
from repro.core.memory_model import (
    sequential_memory_bound,
    sequential_memory_lower_bound,
    parallel_memory_bound,
    parallel_memory_bound_exact,
)
from repro.core.ordering import (
    canonical_order,
    apply_order,
    invert_order,
    is_sorted_nonincreasing,
    ordering_uses_minimal_parents,
    best_order_bruteforce,
)
from repro.core.partition import (
    greedy_partition,
    enumerate_partitions,
    bruteforce_partition,
    partition_comm_volume,
    describe_partition,
)
from repro.core.config import BuildConfig
from repro.core.sequential import construct_cube_sequential, SequentialResult
from repro.core.parallel import construct_cube_parallel, ParallelResult
from repro.core.partial import partial_comm_volume, required_closure
from repro.core.plan import CubePlan, plan_cube

__all__ = [
    "all_nodes",
    "full_node",
    "node_complement",
    "node_size",
    "lattice_parents",
    "lattice_children",
    "minimal_parent",
    "minimal_parents",
    "CubeLattice",
    "PrefixTree",
    "prefix_children",
    "prefix_parent",
    "AggregationTree",
    "ScheduleStep",
    "ComputeChildren",
    "Finalize",
    "WriteBack",
    "tree_schedule",
    "SpanningTree",
    "minimal_parent_tree",
    "left_deep_tree",
    "simulate_schedule_memory",
    "tree_computation_cost",
    "comm_coefficient",
    "edge_comm_volume",
    "total_comm_volume",
    "total_comm_volume_by_edges",
    "tree_comm_volume",
    "sequential_memory_bound",
    "sequential_memory_lower_bound",
    "parallel_memory_bound",
    "parallel_memory_bound_exact",
    "canonical_order",
    "apply_order",
    "invert_order",
    "is_sorted_nonincreasing",
    "ordering_uses_minimal_parents",
    "best_order_bruteforce",
    "greedy_partition",
    "enumerate_partitions",
    "bruteforce_partition",
    "partition_comm_volume",
    "describe_partition",
    "BuildConfig",
    "construct_cube_sequential",
    "SequentialResult",
    "construct_cube_parallel",
    "ParallelResult",
    "partial_comm_volume",
    "required_closure",
    "CubePlan",
    "plan_cube",
]
