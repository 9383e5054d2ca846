"""Baselines the paper compares against (or that motivate its choices).

- :mod:`repro.baselines.level_sync` -- the prior work's level-by-level
  parallel algorithm (Goil & Choudhary style): correct, same volume under
  the canonical ordering, but barriers per level and two whole levels held
  in memory.
- :mod:`repro.baselines.naive_parallel` -- every aggregate computed
  directly from the initial array and reduced independently (no spanning
  tree, no reuse): the strawman that motivates minimal parents and the
  aggregation tree.
- :mod:`repro.baselines.partitions` -- the partitioning choices of the
  paper's experiments (1-d / 2-d / 3-d / 4-d partitions of Figures 7-9),
  plus sweep helpers.
- :mod:`repro.baselines.trees` -- alternative spanning trees: the
  minimal-parent tree under arbitrary orderings and the left-deep
  (memory-hostile) tree, runnable through the parallel constructor.
"""

from repro.baselines.level_sync import (
    construct_cube_level_sync,
    level_sync_comm_volume,
)
from repro.baselines.naive_parallel import (
    construct_cube_naive_parallel,
    naive_comm_volume,
)
from repro.baselines.partitions import (
    all_partition_choices,
    partition_sweep,
    paper_partition_options,
)
from repro.baselines.trees import (
    run_with_tree,
    tree_choices,
)

__all__ = [
    "construct_cube_level_sync",
    "level_sync_comm_volume",
    "construct_cube_naive_parallel",
    "naive_comm_volume",
    "all_partition_choices",
    "partition_sweep",
    "paper_partition_options",
    "run_with_tree",
    "tree_choices",
]
