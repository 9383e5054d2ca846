"""Distributed-memory cluster simulator.

This substrate replaces the paper's 16-node Sun/Myrinet cluster.  Virtual
processors execute SPMD programs written as Python generators; every
message's bytes are accounted exactly; per-rank clocks advance according to
a configurable machine cost model (compute rate, network latency/bandwidth,
disk bandwidth).  The paper's claims concern communication *volume*, memory
*bounds*, and the *relative* performance of partitioning choices -- all of
which a deterministic simulator measures directly.

- :mod:`repro.cluster.machine` -- the cost model (Hockney-style network,
  per-element compute, disk).
- :mod:`repro.cluster.topology` -- processor labels over a ``2**k`` grid
  (paper, section 4): per-dimension bit labels, lead processors, reduction
  groups.
- :mod:`repro.cluster.network` -- message transport with byte accounting.
- :mod:`repro.cluster.runtime` -- the deterministic SPMD scheduler.
- :mod:`repro.cluster.collectives` -- reduce-to-lead (flat, binomial,
  chunked, reliable) built on point-to-point sends.
- :mod:`repro.cluster.metrics` -- the run record and its one builder.
- :mod:`repro.cluster.faults` -- deterministic fault injection
  (crashes, drops/duplications, NIC degradation, stragglers).
"""

from repro.cluster.machine import MachineModel
from repro.cluster.topology import ProcessorGrid
from repro.cluster.network import Network, Message, Control
from repro.cluster.runtime import (
    RankEnv,
    TimeoutPolicy,
    SIMULATED_TIMEOUTS,
    MONOTONIC_TIMEOUTS,
    run_spmd,
    DeadlockError,
    RECV_TIMEOUT,
)
from repro.cluster.faults import FaultPlan, FaultStats
from repro.cluster.metrics import RunMetrics, CommStats
from repro.cluster import collectives

__all__ = [
    "MachineModel",
    "ProcessorGrid",
    "Network",
    "Message",
    "Control",
    "RankEnv",
    "TimeoutPolicy",
    "SIMULATED_TIMEOUTS",
    "MONOTONIC_TIMEOUTS",
    "run_spmd",
    "DeadlockError",
    "RECV_TIMEOUT",
    "FaultPlan",
    "FaultStats",
    "RunMetrics",
    "CommStats",
    "collectives",
]
