"""The deterministic simulator wrapped as an execution backend."""

from __future__ import annotations

from typing import Sequence

from repro.cluster.faults import ALL_FAULT_KINDS, FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import RunMetrics
from repro.cluster.runtime import SIMULATED_TIMEOUTS, TimeoutPolicy, run_spmd
from repro.exec.base import Backend, ProgramFactory
from repro.obs.live import LiveRunView


class SimBackend(Backend):
    """Execute rank programs on the discrete-event simulator.

    A thin adapter over :func:`repro.cluster.runtime.run_spmd`: clocks are
    simulated seconds under the machine cost model, execution is
    deterministic, and the full robustness surface (every fault kind,
    per-rank machine models, heterogeneous studies) is available.
    """

    name = "sim"
    description = (
        "deterministic discrete-event simulator (simulated clocks, full fault surface)"
    )
    supports_machines = True
    fault_capabilities = ALL_FAULT_KINDS

    @property
    def timeouts(self) -> TimeoutPolicy:
        """Simulated-clock windows, used verbatim."""
        return SIMULATED_TIMEOUTS

    def spawn_ranks(
        self,
        num_ranks: int,
        program_factory: ProgramFactory,
        *,
        machine: MachineModel | None = None,
        record_trace: bool = False,
        machines: Sequence[MachineModel] | None = None,
        faults: FaultPlan | None = None,
        live: LiveRunView | None = None,
    ) -> RunMetrics:
        """Run the program under :func:`run_spmd`; see the backend protocol.

        The simulator runs in virtual time inside one call, so there is no
        in-flight state to sample: a ``live`` view is attached and marked
        finished, but receives no snapshots.
        """
        if live is not None:
            live.attach(num_ranks, self.name)
        metrics = run_spmd(
            num_ranks,
            program_factory,
            machine=machine,
            record_trace=record_trace,
            machines=list(machines) if machines is not None else None,
            faults=faults,
            timeouts=self.timeouts,
        )
        metrics.backend = self.name
        if live is not None:
            live.finish()
        return metrics
