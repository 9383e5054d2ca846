"""Block-liveness analysis: static per-rank memory high-water (MC307).

Each rank's stream carries the alloc/free ledger its real program
maintains (one :class:`MAlloc` when a held result materializes, one
:class:`MFree` when it is shipped, written back, or handed off).  Because
every rank frees and allocates only in its own program order -- the
ledger never depends on message timing -- the high-water of the straight-
line scan *is* the high-water of every interleaving, so the static number
must match the simulator's measured ``rank_peak_memory_elements``
bit-exactly (the parity tests pin this for every registered scheduler).

``MC307`` fires when any rank's high-water exceeds the scheduler's
declared memory bound, or the user's explicit ``--mem-cap`` (in bytes;
elements are float64, 8 bytes each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model.ops import MAlloc, MFree, ModelProgram

__all__ = ["BYTES_PER_ELEMENT", "LifetimeResult", "analyze_lifetime"]

#: Held results are float64 blocks.
BYTES_PER_ELEMENT = 8


@dataclass
class LifetimeResult:
    """Static memory profile of one program."""

    #: Per-rank high-water, in elements.
    rank_high_water: tuple[int, ...]
    #: True when the streams carry an alloc/free ledger; False for
    #: programs with none (trace-derived ones), whose high-water is 0.
    from_ledger: bool
    diagnostics: list[Diagnostic]
    #: Keys still live at end-of-stream per rank (empty for clean
    #: programs whose results are written back or shipped).
    leaked: tuple[tuple[Hashable, ...], ...] = ()

    @property
    def max_high_water(self) -> int:
        return max(self.rank_high_water, default=0)

    @property
    def max_high_water_bytes(self) -> int:
        return self.max_high_water * BYTES_PER_ELEMENT


def analyze_lifetime(
    prog: ModelProgram,
    *,
    declared_bound_elements: int | None = None,
    mem_cap_bytes: int | None = None,
) -> LifetimeResult:
    """Scan every rank's ledger and check MC307 against the bounds."""
    diags: list[Diagnostic] = []
    highs: list[int] = []
    leaked: list[tuple[Hashable, ...]] = []
    for rank, stream in enumerate(prog.streams):
        live: dict[Hashable, int] = {}
        current = 0
        high = 0
        for op in stream:
            if isinstance(op, MAlloc):
                if op.key in live:
                    diags.append(
                        Diagnostic(
                            "MC307",
                            f"rank {rank} allocates key {op.key!r} "
                            f"twice without freeing it; the ledger is "
                            f"double-counting",
                            rank=rank,
                            step=op.step,
                        )
                    )
                live[op.key] = live.get(op.key, 0) + op.elements
                current += op.elements
                high = max(high, current)
            elif isinstance(op, MFree):
                size = live.pop(op.key, None)
                if size is None:
                    diags.append(
                        Diagnostic(
                            "MC307",
                            f"rank {rank} frees key {op.key!r} it "
                            f"never allocated (or freed twice)",
                            rank=rank,
                            step=op.step,
                        )
                    )
                else:
                    current -= size
        highs.append(high)
        leaked.append(tuple(sorted(live, key=repr)))
    rank_high_water = tuple(highs)

    if declared_bound_elements is not None:
        for rank, high in enumerate(rank_high_water):
            if high > declared_bound_elements:
                diags.append(
                    Diagnostic(
                        "MC307",
                        f"rank {rank} static high-water is {high} elements "
                        f"({high * BYTES_PER_ELEMENT} bytes), above the "
                        f"scheduler's declared bound of "
                        f"{declared_bound_elements} elements",
                        rank=rank,
                        hint="the declared_memory_bound no longer covers "
                        "the schedule this scheduler emits; one of the two "
                        "is wrong",
                    )
                )
    if mem_cap_bytes is not None:
        for rank, high in enumerate(rank_high_water):
            nbytes = high * BYTES_PER_ELEMENT
            if nbytes > mem_cap_bytes:
                diags.append(
                    Diagnostic(
                        "MC307",
                        f"rank {rank} static high-water is {nbytes} bytes, "
                        f"above the requested --mem-cap of {mem_cap_bytes} "
                        f"bytes",
                        rank=rank,
                        hint="partition more dims (raise p) or pick the "
                        "shuffle schedule to shrink the per-rank peak",
                    )
                )
    return LifetimeResult(
        rank_high_water=rank_high_water,
        from_ledger=prog.has_memory_events(),
        diagnostics=diags,
        leaked=tuple(leaked),
    )
