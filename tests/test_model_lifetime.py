"""Static memory-lifetime analysis: high-water marks, the declared bound,
--mem-cap enforcement, and leak detection (MC307)."""

import pytest

from repro.analysis.model import (
    BYTES_PER_ELEMENT,
    analyze_lifetime,
    seed_model_defect,
)
from repro.sched import get_scheduler

SHAPE, BITS = (4, 4, 4), (1, 1, 0)
SCHEDULERS = ["fig5", "shuffle", "marginals-2", "marginals-2-shuffle"]


def clean_program(spec="fig5", **kwargs):
    return get_scheduler(spec).symbolic_ops(SHAPE, BITS, **kwargs)


class TestHighWater:
    @pytest.mark.parametrize("spec", SCHEDULERS)
    def test_clean_program_stays_within_declared_bound(self, spec):
        sched = get_scheduler(spec)
        prog = clean_program(spec)
        bound = sched.declared_memory_bound(SHAPE, BITS)
        result = analyze_lifetime(prog, declared_bound_elements=bound)
        assert result.diagnostics == []
        assert all(not keys for keys in result.leaked)
        assert result.max_high_water <= bound
        assert result.max_high_water > 0
        assert result.max_high_water_bytes == (
            result.max_high_water * BYTES_PER_ELEMENT
        )

    def test_high_water_is_per_rank(self):
        prog = clean_program()
        result = analyze_lifetime(prog)
        assert len(result.rank_high_water) == prog.num_ranks
        assert result.max_high_water == max(result.rank_high_water)

    def test_ledger_programs_report_from_ledger(self):
        result = analyze_lifetime(clean_program())
        assert result.from_ledger


class TestMC307:
    def test_inflated_alloc_exceeds_declared_bound(self):
        sched = get_scheduler("fig5")
        bound = sched.declared_memory_bound(SHAPE, BITS)
        bad = seed_model_defect(clean_program(), "inflated-alloc")
        result = analyze_lifetime(bad, declared_bound_elements=bound)
        assert "MC307" in {d.rule for d in result.diagnostics}
        assert result.max_high_water > bound

    def test_leak_trips_a_tight_mem_cap(self):
        bad = seed_model_defect(clean_program(), "leak")
        clean = analyze_lifetime(clean_program())
        cap_bytes = clean.max_high_water_bytes
        result = analyze_lifetime(bad, mem_cap_bytes=cap_bytes)
        assert "MC307" in {d.rule for d in result.diagnostics}
        assert any(result.leaked), "leak defect must leave an unfreed block"

    def test_clean_program_passes_its_own_cap(self):
        clean = analyze_lifetime(clean_program())
        result = analyze_lifetime(
            clean_program(), mem_cap_bytes=clean.max_high_water_bytes
        )
        assert result.diagnostics == []

    def test_cap_one_byte_below_peak_fires(self):
        clean = analyze_lifetime(clean_program())
        result = analyze_lifetime(
            clean_program(), mem_cap_bytes=clean.max_high_water_bytes - 1
        )
        assert "MC307" in {d.rule for d in result.diagnostics}


class TestLedgerErrors:
    def test_double_alloc_is_flagged(self):
        from dataclasses import replace

        from repro.analysis.model import MAlloc

        prog = clean_program()
        streams = [list(s) for s in prog.streams]
        # Re-allocate the key while it is still live: insert the duplicate
        # right after the original, before any free.
        for i, op in enumerate(streams[0]):
            if isinstance(op, MAlloc):
                streams[0].insert(i + 1, op)
                break
        bad = replace(prog, streams=tuple(tuple(s) for s in streams))
        result = analyze_lifetime(bad)
        assert any(
            "alloc" in d.message.lower() for d in result.diagnostics
        )

    def test_free_without_alloc_is_flagged(self):
        from dataclasses import replace

        from repro.analysis.model import MFree

        prog = clean_program()
        streams = [list(s) for s in prog.streams]
        streams[0].append(MFree(rank=0, key="never-allocated", step=999))
        bad = replace(prog, streams=tuple(tuple(s) for s in streams))
        result = analyze_lifetime(bad)
        assert any(
            "free" in d.message.lower() for d in result.diagnostics
        )
