"""Unit tests for the backend and scheduler name tables
(:mod:`repro.exec.registry`, :mod:`repro.sched.registry`).

Each table maps a name to a class; each class declares its listing line
(``description``) and what it supports.  These tests pin the lookups
(exact names, the ``marginals-<k>[-shuffle]`` family, error phrasing with
did-you-mean suggestions) and that the CLI listings and the scheduler
option errors read those class attributes.
"""

import io

import pytest

from repro.cli import main
from repro.exec import ProcessBackend, SimBackend, ThreadBackend, get_backend
from repro.exec.registry import BACKEND_CLASSES, available_backends
from repro.sched import (
    Fig5Scheduler,
    MarginalsScheduler,
    ShuffleScheduler,
    available_schedulers,
    get_scheduler,
)
from repro.sched.registry import SCHEDULER_CLASSES


class TestLookup:
    def test_exact_name_wins(self):
        assert type(get_scheduler("fig5")) is Fig5Scheduler
        assert type(get_scheduler("shuffle")) is ShuffleScheduler
        assert type(get_backend("thread")) is ThreadBackend

    def test_family_parses_specs(self):
        s = get_scheduler("marginals-8")
        assert isinstance(s, MarginalsScheduler)
        assert (s.k, s.base) == (8, "fig5")
        # The listed template itself is not a spec.
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scheduler("marginals-<k>[-shuffle]")

    def test_names_are_sorted_and_include_families(self):
        assert available_backends() == ("process", "sim", "thread")
        assert available_schedulers() == ("fig5", "marginals-<k>[-shuffle]", "shuffle")

    def test_unknown_spec_lists_available(self):
        with pytest.raises(
            ValueError, match=r"unknown backend 'nope'; available: process, sim, thread$"
        ):
            get_backend("nope")

    def test_did_you_mean_suggestion(self):
        with pytest.raises(ValueError, match=r"did you mean 'shuffle'\?"):
            get_scheduler("shufle")
        with pytest.raises(ValueError, match=r"did you mean 'process'\?"):
            get_backend("proces")
        # Only exact names are suggested, never the family template.
        with pytest.raises(ValueError) as err:
            get_scheduler("marginals")
        assert "did you mean" not in str(err.value)

    def test_metadata_is_immutable_and_reachable_per_spec(self):
        # A scheduler's metadata is its class's `description` and `options`
        # (a tuple), read off the instance a spec resolves to.
        assert get_scheduler("fig5").options == ("checkpoint", "max_message_elements")
        assert get_scheduler("marginals-2-shuffle").options == ()
        assert get_scheduler("marginals-2").description == MarginalsScheduler.description
        with pytest.raises(
            ValueError, match=r"\(scheduler 'shuffle' supports options: none\)$"
        ):
            ShuffleScheduler().validate_options(checkpoint=True)
        with pytest.raises(
            ValueError,
            match=r"\(scheduler 'marginals-1-shuffle' supports options: none\)$",
        ):
            get_scheduler("marginals-1-shuffle").validate_options(max_message_elements=8)


class TestRendering:
    def test_render_list_aligns_names_and_descriptions(self):
        for verb, table in (("backends", BACKEND_CLASSES), ("sched", SCHEDULER_CLASSES)):
            out = io.StringIO()
            assert main([verb, "list"], out=out) == 0
            lines = out.getvalue().splitlines()
            assert len(lines) == len(table)
            width = max(map(len, table)) + 2
            rows = {line[:width].rstrip(): line[width:] for line in lines}
            assert rows == {name: cls.description for name, cls in table.items()}


class TestSubsystemsUseIt:
    def test_tables_map_names_to_classes(self):
        assert BACKEND_CLASSES == {
            "sim": SimBackend,
            "process": ProcessBackend,
            "thread": ThreadBackend,
        }
        assert all(cls.name == name for name, cls in BACKEND_CLASSES.items())
        assert list(SCHEDULER_CLASSES.values()) == [
            Fig5Scheduler,
            ShuffleScheduler,
            MarginalsScheduler,
        ]

    def test_backend_metadata_drives_pooling_capability(self):
        # The --pool check reads `supports_pooling` off the class.
        assert ThreadBackend.supports_pooling
        assert not SimBackend.supports_pooling
        assert not ProcessBackend.supports_pooling
        out = io.StringIO()
        code = main(
            ["construct", "--shape", "4,4", "--procs", "2", "--backend", "sim", "--pool"],
            out=out,
        )
        assert code == 2
        assert "(pooling backends: thread)" in out.getvalue()

    def test_scheduler_errors_keep_historical_phrasing(self):
        with pytest.raises(ValueError, match="unknown scheduler 'zigzag'"):
            get_scheduler("zigzag")
