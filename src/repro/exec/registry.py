"""Name-based registry of execution backends.

A thin instantiation of the generic :class:`repro.registry.Registry`:
``get_backend("sim")`` / ``get_backend("process")`` / ``get_backend("thread")``
return a *fresh* backend instance per call -- backends hold per-run state
(shared-memory arenas, worker pools), so instances are not shared.
Third-party backends join via :func:`register_backend`.

Every entry carries capability metadata derived from the backend class
itself (fault kinds, machine-model support, pooling), which is what
``BuildConfig`` validation errors and ``repro-cube backends list`` render
-- the declarations cannot drift from the classes.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.exec.base import Backend
from repro.exec.process import ProcessBackend
from repro.exec.sim import SimBackend
from repro.exec.thread import ThreadBackend
from repro.registry import Registry

#: The backend registry (an instance of the one generic Registry).
BACKENDS: Registry[Backend] = Registry("backend")


def _capabilities(cls: type[Backend], description: str) -> dict[str, Any]:
    """Capability metadata read off the backend class (no drift possible)."""
    return {
        "description": description,
        "fault_kinds": tuple(sorted(cls.fault_capabilities)),
        "supports_machines": cls.supports_machines,
        "supports_pooling": cls.supports_pooling,
    }


def register_backend(
    name: str,
    factory: Callable[[], Backend],
    *,
    metadata: Mapping[str, Any] | None = None,
) -> None:
    """Register ``factory`` under ``name`` (overwrites an existing entry).

    ``factory`` is called with no arguments and must return a fresh
    :class:`~repro.exec.base.Backend` each time.  ``metadata`` defaults to
    the capability metadata of the class when ``factory`` is one.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if metadata is None and isinstance(factory, type) and issubclass(factory, Backend):
        metadata = _capabilities(factory, (factory.__doc__ or "").strip().splitlines()[0])
    BACKENDS.register(name, factory, metadata=metadata, replace=True)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(BACKENDS.names())


def get_backend(name: str) -> Backend:
    """A fresh instance of the backend registered under ``name``."""
    return BACKENDS.get(name)


def backend_metadata(name: str) -> Mapping[str, Any]:
    """Capability metadata of the backend registered under ``name``."""
    return BACKENDS.metadata_for(name)


register_backend(
    "sim",
    SimBackend,
    metadata=_capabilities(
        SimBackend,
        "deterministic discrete-event simulator (simulated clocks, full fault surface)",
    ),
)
register_backend(
    "process",
    ProcessBackend,
    metadata=_capabilities(
        ProcessBackend,
        "real OS processes forked after partition; shared output arena, supervised respawn",
    ),
)
register_backend(
    "thread",
    ThreadBackend,
    metadata=_capabilities(
        ThreadBackend,
        "one GIL-releasing thread per rank; persistent worker-pool fast path",
    ),
)
