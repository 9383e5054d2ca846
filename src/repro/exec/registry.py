"""The execution backends by name: one fixed table of classes.

``get_backend("sim")`` / ``get_backend("process")`` / ``get_backend("thread")``
return a *fresh* backend instance per call -- backends hold per-run state
(shared-memory arenas, worker pools), so instances are not shared.  Each
class declares its ``description`` (the ``repro-cube backends list`` line)
and its capabilities (``fault_capabilities``, ``supports_machines``,
``supports_pooling``).  A custom backend plugs in as an instance:
``BuildConfig(backend=MyBackend())``.
"""

from __future__ import annotations

from typing import Mapping

from repro.exec.base import Backend
from repro.exec.process import ProcessBackend
from repro.exec.sim import SimBackend
from repro.exec.thread import ThreadBackend
from repro.util import unknown_name

#: Backend name -> class, sorted by name (the ``backends list`` order).
BACKEND_CLASSES: Mapping[str, type[Backend]] = {
    cls.name: cls for cls in (ProcessBackend, SimBackend, ThreadBackend)
}


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(BACKEND_CLASSES)


def get_backend(name: str) -> Backend:
    """A fresh instance of the backend called ``name``."""
    cls = BACKEND_CLASSES.get(name)
    if cls is None:
        raise unknown_name("backend", name, BACKEND_CLASSES)
    return cls()
