"""Small shared helpers: node naming, formatting, percentiles, and the
unknown-name error of the backend and scheduler tables."""

from __future__ import annotations

import difflib
from typing import Iterable, Sequence

DEFAULT_DIM_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def percentile(values: Sequence[float], q: Sequence[float]) -> tuple[float, ...]:
    """Linear-interpolation percentiles of ``values`` at each ``q`` in 0..100.

    The single percentile implementation shared by
    :class:`repro.serve.ServiceStats` and the observability histogram type
    (:class:`repro.obs.Histogram`).  Matches ``numpy.percentile`` with the
    default ``"linear"`` interpolation bit-for-bit; an empty input yields
    ``0.0`` for every requested percentile rather than NaN.
    """
    qs = tuple(float(p) for p in q)
    if any(not 0.0 <= p <= 100.0 for p in qs):
        raise ValueError(f"percentiles must be in 0..100, got {qs}")
    if not values:
        return tuple(0.0 for _ in qs)
    first = float(values[0])
    if len(values) == 1:
        # One sample: every percentile is that sample (numpy agrees --
        # linear interpolation over a single point is the point).
        return tuple(first for _ in qs)
    if first == first and all(v == first for v in values):
        # All samples equal (and not NaN): interpolation between equal
        # endpoints is exact, no float arithmetic to drift.
        return tuple(first for _ in qs)
    import numpy as np

    out = np.percentile(np.asarray(values, dtype=float), list(qs))
    return tuple(float(v) for v in out)


def node_name(node: Sequence[int]) -> str:
    """Canonical on-disk / display name of a cube node.

    ``(0, 2)`` -> ``"d0.d2"``; the empty node is ``"all"``.
    """
    node = tuple(node)
    if not node:
        return "all"
    return ".".join(f"d{d}" for d in node)


def parse_node_name(name: str) -> tuple[int, ...]:
    """Inverse of :func:`node_name`."""
    if name == "all":
        return ()
    parts = name.split(".")
    out = []
    for p in parts:
        if not p.startswith("d"):
            raise ValueError(f"bad node name {name!r}")
        out.append(int(p[1:]))
    return tuple(out)


def node_letters(node: Sequence[int], letters: str = DEFAULT_DIM_LETTERS) -> str:
    """Paper-style label: ``(0, 1, 2)`` -> ``"ABC"``, ``()`` -> ``"all"``."""
    node = tuple(node)
    if not node:
        return "all"
    return "".join(letters[d] for d in node)


def human_bytes(n: float) -> str:
    """``1536`` -> ``"1.5 KiB"`` (for report printing)."""
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    raise AssertionError("unreachable")


def human_count(n: float) -> str:
    """``1.5e6`` -> ``"1.50M"`` (for report printing)."""
    for unit, div in (("G", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(n) >= div:
            return f"{n / div:.2f}{unit}"
    return f"{n:.0f}"


def unknown_name(
    kind: str, name: str, available: Iterable[str], exact: Iterable[str] | None = None
) -> ValueError:
    """The error a name lookup raises: every available spec, plus the
    closest of the ``exact`` names (default: ``available``) when one is
    close ("did you mean")."""
    available = list(available)
    msg = f"unknown {kind} {name!r}; available: {', '.join(sorted(available))}"
    candidates = available if exact is None else list(exact)
    close = difflib.get_close_matches(name, candidates, n=1)
    if close:
        msg += f" (did you mean {close[0]!r}?)"
    return ValueError(msg)
