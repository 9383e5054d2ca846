"""Architecture rules: structural invariants of the source tree, as tests.

Each case is one rule: patterns that must match no line of the named
files, and the reason the rule exists.  A structural change that retires
a mechanism adds a case here, so the tier-1 suite -- not only CI -- keeps
the mechanism from coming back.  Paths are relative to ``src/repro``; a
directory stands for every ``.py`` file under it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class Rule(NamedTuple):
    name: str
    why: str
    paths: tuple[str, ...]
    patterns: tuple[str, ...]


RULES = [
    Rule(
        "outputs written once",
        "No output buffer is zero-filled by hand: a fresh anonymous mapping "
        "reads as zero.  Both real backends stage into one, so the host reads "
        "the results in place: no named segment, no copy-out.",
        ("exec/shm.py",),
        (r"zero\[:\] = 0", r"shared_memory"),
    ),
    Rule(
        "every build is offered an arena",
        "Whether results cross an address space is the backend's business, "
        "not the scheduler's: the host offers every build that collects "
        "results one output arena, and the process backend's workers stage "
        "what a program returns in-band.  No scheduler declares a staging "
        "flag.",
        ("",),
        (r"stages_outputs",),
    ),
    Rule(
        "arrays cross processes through anonymous mappings",
        "The output arena and the message region are anonymous MAP_SHARED "
        "mappings made before the fork: nothing is linked under /dev/shm, "
        "so nothing can leak there or needs an unlink.",
        ("exec",),
        (r"shared_memory",),
    ),
]


def _files(paths: tuple[str, ...]) -> list[Path]:
    out: list[Path] = []
    for rel in paths:
        path = SRC / rel
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_architecture_rule(rule: Rule) -> None:
    files = _files(rule.paths)
    assert files, f"rule {rule.name!r} names no file"
    patterns = [re.compile(p) for p in rule.patterns]
    hits = [
        f"{path.relative_to(SRC.parent)}:{lineno}: {line.strip()}"
        for path in files
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if any(p.search(line) for p in patterns)
    ]
    assert not hits, f"{rule.name}: {rule.why}\n" + "\n".join(hits)
