"""Architecture rules: structural invariants of the source tree, as tests.

Each case is one rule: a few checks over the source text, and the reason
the rule exists.  A check is one of

- :class:`Match` -- lines of the named files that match a pattern: by
  default none may; ``files`` fixes exactly which files may, ``lines``
  exactly how many lines do;
- :class:`Absent` -- files that must not exist;
- :class:`Calls` -- which top-level functions of a module use a name, read
  from its syntax tree rather than its text;
- :class:`Source` -- source hygiene read from each file's syntax tree: the
  subset of ruff and mypy that must hold even where neither is installed.

A structural change that retires a mechanism adds a case here, so the
tier-1 suite keeps the mechanism from coming back.  Paths are relative to
``src/repro`` (a :class:`Source` check may name another root); a directory
stands for every ``.py`` file under it, and ``""`` for the whole package.
The last case walks the import graph: a module that nothing imports is
dead code.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    """The syntax tree of ``path``, parsed once per session."""
    return ast.parse(path.read_text(), filename=str(path))


def _files(paths: tuple[str, ...], root: Path = SRC) -> list[Path]:
    out: list[Path] = []
    for rel in paths:
        path = root / rel
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


class Match(NamedTuple):
    paths: tuple[str, ...]
    patterns: tuple[str, ...]
    #: The files with a matching line are exactly these (default: none).
    files: tuple[str, ...] | None = None
    #: Exactly this many lines match.
    lines: int | None = None
    #: Each file is read from its first line matching this pattern on.
    start: str | None = None

    def problems(self) -> list[str]:
        files = _files(self.paths)
        if not files:
            return [f"{self.paths} names no file"]
        problems: list[str] = []
        patterns = [re.compile(p) for p in self.patterns]
        hits: list[str] = []
        hit_files: set[str] = set()
        for path in files:
            rel = path.relative_to(SRC).as_posix()
            lines = list(enumerate(path.read_text().splitlines(), 1))
            if self.start is not None:
                starts = [i for i, (_, line) in enumerate(lines) if re.search(self.start, line)]
                if not starts:
                    problems.append(f"{rel}: no line matches {self.start!r}")
                    continue
                lines = lines[starts[0]:]
            for lineno, line in lines:
                if any(p.search(line) for p in patterns):
                    hits.append(f"{rel}:{lineno}: {line.strip()}")
                    hit_files.add(rel)
        if self.lines is not None and len(hits) != self.lines:
            problems += [f"{len(hits)} matching lines, want {self.lines}:", *hits]
        if self.files is not None:
            if hit_files != set(self.files):
                problems.append(f"matches in {sorted(hit_files)}, want {sorted(self.files)}")
        elif self.lines is None:
            problems += hits
        return problems


class Absent(NamedTuple):
    paths: tuple[str, ...]

    def problems(self) -> list[str]:
        return [f"{rel} exists" for rel in self.paths if (SRC / rel).exists()]


class Calls(NamedTuple):
    """Uses of ``names`` in ``path``, each attributed to the top-level
    statement around it (``<module>`` for bare module code).  A use is a
    call of the name (plain or as an attribute), or ``%`` when ``names``
    holds it.  ``only`` lists the places of every use, in order; ``never``
    names top-level functions with no use at all."""

    path: str
    names: tuple[str, ...]
    only: tuple[str, ...] | None = None
    never: tuple[str, ...] = ()

    def places(self) -> list[str]:
        places: list[str] = []
        for stmt in _tree(SRC / self.path).body:
            place = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
                    name = "%"
                else:
                    continue
                if name in self.names:
                    places.append(place)
        return places

    def problems(self) -> list[str]:
        places = self.places()
        problems = []
        if self.only is not None and tuple(places) != self.only:
            problems.append(f"{self.path}: {self.names} used in {places}, want {self.only}")
        problems += [f"{self.path}: {fn} uses {self.names}" for fn in self.never if fn in places]
        return problems


def _unused_imports(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Module-scope imports whose name the module never reads (ruff F401).
    A name in ``__all__`` counts as read; ``__future__``, ``*`` and the
    re-export idiom ``from m import x as x`` are exempt."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [
                alias.asname or alias.name for alias in node.names
                if alias.name != "*" and alias.asname != alias.name
            ]
        else:
            continue
        for name in bound:
            if name not in used:
                yield node.lineno, f"import {name!r} is never used"


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _unannotated(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Parameters and returns without annotations (mypy
    ``disallow_untyped_defs``); a leading ``self`` or ``cls`` is exempt."""
    for fn in _functions(tree):
        args = fn.args
        missing = [
            a.arg for i, a in enumerate(args.posonlyargs + args.args)
            if a.annotation is None and not (i == 0 and a.arg in ("self", "cls"))
        ]
        missing += [a.arg for a in args.kwonlyargs if a.annotation is None]
        missing += [a.arg for a in (args.vararg, args.kwarg) if a and a.annotation is None]
        if missing:
            yield fn.lineno, f"{fn.name!r} has unannotated parameter(s) {missing}"
        if fn.returns is None:
            yield fn.lineno, f"{fn.name!r} has no return annotation"


def _mutable_defaults(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Parameters defaulting to one list, dict, set or bytearray shared by
    every call (ruff B006)."""
    for fn in _functions(tree):
        for default in fn.args.defaults + [d for d in fn.args.kw_defaults if d]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and getattr(default.func, "id", None) in ("list", "dict", "set", "bytearray")
            ):
                yield default.lineno, f"{fn.name!r} has a mutable default value"


class Source(NamedTuple):
    """What ``finds`` -- an ``ast`` walk yielding ``(line, message)`` --
    reports for each file of ``paths`` under ``root``."""

    paths: tuple[str, ...]
    finds: Callable[[ast.Module], Iterator[tuple[int, str]]]
    root: Path = SRC

    def problems(self) -> list[str]:
        problems: list[str] = []
        for path in _files(self.paths, self.root):
            rel = path.relative_to(self.root).as_posix()
            problems += [f"{rel}:{line}: {msg}" for line, msg in self.finds(_tree(path))]
        return problems


def _strict_packages() -> tuple[str, ...]:
    """``[tool.mypy] packages`` from pyproject.toml, as paths under
    ``src/repro`` (read with a regex: Python 3.10 has no ``tomllib``)."""
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^\[tool\.mypy\][^[]*?^packages = \[(.*?)\]", text, re.M | re.S)
    assert listed, "pyproject.toml: no [tool.mypy] packages list"
    names = re.findall(r'"repro\.([\w.]+)"', listed.group(1))
    return tuple(name.replace(".", "/") for name in names)


class Rule(NamedTuple):
    name: str
    why: str
    checks: tuple[Match | Absent | Calls | Source, ...]


RULES = [
    Rule(
        "outputs written once",
        "No output buffer is zero-filled by hand: a fresh anonymous mapping "
        "reads as zero.  Both real backends stage into one, so the host reads "
        "the results in place: no named segment, no copy-out.",
        (Match(("exec/shm.py",), (r"zero\[:\] = 0", r"shared_memory")),),
    ),
    Rule(
        "every build is offered an arena",
        "Whether results cross an address space is the backend's business, "
        "not the scheduler's: the host offers every build that collects "
        "results one output arena, and the process backend's workers stage "
        "what a program returns in-band.  No scheduler declares a staging "
        "flag.",
        (Match(("",), (r"stages_outputs",)),),
    ),
    Rule(
        "arrays cross processes through anonymous mappings",
        "The output arena and the message region are anonymous MAP_SHARED "
        "mappings made before the fork: nothing is linked under /dev/shm, "
        "so nothing can leak there or needs an unlink.",
        (Match(("exec",), (r"shared_memory",)),),
    ),
    Rule(
        "one real-clock interpreter",
        "The op loop lives in exec/driver.py (real clocks) and "
        "cluster/runtime.py (the virtual-time simulator) and nowhere "
        "else -- except analysis/model/record.py, a clockless recorder "
        "that drives one rank at a time to log its ops for the static "
        "analyses and never executes a build.",
        (
            Match(
                ("",),
                (r"gen\.send\(",),
                files=(
                    "analysis/model/record.py",
                    "cluster/runtime.py",
                    "exec/driver.py",
                ),
            ),
        ),
    ),
    Rule(
        "one timeline record",
        "Recorded runs hold Span, Sample and FaultEvent and nothing else, "
        "and no reader classifies an event by parsing its detail string.",
        (Match(("",), (r"class (TraceEvent|Instant)\b", r"detail\.startswith")),),
    ),
    Rule(
        "facts are encoded once",
        "SparseArray.from_coords is ingest.  Planning, transposing and "
        "partitioning re-base chunk offsets (SparseArray.transpose / "
        "extract_block) and never rebuild an array from coordinates.",
        (Match(("core",), (r"from_coords\(",)),),
    ),
    Rule(
        "facts are sorted once",
        "Ingest sorts packed (key << shift | position) words with one plain "
        "sort (arrays/sparse.py::_sorted_summed); keys too wide to pack take "
        "a stable argsort, the only argsort over fact keys.",
        (Match(("",), (r"argsort\(keys",), lines=1),),
    ),
    Rule(
        "no rank block is materialised",
        "extract_block returns a block of several kernel slabs as a recipe "
        "(arrays/sparse.py::BlockChunk) and allocates no array the size of "
        "the block; the scanning rank produces the facts slab by slab "
        "(BlockChunk.slabs), so the build path never calls the materialising "
        "method.  Process workers read the source chunks through the fork "
        "(no input staging segment).",
        (
            Match(("",), (r"_merge_runs|SharedInputArena|prepare_inputs",)),
            Match(
                ("arrays/sparse.py",),
                (r"np\.(empty|zeros|full|ones)\(total",),
                start=r"def extract_block",
            ),
            Match(("core/parallel.py", "sched"), (r"materialized\(",)),
        ),
    ),
    Rule(
        "first level holds no coordinate matrix",
        "The sparse kernel decodes each chunk in fixed slabs of facts "
        "(aggregate._SLAB) and never a whole chunk or block at once.  A "
        "chunk in the output frame -- every rank block, any one-chunk "
        "array -- decodes nothing: each target's index comes straight "
        "from its offsets (_run_indices) as a signed sum of floor "
        "quotients, with no integer remainder, and only the general path "
        "for other frames (_decoded_indices) calls local_coords().",
        (
            Match(("arrays/aggregate.py",), (r"global_coords\(\)",)),
            Calls("arrays/aggregate.py", ("local_coords",), only=("_decoded_indices",)),
            Calls("arrays/aggregate.py", ("remainder", "%"), never=("_run_indices",)),
        ),
    ),
    Rule(
        "one schedule",
        "The Fig 3 / Fig 5 walk is linearized by tree_schedule and nowhere "
        "else ...",
        (
            Match(
                ("",),
                (r"def evaluate\(node",),
                files=("core/aggregation_tree.py",),
            ),
        ),
    ),
    Rule(
        "one schedule, one step vocabulary",
        "... in one step vocabulary; the layers around repro.sched never "
        "name a second step list or a private Fig 5 program.",
        (
            Match(
                ("core", "olap", "baselines", "cli.py"),
                (r"PLocalAggregate|sched\.steps|pruned_schedule|fig5_schedule"
                 r"|_make_program_ft",),
            ),
        ),
    ),
    Rule(
        "geometry resolved once",
        "Which steps a rank takes part in and which slices it owns are "
        "resolved once per build (core/aggregation_tree.py: rank_steps, "
        "rank_slices); the Fig 5 programs and the output arena read that "
        "and never ask the grid or the partition again per step.",
        (
            Match(
                ("sched/fig5.py", "exec/shm.py"),
                (r"holds_node\(|\.project\(|grid\.label\(",),
            ),
        ),
    ),
    Rule(
        "one message pairing",
        "A send meets a receive only in build_hb (analysis/model/hb.py), for "
        "recorded programs and recorded runs alike: the trace linter's "
        "TRACE101/102 read hb_from_trace, so the fault log's per-channel "
        "drop/duplicate counts are applied in that one module ...",
        (
            Match(
                ("analysis",),
                (r"channel_counts\(",),
                files=("analysis/model/hb.py",),
            ),
        ),
    ),
    Rule(
        "each protocol property checked once",
        "... and each property has one rule in one static pass: no second "
        "pairing to cross-check, and the retired duplicate rules stay gone.",
        (Match(("",), (r'crosscheck_trace|TraceParity|"SPMD00[357]"',)),),
    ),
    Rule(
        "one run record",
        "RunMetrics is constructed in one file (cluster/metrics.py::build_run) "
        "for every backend and the export loader, and runs are read through "
        "one span fold (obs/report.py::fold_spans): the host-side stats "
        "merger, the second timeline reader and the per-sample span scan "
        "stay gone.",
        (
            Match(("",), (r"RunMetrics\(",), files=("cluster/metrics.py",)),
            Absent(("exec/stats.py", "cluster/trace.py")),
            Match(("",), (r"_innermost_stack",)),
        ),
    ),
    Rule(
        "a refresh builds no delta cube",
        "apply_delta folds the delta's facts into each stored view with the "
        "measure's operator (olap/maintenance.py): no delta cube, no build, "
        "and so no simulated refresh time to report.",
        (
            Match(("olap/maintenance.py",), (r"run_(parallel|sequential)\(|construct_cube",)),
            Match(("",), (r"delta_simulated_time_s",)),
        ),
    ),
    Rule(
        "one finishing path",
        "Every answer is finished by QueryEngine.answer (olap/query.py): a "
        "single query is a group of one, a batch's groups are the same call. "
        "CubeService memoizes compiled query shapes, not covers.",
        (
            Match(
                ("",),
                (r"_finish_group|finish_from_partial|scan_cells_after_reduce"
                 r"|_cover_memo",),
            ),
        ),
    ),
    Rule(
        "filters resolve in one place",
        "canonicalize_query and resolve_filter (olap/query.py) are the one "
        "definition of filter semantics.  CubeService compiles a table per "
        "raw query shape (serve/service.py) and sends every value it does not "
        "resolve to them; the bare QueryEngine never reads that table, so it "
        "stays the per-query baseline, and the typed raw-value memo key "
        "stays gone.",
        (
            Match(
                ("",),
                (r"def canonicalize_query\b",),
                files=("olap/query.py",),
                lines=1,
            ),
            Match(
                ("",),
                (r"def resolve_filter\b",),
                files=("olap/query.py",),
                lines=1,
            ),
            Match(("olap",), (r"_raw_shapes|_compile_raw",)),
            Match(("serve/service.py",), (re.escape("tuple(map(type"),)),
        ),
    ),
    Rule(
        "one table per plug-in kind",
        "Backends and schedulers are each one fixed name -> class table "
        "(exec/registry.py, sched/registry.py); a custom one is passed as "
        "an instance.  No generic registry, no registration functions.",
        (
            Absent(("registry.py",)),
            Match(
                ("",),
                (r"from repro\.registry|register_(backend|scheduler)"
                 r"|(backend|scheduler)_metadata",),
            ),
        ),
    ),
    Rule(
        "no unused imports",
        "A module-scope import nothing reads is dead weight (ruff F401), in "
        "the package, its tests and its benchmarks alike.",
        (
            Source(("",), _unused_imports),
            Source(("tests", "benchmarks"), _unused_imports, root=ROOT),
        ),
    ),
    Rule(
        "strict packages are annotated",
        "The packages pyproject.toml lists under [tool.mypy] packages are "
        "held to strict typing: every parameter but a leading self or cls, "
        "and every return, is annotated (mypy disallow_untyped_defs).",
        (Source(_strict_packages(), _unannotated),),
    ),
    Rule(
        "no mutable defaults",
        "A default list, dict, set or bytearray is one object shared by "
        "every call (ruff B006).",
        (Source(("",), _mutable_defaults),),
    ),
    Rule(
        "source rules run in tier-1",
        "The rules above are the one place the source is checked; the "
        "package ships no linter of its own source.",
        (
            Absent(("analysis/repo_gate.py",)),
            Match(("",), (r"run_gate|GATE20\d",)),
        ),
    ),
]


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_architecture_rule(rule: Rule) -> None:
    problems = [p for check in rule.checks for p in check.problems()]
    assert not problems, f"{rule.name}: {rule.why}\n" + "\n".join(problems)


# -- reachability --------------------------------------------------------------------


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported(path: Path) -> set[str]:
    """Every module ``path`` names in an import, at any depth (lazy imports
    inside functions count), with every package on the way to it."""
    names: set[str] = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    parts = [name.split(".") for name in names]
    return {".".join(p[:i]) for p in parts for i in range(1, len(p) + 1)}


def test_every_module_is_reachable() -> None:
    """A module under ``src/repro`` that neither the package, the CLI, an
    example nor the end-to-end benchmark imports is dead code: delete it
    (and its tests) instead of keeping it working."""
    modules = {_module_name(path): path for path in SRC.rglob("*.py")}
    roots = [SRC / "__init__.py", SRC / "cli.py"]
    roots += sorted((ROOT / "examples").glob("*.py"))
    roots += sorted((ROOT / "benchmarks" / "e2e").glob("*.py"))
    seen = {"repro", "repro.cli"}
    todo = list(roots)
    while todo:
        for name in _imported(todo.pop()):
            if name in modules and name not in seen:
                seen.add(name)
                todo.append(modules[name])
    unreached = sorted(set(modules) - seen)
    assert not unreached, f"no root imports {unreached}"
