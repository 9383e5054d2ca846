"""In-repo static-analysis gate, runnable without external tooling.

CI runs ruff and mypy (see ``pyproject.toml`` and the ``lint`` workflow
job), but neither can be assumed present in every environment this repo is
exercised in.  This module implements the subset of the gate the tests can
always enforce, as plain ``ast`` walks:

- ``GATE201`` module-scope imports that are never used (ruff F401);
- ``GATE202`` functions in strict-typed packages missing parameter or
  return annotations (mypy ``disallow_untyped_defs``);
- ``GATE203`` mutable default parameter values (ruff B006 class).

The checks are deliberately conservative -- a name is "used" if it appears
anywhere in the module as an identifier or in ``__all__`` -- so a clean
ruff/mypy run implies a clean gate, never the other way around.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

__all__ = ["STRICT_PACKAGES", "check_file", "run_gate"]

#: Packages held to mypy-strict annotation discipline (GATE202).
STRICT_PACKAGES = (
    "repro/core",
    "repro/cluster",
    "repro/analysis",
    "repro/sched",
    "repro/exec",
    "repro/obs",
)


def _used_names(tree: ast.Module) -> set[str]:
    """Every identifier the module references, plus ``__all__`` strings."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # ``a.b.c`` roots at a Name, already collected; nothing extra.
            continue
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    for elt in ast.walk(node.value):
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                            used.add(elt.value)
    return used


def _check_imports(tree: ast.Module, relpath: str) -> Iterator[Diagnostic]:
    """GATE201: module-scope imports never referenced."""
    used = _used_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield Diagnostic(
                        "GATE201",
                        f"import {alias.name!r} is never used",
                        path=relpath,
                        line=node.lineno,
                        hint="delete the import or export it via __all__",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                if alias.asname == alias.name:
                    continue  # explicit re-export idiom ``import x as x``
                if bound not in used:
                    yield Diagnostic(
                        "GATE201",
                        f"import {bound!r} from {node.module!r} is never used",
                        path=relpath,
                        line=node.lineno,
                        hint="delete the import or export it via __all__",
                    )


def _check_annotations(tree: ast.Module, relpath: str) -> Iterator[Diagnostic]:
    """GATE202: unannotated defs (mypy ``disallow_untyped_defs``)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        missing = [
            a.arg
            for i, a in enumerate(positional)
            if a.annotation is None and not (i == 0 and a.arg in ("self", "cls"))
        ]
        missing += [a.arg for a in args.kwonlyargs if a.annotation is None]
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            yield Diagnostic(
                "GATE202",
                f"function {node.name!r} has unannotated parameter(s) {missing}",
                path=relpath,
                line=node.lineno,
                hint="strict-typed packages require full signatures",
            )
        if node.returns is None:
            yield Diagnostic(
                "GATE202",
                f"function {node.name!r} has no return annotation",
                path=relpath,
                line=node.lineno,
                hint="annotate the return type (use -> None for procedures)",
            )


def _check_mutable_defaults(tree: ast.Module, relpath: str) -> Iterator[Diagnostic]:
    """GATE203: ``def f(x=[])``-style shared mutable defaults."""
    mutable_calls = ("list", "dict", "set", "bytearray")
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in mutable_calls
            )
            if bad:
                yield Diagnostic(
                    "GATE203",
                    f"function {node.name!r} has a mutable default value",
                    path=relpath,
                    line=default.lineno,
                    hint="default to None (or a frozen value) and build the "
                    "mutable object inside the function",
                )


def check_file(path: Path, root: Path, strict: bool | None = None) -> list[Diagnostic]:
    """Gate one file; ``strict`` adds GATE202 (auto-detected from path)."""
    relpath = path.relative_to(root).as_posix()
    if strict is None:
        strict = any(relpath.startswith(f"{p}/") for p in STRICT_PACKAGES)
    tree = ast.parse(path.read_text(), filename=str(path))
    diags = list(_check_imports(tree, relpath))
    if strict:
        diags.extend(_check_annotations(tree, relpath))
    diags.extend(_check_mutable_defaults(tree, relpath))
    return diags


def run_gate(src_root: Path, packages: Sequence[str] | None = None) -> DiagnosticReport:
    """Gate every module under ``src_root`` (or just ``packages``)."""
    report = DiagnosticReport()
    roots = [src_root / p for p in packages] if packages is not None else [src_root]
    for base in roots:
        for path in sorted(base.rglob("*.py")):
            report.extend(check_file(path, src_root))
    return report
