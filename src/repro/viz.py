"""Text renderings of the paper's data structures (Figs 1-2 as ASCII).

Used by the examples and handy in a REPL:

>>> from repro.viz import render_aggregation_tree
>>> print(render_aggregation_tree(3))
ABC
 +- BC
 |   +- C
 |   +- B
 +- AC
 |   +- A
 |       +- all
 +- AB
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.aggregation_tree import AggregationTree
from repro.core.lattice import CubeLattice, Node, node_size
from repro.core.prefix_tree import PrefixTree
from repro.util import node_letters


def _render_tree(
    root: Node,
    children: Callable[[Node], list[Node]],
    label: Callable[[Node], str],
) -> str:
    lines: list[str] = [label(root)]

    def rec(node: Node, prefix: str) -> None:
        kids = children(node)
        for i, kid in enumerate(kids):
            last = i == len(kids) - 1
            lines.append(f"{prefix} +- {label(kid)}")
            rec(kid, prefix + ("    " if last else " |  "))

    rec(root, "")
    return "\n".join(lines)


def render_aggregation_tree(n: int, shape: Sequence[int] | None = None) -> str:
    """ASCII aggregation tree; with ``shape``, node sizes are annotated."""
    tree = AggregationTree(n)

    def label(node: Node) -> str:
        base = node_letters(node)
        if shape is not None:
            return f"{base} [{node_size(node, shape)}]"
        return base

    return _render_tree(tree.root, tree.children, label)


def render_prefix_tree(n: int) -> str:
    """ASCII prefix tree (Definition 2), sets shown in braces."""
    tree = PrefixTree(n)

    def label(node: Node) -> str:
        return "{" + ",".join(str(d) for d in node) + "}" if node else "{}"

    return _render_tree(tree.root, tree.children, label)


def render_lattice_levels(shape: Sequence[int]) -> str:
    """The cube lattice level by level with array sizes (Fig 1 flavor)."""
    lat = CubeLattice(shape)
    by_level: dict[int, list[str]] = {}
    for node in lat.nodes():
        by_level.setdefault(len(node), []).append(
            f"{node_letters(node)}({lat.size(node)})"
        )
    lines = []
    for level in sorted(by_level, reverse=True):
        lines.append(f"level {level}: " + "  ".join(by_level[level]))
    return "\n".join(lines)


def render_schedule(n: int) -> str:
    """The Fig 3 schedule as a readable step list."""
    from repro.core.aggregation_tree import ComputeChildren, WriteBack

    tree = AggregationTree(n)
    lines = []
    for step in tree.schedule():
        if isinstance(step, ComputeChildren):
            kids = ", ".join(node_letters(k) for k in step.children)
            lines.append(f"compute [{kids}] from {node_letters(step.node)}")
        elif isinstance(step, WriteBack):
            lines.append(f"write-back {node_letters(step.node)}")
    return "\n".join(lines)
