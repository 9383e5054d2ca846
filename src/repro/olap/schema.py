"""Named dimensions, member labels, and roll-up hierarchies."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


@dataclass(frozen=True)
class Hierarchy:
    """A many-to-one roll-up from a dimension's members to coarser groups.

    ``mapping[i]`` is the group index of member ``i``; ``group_labels``
    names the groups (e.g. day -> month).
    """

    name: str
    mapping: tuple[int, ...]
    group_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.mapping:
            raise ValueError("hierarchy mapping must be non-empty")
        if min(self.mapping) < 0 or max(self.mapping) >= len(self.group_labels):
            raise ValueError("mapping indices out of range of group_labels")

    @property
    def num_groups(self) -> int:
        return len(self.group_labels)


@dataclass(frozen=True)
class Dimension:
    """A named cube dimension with optional member labels and hierarchies."""

    name: str
    size: int
    labels: tuple[str, ...] | None = None
    hierarchies: tuple[Hierarchy, ...] = ()

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"dimension {self.name!r} must have positive size")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError(
                f"dimension {self.name!r}: {len(self.labels)} labels for size {self.size}"
            )
        for h in self.hierarchies:
            if len(h.mapping) != self.size:
                raise ValueError(
                    f"hierarchy {h.name!r} maps {len(h.mapping)} members, "
                    f"dimension {self.name!r} has {self.size}"
                )

    def label_of(self, index: int) -> str:
        if self.labels is not None:
            return self.labels[index]
        return f"{self.name}[{index}]"

    def index_of(self, label: str) -> int:
        if self.labels is None:
            raise ValueError(f"dimension {self.name!r} has no labels")
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no member {label!r} in dimension {self.name!r}") from None

    def hierarchy(self, name: str) -> Hierarchy:
        for h in self.hierarchies:
            if h.name == name:
                return h
        raise KeyError(f"no hierarchy {name!r} on dimension {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """An ordered set of dimensions describing the fact array."""

    dimensions: tuple[Dimension, ...]

    def __post_init__(self) -> None:
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")
        if not self.dimensions:
            raise ValueError("schema needs at least one dimension")

    @classmethod
    def of(cls, *dims: Dimension) -> "Schema":
        return cls(tuple(dims))

    @classmethod
    def simple(cls, **sizes: int) -> "Schema":
        """``Schema.simple(item=100, branch=20, time=365)``."""
        return cls(tuple(Dimension(name, size) for name, size in sizes.items()))

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.size for d in self.dimensions)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        # Safe to cache: the dataclass is frozen, so dimensions never change.
        return {d.name: i for i, d in enumerate(self.dimensions)}

    def index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"no dimension named {name!r}") from None

    def dimension(self, name: str) -> Dimension:
        return self.dimensions[self.index(name)]

    def node_of(self, names: Sequence[str]) -> tuple[int, ...]:
        """Dimension-name list -> sorted node tuple."""
        return tuple(sorted(self.index(nm) for nm in names))

    def names_of(self, node: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.names[d] for d in node)
