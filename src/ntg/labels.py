"""Vertex labels for term graphs with a split atomic/nested signature.

Every label knows its arity, so a graph can be checked for arity
consistency without consulting a signature object.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class _Symbol:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError(f"negative arity for {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Atomic(_Symbol):
    """An ordinary function symbol."""


@dataclass(frozen=True)
class Nested(_Symbol):
    """A defined symbol, i.e. one that carries its own graph definition."""


@dataclass(frozen=True)
class Output:
    """The unary interface symbol at the root of every definition body."""

    @property
    def arity(self) -> int:
        return 1

    def __str__(self):
        return "out"


@dataclass(frozen=True)
class Input:
    """The nullary interface symbol marking a definition's k-th parameter."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("input indices start at 1")

    @property
    def arity(self) -> int:
        return 0

    def __str__(self):
        return f"in {self.index}"


OUTPUT = Output()

# Placeholder symbol used when a cyclic specification is unfolded with a
# depth cutoff.  Reserved: the text format cannot express it.
CUT_SYMBOL = "⊥"  # ⊥


def _compatible(l1, l2) -> bool:
    """Labels that a bisimulation may relate: equal atomic symbols, or two
    labels of the same kind among occurrence, output and input."""
    kind = type(l1)
    if kind is not type(l2):
        return False
    return l1 == l2 if kind is Atomic else kind in (Nested, Output, Input)
