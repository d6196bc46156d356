"""Exact integer root-system data for the simple Lie types.

The data (dimensions, marks, gradings, centers, canonical label pieces)
are closed forms or tables from Bourbaki, Lie Groups ch. VI, plates I-IX;
nothing here enumerates roots or builds a Dynkin diagram (the tests check
these tables against both).  `subalg` names the types a node leaves.  Node
numbering follows Bourbaki (A/B/C/D chains numbered left to right, the
branch node of E6/E7/E8 is node 4 with node 2 hanging off it, G2 has the
short root first).  There is no floating point anywhere.

`grading(t, i)` costs O(1), for callers that read one node.  The tables,
their minima and the marks read `gradings(t)`, all nodes in one pass, held
for the last 4 types; `canonical_pieces` holds its last 256 labels.  Both
are bounded module-level functools caches.
"""

from __future__ import annotations

import functools

from .errors import MAX_RANK, CharvarError, parse_digits, require_at_most

_RANK_BOUNDS = {"A": 1, "B": 2, "C": 3, "D": 4}
_EXCEPTIONAL_DIMENSIONS = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}
# The exceptional types (their keys are the only valid exceptional ranks) and,
# per node, how many positive roots have coefficient 1, 2, ..., mark there.
_EXCEPTIONAL_GRADINGS = {
    ("E", 6): ((16,), (20, 1), (20, 5), (18, 9, 2), (20, 5), (16,)),
    ("E", 7): ((32, 1), (35, 7), (30, 15, 2), (24, 18, 8, 3), (30, 15, 5), (32, 10), (27,)),
    ("E", 8): ((64, 14), (56, 28, 8), (42, 35, 14, 7), (30, 30, 20, 15, 6, 5),
               (40, 30, 20, 10, 4), (48, 30, 16, 3), (54, 27, 2), (56, 1)),
    ("F", 4): ((14, 1), (12, 6, 2), (6, 9, 2, 3), (8, 7)),
    ("G", 2): ((2, 1, 2), (4, 1)),
}
_EXCEPTIONAL_CENTERS = {("E", 6): (3,), ("E", 7): (2,)}  # trivial for E8, F4, G2

# Low-rank coincidences.  These labels are rejected at construction; the
# value names the canonical isomorphic types.
_ALIASES = {
    ("B", 1): "A1",
    ("C", 1): "A1",
    ("C", 2): "B2",
    ("D", 2): "A1+A1",
    ("D", 3): "A3",
}


class Frozen:
    """Base of the immutable value classes: what a frozen dataclass gives,
    without importing `dataclasses`, which loads `inspect` and `ast` in every
    process that defines one.

    A subclass annotates its fields and sets them in `__init__` with
    `object.__setattr__`; it then compares, hashes and prints by them, in
    annotation order, and refuses assignment.  Copies and pickles restore the
    instance `__dict__` directly, so they need nothing more (`__slots__` would
    restore through the refusing `__setattr__`).
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class SimpleType(Frozen):
    """A simple Lie-algebra type label such as A4, D7, or E8, ordered by
    (family, rank)."""

    family: str
    rank: int

    def __init__(self, family: str, rank: int) -> None:
        if family not in "ABCDEFG":
            raise CharvarError(f"unknown family {family!r}")
        if (family, rank) in _ALIASES:
            canonical = _ALIASES[(family, rank)]
            raise CharvarError(
                f"{family}{rank} is an alias: use {canonical}"
                + (" (not simple)" if "+" in canonical else "")
            )
        if family in "EFG":
            if (family, rank) not in _EXCEPTIONAL_GRADINGS:
                raise CharvarError(f"invalid rank {rank} for family {family}")
        elif rank < _RANK_BOUNDS[family]:
            raise CharvarError(f"invalid rank {rank} for family {family}")
        else:
            require_at_most(rank, MAX_RANK, f"rank of {family}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    # Hand-written for speed: a type keys the gradings cache and is sorted
    # in every table row.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.family == other.family and self.rank == other.rank
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.rank) < (other.family, other.rank)
        return NotImplemented

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or text[0] not in "ABCDEFG" or not text[1:].isdecimal():
            raise CharvarError(f"cannot parse simple type {text!r}")
        return cls(text[0], parse_digits(text[1:], f"rank of {text[0]}"))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def dimension(t: SimpleType) -> int:
    """dim of the simple Lie algebra, in closed form (Bourbaki, Lie Groups
    ch. VI, plates I-IX): the rank plus twice the number of positive roots."""
    n = t.rank
    if t.family == "A":
        return n * (n + 2)
    if t.family in "BC":
        return n * (2 * n + 1)
    if t.family == "D":
        return n * (2 * n - 1)
    return _EXCEPTIONAL_DIMENSIONS[t.family, n]


def highest_root(t: SimpleType) -> tuple[int, ...]:
    """The unique positive root dominating all others coordinatewise: its
    coefficient at node i, the mark, is the length of grading(t, i)."""
    return tuple(map(len, gradings(t)))


def grading(t: SimpleType, i: int) -> tuple[int, ...]:
    """(c_1, ..., c_m): c_n positive roots have coefficient n at node i, m is
    its mark.  Closed forms for A-D; the exceptional rows were enumerated."""
    n = t.rank
    if not 1 <= i <= n:
        raise CharvarError(f"node {i} out of range for {t}")
    f = t.family
    if f == "A":
        return (i * (n + 1 - i),)
    if f == "B":  # node 1 is the one node of mark 1
        return (i * (2 * n - 2 * i + 1), i * (i - 1) // 2) if i > 1 else (2 * n - 1,)
    if f == "C":
        return (2 * i * (n - i), i * (i + 1) // 2) if i < n else (n * (n + 1) // 2,)
    if f == "D":  # nodes 1, n-1 and n are the nodes of mark 1
        if i == 1:
            return (2 * n - 2,)
        return (2 * i * (n - i), i * (i - 1) // 2) if i <= n - 2 else (n * (n - 1) // 2,)
    return _EXCEPTIONAL_GRADINGS[f, n][i - 1]


# One entry holds n gradings of at most two counts, about 1 MB at MAX_RANK;
# the bound keeps a sweep over ranks from holding more than a few.
@functools.lru_cache(maxsize=4)
def gradings(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """(grading(t, 1), ..., grading(t, n)) in one pass: the tables, their
    minima and the marks of a type all read this one tuple."""
    return tuple(grading(t, i) for i in range(1, t.rank + 1))


# Keyed by (family, rank), a few hundred bytes an entry: large enough that the
# Levi and BdS tables of a type up to rank about 80 share their X_{n-k} pieces.
@functools.lru_cache(maxsize=256)
def canonical_pieces(family: str, rank: int) -> tuple[SimpleType, ...]:
    """The simple pieces of the classical label family + rank: none at rank 0,
    the canonical types of an alias (D2 is A1 + A1), else the label itself."""
    if (family, rank) not in _ALIASES:
        return (SimpleType(family, rank),) if rank else ()
    return tuple(map(SimpleType.parse, _ALIASES[family, rank].split("+")))


def center_orders(t: SimpleType) -> tuple[int, ...]:
    """Cyclic orders of Z(G_sc), the weight lattice modulo the root lattice."""
    n = t.rank
    if t.family == "A":
        return (n + 1,)
    if t.family == "D":
        return (4,) if n % 2 else (2, 2)
    return (2,) if t.family in "BC" else _EXCEPTIONAL_CENTERS.get((t.family, n), ())
