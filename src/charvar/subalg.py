"""Subalgebra classification tables.

Levi subalgebras of maximal parabolics (delete one node of the Dynkin
diagram) and maximal Borel-de Siebenthal subalgebras (delete a node of
mark >= 2 from the extended diagram), with codimensions and, for the
full-rank case, the index group Z_m.

Every number is read off grading(t, k) = (c_1, ..., c_m), the positive
roots counted by their coefficient at the deleted node k of mark m; the
tables and minima of a type share one pass, `rootsys.gradings(t)`.  The
Levi codim is 2 * (c_1 + ... + c_m), the BdS codim 2 * (c_1 + ... + c_{m-1})
(Borel-de Siebenthal 1949; Bourbaki, Lie Groups ch. VI, plates).  Each table
names its derived types in the same pass: the classical ones by its own
chain rule read off the same plates, those of E6-E8, F4 and G2 from a table
of rows.  No diagram is built or classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .rootsys import SimpleType, canonical_pieces, dimension, gradings

if TYPE_CHECKING:
    from .groups import FgAbelianGroup

# Per node, the types left when it is deleted from the diagram and from the
# extended diagram (a node of mark 1 leaves the type itself).
_EXCEPTIONAL_SUBSYSTEMS = {
    ("E", 6): (("D5", "E6"), ("A5", "A1+A5"), ("A1+A4", "A1+A5"), ("A1+A2+A2", "A2+A2+A2"),
               ("A1+A4", "A1+A5"), ("D5", "E6")),
    ("E", 7): (("D6", "A1+D6"), ("A6", "A7"), ("A1+A5", "A2+A5"), ("A1+A2+A3", "A1+A3+A3"),
               ("A2+A4", "A2+A5"), ("A1+D5", "A1+D6"), ("E6", "E7")),
    ("E", 8): (("D7", "D8"), ("A7", "A8"), ("A1+A6", "A1+A7"), ("A1+A2+A4", "A1+A2+A5"),
               ("A3+A4", "A4+A4"), ("A2+D5", "A3+D5"), ("A1+E6", "A2+E6"), ("E7", "A1+E7")),
    ("F", 4): (("C3", "A1+C3"), ("A1+A2", "A2+A2"), ("A1+A2", "A1+A3"), ("B3", "B4")),
    ("G", 2): (("A1", "A2"), ("A1", "A1+A1")),
}


def _labels(text: str) -> tuple[SimpleType, ...]:
    return tuple(map(SimpleType.parse, text.split("+")))


@dataclass(frozen=True)
class LeviRecord:
    """One conjugacy class of maximal-parabolic Levi subalgebras."""

    node: int
    derived_type: tuple[SimpleType, ...]
    levi_dim: int
    codim: int


@dataclass(frozen=True)
class BdSRecord:
    """One maximal Borel-de Siebenthal subalgebra class."""

    node: int
    mark: int
    bds_type: tuple[SimpleType, ...]
    codim: int
    index_group: FgAbelianGroup


def levi_table(t: SimpleType) -> list[LeviRecord]:
    """One record per deleted node, codim 2 * (c_1 + ... + c_m); the Levi is
    the derived type plus a GL1.  Deleting node k of X_n leaves A_{k-1} +
    X_{n-k}, and A_{n-1} at the two short arms n-1, n of D_n."""
    f, n, dim_g = t.family, t.rank, dimension(t)
    rows = []
    for k, c in enumerate(gradings(t), start=1):
        if f in "EFG":
            types = _labels(_EXCEPTIONAL_SUBSYSTEMS[f, n][k - 1][0])
        elif f == "D" and k >= n - 1:
            types = canonical_pieces("A", n - 1)
        else:
            types = tuple(sorted(canonical_pieces("A", k - 1) + canonical_pieces(f, n - k)))
        codim = 2 * sum(c)
        rows.append(LeviRecord(k, types, dim_g - codim, codim))
    return rows


def min_levi_codim(t: SimpleType) -> int:
    return 2 * min(map(sum, gradings(t)))


def bds_table(t: SimpleType) -> list[BdSRecord]:
    """One record per node of mark m >= 2 in the extended diagram, codim
    2 * (c_1 + ... + c_{m-1}); empty for family A, whose marks are all 1.
    Deleting node k of B_n, C_n or D_n leaves D_k + B_{n-k}, C_k + C_{n-k}
    or D_k + D_{n-k}.

    The index group is the root lattice modulo the subsystem lattice, which
    the surviving simple roots and the lowest root -theta span.  Modulo the
    simple roots e_j (j != k), theta reduces to theta_k * e_k, so the
    quotient is Z_{theta_k}, cyclic of order the mark m.  Groups are frozen,
    so the rows of one mark share one Z_m."""
    from .groups import FgAbelianGroup  # here alone, so `levi_table` never loads `groups`

    f, n = t.family, t.rank
    rows = [(k, c) for k, c in enumerate(gradings(t), start=1) if len(c) >= 2]
    index = {m: FgAbelianGroup.cyclic(m) for m in {len(c) for _, c in rows}}
    records = []
    for k, c in rows:
        if f in "EFG":
            types = _labels(_EXCEPTIONAL_SUBSYSTEMS[f, n][k - 1][1])
        else:
            types = tuple(sorted(canonical_pieces("C" if f == "C" else "D", k)
                                 + canonical_pieces(f, n - k)))
        records.append(BdSRecord(k, len(c), types, 2 * sum(c[:-1]), index[len(c)]))
    return records


def min_bds_codim(t: SimpleType) -> int | None:
    return min((2 * sum(c[:-1]) for c in gradings(t) if len(c) >= 2), default=None)
