"""Subalgebra classification tables.

Levi subalgebras of maximal parabolics (delete one node of the Dynkin
diagram) and maximal Borel-de Siebenthal subalgebras (delete a node of
mark >= 2 from the extended diagram), with codimensions and, for the
full-rank case, the lattice index group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CharvarError
from .groups import FgAbelianGroup
from .rootsys import (
    SimpleType,
    classify_diagram,
    diagram_of,
    dimension,
    extended_diagram,
    highest_root,
)


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
    """One record per deleted node; the Levi is the components plus a GL1."""
    d = diagram_of(t)
    dim_g = dimension(t)
    records = []
    for k in range(1, t.rank + 1):
        comps = tuple(classify_diagram(d.without_node(k)))
        levi_dim = sum(dimension(c) for c in comps) + 1
        records.append(LeviRecord(k, comps, levi_dim, dim_g - levi_dim))
    return records


def min_levi_codim(t: SimpleType) -> int:
    return min(rec.codim for rec in levi_table(t))


def bds_table(t: SimpleType) -> list[BdSRecord]:
    """One record per node of mark >= 2 in the extended diagram.

    Empty for family A, whose marks are all 1.
    """
    ext = extended_diagram(t)
    dim_g = dimension(t)
    records = []
    for k in range(1, t.rank + 1):
        mark = ext.marks[k]
        if mark < 2:
            continue
        comps = tuple(classify_diagram(ext.without_node(k)))
        codim = dim_g - sum(dimension(c) for c in comps)
        records.append(BdSRecord(k, mark, comps, codim, lattice_index(t, k)))
    return records


def min_bds_codim(t: SimpleType) -> int | None:
    table = bds_table(t)
    return min(rec.codim for rec in table) if table else None


def lattice_index(t: SimpleType, k: int) -> FgAbelianGroup:
    """The quotient of the root lattice by the deleted-node subsystem lattice.

    The subsystem lattice is spanned by the surviving simple roots and the
    lowest root -theta.  Modulo the simple roots e_j (j != k), theta reduces
    to theta_k * e_k, so the quotient is cyclic of order the mark theta_k.
    """
    if not 1 <= k <= t.rank:
        raise CharvarError(f"node {k} out of range for {t}")
    theta = highest_root(t)
    if theta[k - 1] < 2:
        raise CharvarError(
            f"node {k} of {t} has mark {theta[k - 1]}; the subsystem lattice is full"
        )
    return FgAbelianGroup.cyclic(theta[k - 1])
