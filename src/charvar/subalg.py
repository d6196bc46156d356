"""Subalgebra classification tables.

Levi subalgebras of maximal parabolics (delete one node of the Dynkin
diagram) and maximal Borel-de Siebenthal subalgebras (delete a node of
mark >= 2 from the extended diagram), with codimensions and, for the
full-rank case, the index group Z_m.

Every number is read off grading(t, k) = (c_1, ..., c_m), the positive
roots counted by their coefficient at the deleted node k of mark m; the
tables and minima of a type share one pass, `rootsys.gradings(t)`.  The
Levi codim is 2 * (c_1 + ... + c_m), the BdS codim 2 * (c_1 + ... + c_{m-1})
(Borel-de Siebenthal 1949; Bourbaki, Lie Groups ch. VI, plates).  The derived
types are `rootsys.subsystem_types`, the chain rule read off the same plates:
A_{k-1} + X_{n-k} for a Levi, D_k + B_{n-k}, C_k + C_{n-k} or D_k + D_{n-k}
for a Borel-de Siebenthal subalgebra.  No diagram is built or classified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FgAbelianGroup
from .rootsys import SimpleType, dimension, gradings, subsystem_types


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
    the derived type plus a GL1."""
    dim_g = dimension(t)
    return [LeviRecord(k, subsystem_types(t, k), dim_g - codim, codim)
            for k, codim in enumerate((2 * sum(c) for c in gradings(t)), start=1)]


def min_levi_codim(t: SimpleType) -> int:
    return 2 * min(map(sum, gradings(t)))


def bds_table(t: SimpleType) -> list[BdSRecord]:
    """One record per node of mark m >= 2 in the extended diagram, codim
    2 * (c_1 + ... + c_{m-1}); empty for family A, whose marks are all 1.

    The index group is the root lattice modulo the subsystem lattice, which
    the surviving simple roots and the lowest root -theta span.  Modulo the
    simple roots e_j (j != k), theta reduces to theta_k * e_k, so the
    quotient is Z_{theta_k}, cyclic of order the mark m.  Groups are frozen,
    so the rows of one mark share one Z_m."""
    rows = [(k, c) for k, c in enumerate(gradings(t), start=1) if len(c) >= 2]
    index = {m: FgAbelianGroup.cyclic(m) for m in {len(c) for _, c in rows}}
    return [BdSRecord(k, len(c), subsystem_types(t, k, extended=True), 2 * sum(c[:-1]),
                      index[len(c)])
            for k, c in rows]


def min_bds_codim(t: SimpleType) -> int | None:
    return min((2 * sum(c[:-1]) for c in gradings(t) if len(c) >= 2), default=None)
