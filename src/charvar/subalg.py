"""Subalgebra classification tables.

Levi subalgebras of maximal parabolics (delete one node of the Dynkin
diagram) and maximal Borel-de Siebenthal subalgebras (delete a node of
mark >= 2 from the extended diagram), with codimensions and, for the
full-rank case, the index group Z_m.

Every number is read off grading(t, k) = (c_1, ..., c_m), the positive
roots counted by their coefficient at the deleted node k of mark m.  The
Levi codim is 2 * (c_1 + ... + c_m), the BdS codim 2 * (c_1 + ... + c_{m-1})
(Borel-de Siebenthal 1949; Bourbaki, Lie Groups ch. VI, plates).  The derived
types are `rootsys.subsystem_types`, the chain rule read off the same plates:
A_{k-1} + X_{n-k} for a Levi, D_k + B_{n-k}, C_k + C_{n-k} or D_k + D_{n-k}
for a Borel-de Siebenthal subalgebra.  No diagram is built or classified.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .groups import FgAbelianGroup
from .rootsys import SimpleType, dimension, grading, subsystem_types


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


def _levi_codims(t: SimpleType) -> Iterator[int]:
    """Per node, 2 * (c_1 + ... + c_m)."""
    return (2 * sum(grading(t, k)) for k in range(1, t.rank + 1))


def _bds_nodes(t: SimpleType) -> Iterator[tuple[int, int, int]]:
    """(node, mark m, codim 2 * (c_1 + ... + c_{m-1})) per node of mark m >= 2."""
    gradings = ((k, grading(t, k)) for k in range(1, t.rank + 1))
    return ((k, len(c), 2 * sum(c[:-1])) for k, c in gradings if len(c) >= 2)


def levi_table(t: SimpleType) -> list[LeviRecord]:
    """One record per deleted node, codim 2 * (c_1 + ... + c_m); the Levi is
    the derived type plus a GL1."""
    dim_g = dimension(t)
    return [LeviRecord(k, subsystem_types(t, k), dim_g - codim, codim)
            for k, codim in enumerate(_levi_codims(t), start=1)]


def min_levi_codim(t: SimpleType) -> int:
    return min(_levi_codims(t))


def bds_table(t: SimpleType) -> list[BdSRecord]:
    """One record per node of mark m >= 2 in the extended diagram, codim
    2 * (c_1 + ... + c_{m-1}); empty for family A, whose marks are all 1.

    The index group is the root lattice modulo the subsystem lattice, which
    the surviving simple roots and the lowest root -theta span.  Modulo the
    simple roots e_j (j != k), theta reduces to theta_k * e_k, so the
    quotient is Z_{theta_k}, cyclic of order the mark m."""
    return [BdSRecord(k, mark, subsystem_types(t, k, extended=True), codim,
                      FgAbelianGroup.cyclic(mark))
            for k, mark, codim in _bds_nodes(t)]


def min_bds_codim(t: SimpleType) -> int | None:
    return min((codim for _, _, codim in _bds_nodes(t)), default=None)

