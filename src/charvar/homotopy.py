"""Homotopy groups of simple and reductive Lie groups and of the good locus.

Exceptional values are shipped as a data table, read as a mapping from
(type, k) to a `Cell`: the group, its source and its line. The shipped
table is parsed one type at a time, on that type's first use; a `--db`
file is read and checked whole. For k >= 2 pi_k does not depend on the
isogeny, since G_sc -> G has a finite fibre.
Classical families are answered from Bott's table inside the stable range
of each family's fibration G_n -> G_{n+1} -> sphere. Everything outside
that coverage is the Unknown group, never a guess.
"""

from __future__ import annotations

import enum
import functools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from . import bounds
from .errors import (MAX_DB_CHARS, MAX_FACTORS, MAX_RANK, CharvarError, parse_digits,
                     require_at_most, require_r)
from .groups import FgAbelianGroup, GroupDescriptor, Isogeny, center_group
from .rootsys import SimpleType


class Cell(NamedTuple):
    """pi_k of one (type, k), the source its line names, and that line's number."""

    group: FgAbelianGroup
    source: str
    line: int


# pi_k values of simple groups keyed by (type, k), for k >= 2 only.
HomotopyDatabase = dict[tuple[SimpleType, int], Cell]


def _parse_group_field(free_text: str, torsion_text: str) -> FgAbelianGroup:
    if free_text == "?":
        if torsion_text not in ("?", "-"):
            raise CharvarError(f"torsion {torsion_text!r} after an unknown free rank: use ? or -")
        return FgAbelianGroup.unknown()
    if torsion_text == "?":
        raise CharvarError("torsion '?' needs an unknown free rank: use ? ?")
    torsion = ([] if torsion_text == "-" else
               [parse_digits(x, "torsion modulus") for x in torsion_text.split(",")])
    free_rank = parse_digits(free_text, "free rank")
    require_at_most(free_rank, MAX_RANK, "free rank")
    return FgAbelianGroup.from_torsion(torsion, free_rank=free_rank)


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(MAX_DB_CHARS + 1)
    except UnicodeDecodeError as exc:
        raise CharvarError(f"database {path}: {exc}") from None
    if len(text) > MAX_DB_CHARS:
        raise CharvarError(f"database {path}: longer than the ceiling of {MAX_DB_CHARS} characters")
    return text


def _numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each stripped line that is neither blank nor a comment, with its number."""
    # text mode read \r\n and \r as \n; splitlines() would break a provenance at \x0c, U+2028...
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse(lines: Iterable[tuple[int, str]]) -> HomotopyDatabase:
    """Check and parse numbered lines of the format `load_database` reads."""
    cells: HomotopyDatabase = {}
    # each distinct label and group text is parsed once, on its first line
    types: dict[str, SimpleType] = {}
    groups: dict[tuple[str, str], FgAbelianGroup] = {}
    for lineno, line in lines:
        try:
            parts = line.split(None, 5)
            if len(parts) < 5:
                raise CharvarError("expected 5+ fields")
            type_text, iso, k_text, free_text, torsion_text = parts[:5]
            if iso not in ("sc", "ad", "any"):
                raise CharvarError(f"bad isogeny {iso!r}")
            t = types.get(type_text)
            if t is None:
                t = types[type_text] = SimpleType.parse(type_text)
            if t.family not in "EFG":
                raise CharvarError(f"{t} is classical: only E6-E8, F4 and G2 are stored")
            k = parse_digits(k_text, "k")
            group = groups.get((free_text, torsion_text))
            if group is None:
                group = groups[free_text, torsion_text] = _parse_group_field(free_text, torsion_text)
            if k < 2:
                raise CharvarError("k < 2 entries are computed, not stored")
            if k == 2 and group.known and not group.is_trivial():
                raise CharvarError("pi_2 of a simple group is trivial")
            if k == 3 and group.known and group != _Z:
                raise CharvarError("pi_3 of a simple group is Z")
            source = parts[5] if len(parts) > 5 else ""
            cell = cells.setdefault((t, k), Cell(group, source, lineno))
            if cell.line != lineno:
                raise CharvarError(f"duplicate of line {cell.line} ({t} k={k})")
        except (ValueError, CharvarError) as exc:
            raise CharvarError(f"database line {lineno}: {exc}") from None
    return cells


def load_database(path) -> HomotopyDatabase:
    """Parse the flat-text format `type iso k free_rank torsion_csv provenance`.

    Only E6-E8, F4 and G2 are stored: classical types are answered from
    Bott's table.  `sc`, `ad` and `any` name the same cell: one line per
    type and k.  The whole file is read and every line checked.
    """
    return _parse(_numbered_lines(_read(path)))


@functools.cache
def _shipped_cells(t: SimpleType) -> HomotopyDatabase:
    """The shipped table's cells of one type, parsed on its first use.

    Only the lines whose first field is `t`'s label are parsed; they keep
    their line numbers in the whole file.
    """
    label = str(t)
    text = _read(os.path.join(os.path.dirname(__file__), "data", "pi_exceptional.txt"))
    return _parse((lineno, line) for lineno, line in _numbered_lines(text)
                  if line.split(None, 1)[0] == label)


def default_database() -> HomotopyDatabase:
    """The whole shipped table: the cells of E6, E7, E8, F4 and G2."""
    db: HomotopyDatabase = {}
    for label in ("E6", "E7", "E8", "F4", "G2"):
        db.update(_shipped_cells(SimpleType.parse(label)))
    return db


# pi_k of the stable groups U, O and Sp, indexed by k mod 8 (Bott 1959),
# and the stable range k <= a*n + b of each family's fibration
# G_m -> G_{m+1} -> sphere (Steenrod, Topology of Fibre Bundles, sec. 25):
# k <= 2m-1 on SU(m), m-2 on Spin(m), 4m+1 on Sp(m), where A_n is SU(n+1),
# B_n Spin(2n+1), C_n Sp(n) and D_n Spin(2n).
_0, _Z, _Z2 = FgAbelianGroup.trivial(), FgAbelianGroup.free(1), FgAbelianGroup.cyclic(2)
_O = (_Z2, _Z2, _0, _Z, _0, _0, _0, _Z)
_BOTT = {
    "A": ((_0, _Z, _0, _Z, _0, _Z, _0, _Z), 2, 1),
    "B": (_O, 2, -1),
    "C": ((_0, _0, _0, _Z, _Z2, _Z2, _0, _Z), 4, 1),
    "D": (_O, 2, -2),
}


def _bott_stable_value(family: str, k: int) -> FgAbelianGroup:
    return _BOTT[family][0][k % 8]


def pi_simple(
    t: SimpleType,
    iso: Isogeny,
    k: int,
    db: Optional[HomotopyDatabase] = None,
) -> FgAbelianGroup:
    """pi_k of a simple group; Unknown outside the proven coverage."""
    if k < 0:
        raise CharvarError("negative homotopy degree")
    if k == 0:
        return FgAbelianGroup.trivial()
    if k == 1:
        if iso is Isogeny.SIMPLY_CONNECTED:
            return FgAbelianGroup.trivial()
        return center_group(t)
    if t.family in "EFG":
        cell = (_shipped_cells(t) if db is None else db).get((t, k))
        return FgAbelianGroup.unknown() if cell is None else cell.group
    # SU(2) = Sp(1) and Spin(5) = Sp(2) are read along the symplectic chain
    n = t.rank
    family = "C" if (t.family, n) in (("A", 1), ("B", 2)) else t.family
    _, a, b = _BOTT[family]
    return _bott_stable_value(family, k) if k <= a * n + b else FgAbelianGroup.unknown()


class Validity(enum.Enum):
    STABLE = "Stable"
    OUT_OF_PROVEN_RANGE = "OutOfProvenRange"


@dataclass(frozen=True)
class HomotopyResult:
    value: FgAbelianGroup
    validity: Validity
    formula_trace: str


def _validity(g: GroupDescriptor, r: int, k: int) -> Validity:
    # for abelian g the variety is a torus and the formula is exact in every degree
    stable = g.is_abelian or 0 <= k <= bounds.stable_range(g, r)
    return Validity.STABLE if stable else Validity.OUT_OF_PROVEN_RANGE


def pi_group(g: GroupDescriptor, k: int, db: Optional[HomotopyDatabase] = None) -> FgAbelianGroup:
    """pi_k of a reductive group: Z^torus in degree 1 plus pi_k of each factor."""
    if k < 0:
        raise CharvarError("negative homotopy degree")
    torus = FgAbelianGroup.free(g.torus_rank if k == 1 else 0)
    return torus.direct_sum(*(pi_simple(t, iso, k, db) for t, iso in g.factors))


def good_locus_homotopy(
    g: GroupDescriptor,
    r: int,
    k: int,
    db: Optional[HomotopyDatabase] = None,
) -> HomotopyResult:
    """pi_k of the good locus of the rank-r character variety of g.

    The value is pi_k(G)^r + pi_{k-1}(PG); validity records whether the
    splitting is proven at this (g, r, k).
    """
    require_r(r, "good-locus homotopy requires")
    validity = _validity(g, r, k)
    if k == 0:
        return HomotopyResult(FgAbelianGroup.trivial(), validity, "pi_0 = 0")
    pik = pi_group(g, k, db)
    factors = r * len(pik.invariant_factors)
    if factors > MAX_FACTORS:
        raise CharvarError(f"pi_{k}(G)^{r} has {factors} invariant factors,"
                           f" above the ceiling {MAX_FACTORS}")
    pg = pi_group(g.adjoint(), k - 1, db)
    value = pik.power(r).direct_sum(pg)
    trace = f"pi_{k}(G)^{r} + pi_{k - 1}(PG) = ({pik})^{r} + ({pg})"
    return HomotopyResult(value, validity, trace)
