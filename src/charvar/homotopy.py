"""Homotopy groups of simple and reductive Lie groups and of the good locus.

Exceptional values are shipped as an explicit data table with per-entry
provenance; classical families are answered from Bott stable ranges plus
the tabulated unstable pi_5 values.  Everything outside that coverage is
the Unknown group, never a guess.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import bounds
from .errors import CharvarError
from .groups import FgAbelianGroup, GroupDescriptor, Isogeny, center_group
from .rootsys import SimpleType


@dataclass(frozen=True)
class HomotopyDatabase:
    """pi_k values of simple groups keyed by (type, isogeny, k).

    The isogeny key 'any' covers both forms (pi_k is isogeny-independent
    for k >= 2, which the loader enforces by refusing k < 2 entries).
    """

    entries: dict[tuple[SimpleType, str, int], FgAbelianGroup]
    provenance: dict[tuple[SimpleType, str, int], str]

    def lookup(self, t: SimpleType, iso: Isogeny, k: int) -> Optional[FgAbelianGroup]:
        for key in ((t, iso.value, k), (t, "any", k)):
            if key in self.entries:
                return self.entries[key]
        return None


def load_database(path) -> HomotopyDatabase:
    """Parse the flat-text format `type iso k free_rank torsion_csv provenance`."""
    entries: dict[tuple[SimpleType, str, int], FgAbelianGroup] = {}
    provenance: dict[tuple[SimpleType, str, int], str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CharvarError(f"database {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 5)
        if len(parts) < 5:
            raise CharvarError(f"database line {lineno}: expected 5+ fields")
        type_text, iso, k_text, free_text, torsion_text = parts[:5]
        prov = parts[5] if len(parts) > 5 else ""
        if iso not in ("sc", "ad", "any"):
            raise CharvarError(f"database line {lineno}: bad isogeny {iso!r}")
        try:
            t = SimpleType.parse(type_text)
            k = int(k_text)
            if free_text == "?":
                group = FgAbelianGroup.unknown()
            else:
                torsion = [] if torsion_text == "-" else [int(x) for x in torsion_text.split(",")]
                group = FgAbelianGroup.from_torsion(torsion, free_rank=int(free_text))
        except (ValueError, CharvarError) as exc:
            raise CharvarError(f"database line {lineno}: {exc}") from None
        if k < 2:
            raise CharvarError(f"database line {lineno}: k < 2 entries are computed, not stored")
        if k == 2 and group.known and not group.is_trivial():
            raise CharvarError(f"database line {lineno}: pi_2 of a simple group is trivial")
        if k == 3 and group.known and group != FgAbelianGroup.free(1):
            raise CharvarError(f"database line {lineno}: pi_3 of a simple group is Z")
        key = (t, iso, k)
        entries[key] = group
        provenance[key] = prov
    return HomotopyDatabase(entries, provenance)


@functools.cache
def default_database() -> HomotopyDatabase:
    with resources.as_file(
        resources.files("charvar").joinpath("data/pi_exceptional.txt")
    ) as path:
        return load_database(path)


def _bott_stable_limit(t: SimpleType) -> int:
    return {
        "A": 2 * t.rank,
        "B": 2 * t.rank - 3,
        "C": 4 * t.rank + 1,
        "D": 2 * t.rank - 4,
    }[t.family]


def _bott_stable_value(family: str, k: int) -> FgAbelianGroup:
    m = k % 8
    if family == "A":
        return FgAbelianGroup.free(1) if k % 2 else FgAbelianGroup.trivial()
    if family in ("B", "D"):
        if m in (0, 1):
            return FgAbelianGroup.cyclic(2)
        return FgAbelianGroup.free(1) if m in (3, 7) else FgAbelianGroup.trivial()
    # family C
    if m in (3, 7):
        return FgAbelianGroup.free(1)
    return FgAbelianGroup.cyclic(2) if m in (4, 5) else FgAbelianGroup.trivial()


def _pi4_is_z2(t: SimpleType) -> bool:
    # sp(2n) types, counting the B2 = C2 coincidence under its canonical name
    return t == SimpleType("A", 1) or t.family == "C" or t == SimpleType("B", 2)


def _pi5(t: SimpleType) -> FgAbelianGroup:
    if t.family == "A":
        return FgAbelianGroup.cyclic(2) if t.rank == 1 else FgAbelianGroup.free(1)
    if t.family == "B":
        return FgAbelianGroup.cyclic(2) if t.rank == 2 else FgAbelianGroup.trivial()
    if t.family == "C":
        return FgAbelianGroup.cyclic(2)
    return FgAbelianGroup.trivial()  # D_n, n >= 4


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
        db = db or default_database()
        found = db.lookup(t, iso, k)
        return found if found is not None else FgAbelianGroup.unknown()
    if k == 2:
        return FgAbelianGroup.trivial()
    if k == 3:
        return FgAbelianGroup.free(1)
    if k == 4:
        return FgAbelianGroup.cyclic(2) if _pi4_is_z2(t) else FgAbelianGroup.trivial()
    if k == 5:
        return _pi5(t)
    if k <= _bott_stable_limit(t):
        return _bott_stable_value(t.family, k)
    return FgAbelianGroup.unknown()


class Validity(enum.Enum):
    STABLE = "Stable"
    PI0PI1PI2_HYPOTHESIS = "Pi0Pi1Pi2Hypothesis"
    OUT_OF_PROVEN_RANGE = "OutOfProvenRange"


@dataclass(frozen=True)
class HomotopyResult:
    value: FgAbelianGroup
    validity: Validity
    formula_trace: str


def _validity(g: GroupDescriptor, r: int, k: int) -> Validity:
    if g.is_abelian:
        # the variety is a torus and the formula is exact in every degree
        return Validity.STABLE
    if 0 <= k <= bounds.stable_range(g, r):
        return Validity.STABLE
    if k <= 2 and (r >= 3 or g.semisimple_rank >= 2):
        return Validity.PI0PI1PI2_HYPOTHESIS
    return Validity.OUT_OF_PROVEN_RANGE


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
    if r < 2:
        raise CharvarError("good-locus homotopy requires free-group rank r >= 2")
    if k < 0:
        raise CharvarError("negative homotopy degree")
    validity = _validity(g, r, k)
    if k == 0:
        return HomotopyResult(FgAbelianGroup.trivial(), validity, "pi_0 = 0")
    pik = pi_group(g, k, db)
    pg = pi_group(g.adjoint(), k - 1, db)
    value = pik.power(r).direct_sum(pg)
    trace = f"pi_{k}(G)^{r} + pi_{k - 1}(PG) = ({pik})^{r} + ({pg})"
    return HomotopyResult(value, validity, trace)
