"""Codimension lower bounds and the singular-locus classification report.

All codimension outputs are lower bounds read off the factors' ranks, never
exact values: 2(r-1) times the minimum simple rank for the bad locus and
(r-1) times the semisimple rank for the reducible locus.  Callers should
present them with a ">="; `errors.require_r` checks every r.
"""

from __future__ import annotations

import enum

from .errors import require_r
from .groups import GroupDescriptor, min_simple_rank
from .rootsys import Frozen


def codim_bad_lower(g: GroupDescriptor, r: int) -> int:
    """Lower bound on the complex codimension of the bad locus.

    2(r-1) times the minimum simple-factor rank.  For abelian g the bad
    locus is empty and the whole space's dimension r*dim(G) is returned.
    """
    require_r(r)
    if g.is_abelian:
        return r * g.torus_rank
    return 2 * (r - 1) * min_simple_rank(g)


def codim_red_lower(g: GroupDescriptor, r: int) -> int:
    """Lower bound on the complex codimension of the reducible locus."""
    require_r(r)
    return (r - 1) * g.semisimple_rank


def c_pasbon_lower(g: GroupDescriptor, r: int) -> int:
    """Lower bound on the real codimension of the non-good locus."""
    return 2 * min(codim_bad_lower(g, r), codim_red_lower(g, r))


def stable_range(g: GroupDescriptor, r: int) -> int:
    """Largest k for which the good-locus homotopy splitting is proven."""
    return c_pasbon_lower(g, r) - 2


class CodimReport(Frozen):
    group: GroupDescriptor
    r: int
    bad_lower: int
    red_lower: int
    c_pasbon_lower: int
    stable_k_max: int

    def __init__(self, group: GroupDescriptor, r: int, bad_lower: int, red_lower: int,
                 c_pasbon_lower: int, stable_k_max: int) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "bad_lower", bad_lower)
        object.__setattr__(self, "red_lower", red_lower)
        object.__setattr__(self, "c_pasbon_lower", c_pasbon_lower)
        object.__setattr__(self, "stable_k_max", stable_k_max)


def codim_report(g: GroupDescriptor, r: int) -> CodimReport:
    return CodimReport(
        group=g,
        r=r,
        bad_lower=codim_bad_lower(g, r),
        red_lower=codim_red_lower(g, r),
        c_pasbon_lower=c_pasbon_lower(g, r),
        stable_k_max=stable_range(g, r),
    )


class Verdict(enum.Enum):
    FULL_CLASSIFICATION = "FullClassification"
    UNDETERMINED_R2_RANK1 = "Undetermined_r2_rank1"
    RANK_ONE_FREE_GROUP = "RankOneFreeGroup"
    ABELIAN = "Abelian"


class SingularLocusReport(Frozen):
    verdict: Verdict
    statements: tuple[str, ...]

    def __init__(self, verdict: Verdict, statements: tuple[str, ...]) -> None:
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "statements", statements)


def classify_singular_locus(g: GroupDescriptor, r: int) -> SingularLocusReport:
    """Decide how much of the singular locus is classified for (g, r)."""
    require_r(r, "the singular-locus classification requires", least=1)
    if g.is_abelian:
        return SingularLocusReport(
            Verdict.ABELIAN,
            (
                "the character variety of an abelian group is a torus quotient",
                "every representation class is a smooth point",
            ),
        )
    if r == 1:
        return SingularLocusReport(
            Verdict.RANK_ONE_FREE_GROUP,
            (
                "for a rank-one free group the variety is the adjoint quotient",
                "the smooth/singular dichotomy below does not apply",
            ),
        )
    if r >= 3 or min_simple_rank(g) >= 2:
        return SingularLocusReport(
            Verdict.FULL_CLASSIFICATION,
            (
                "the singular locus equals the union of the reducible and bad loci",
                "every reducible representation class is a topological singularity",
                "every bad representation class is a topological singularity",
            ),
        )
    return SingularLocusReport(
        Verdict.UNDETERMINED_R2_RANK1,
        (
            "r = 2 with a rank-one simple factor: the classification is open",
            "reducible classes can be smooth points: X_2(SL_2) = C^3 (Fricke-Vogt)",
        ),
    )
