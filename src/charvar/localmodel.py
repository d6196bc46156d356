"""Local models at quasi-irreducible classes.

Weight profiles of the circle action on the slice, the topological
singularity criterion, and the rational-homology support of the link of
the cone point.  Weights read `rootsys.grading`; r and M meet `errors`' ceilings.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from itertools import chain

from .errors import MAX_M, CharvarError, require_r
from .rootsys import SimpleType, grading


@dataclass(frozen=True)
class WeightProfile:
    """Nonzero weight multiplicities d_n of the slice representation.

    d_0 is intentionally not computed: it depends on the particular
    representation, and the singularity criterion only reads n >= 1.
    """

    d: dict[int, int]
    simple_type: SimpleType
    node: int
    r: int

    def positive_weight_total(self) -> int:
        return sum(v for n, v in self.d.items() if n >= 1)


def parabolic_weights(t: SimpleType, i: int, r: int) -> WeightProfile:
    """d_{+-n} = (r-1) * c_n, where c_n counts the positive roots with
    alpha_i-coefficient n (`rootsys.grading`); each negative root mirrors a
    positive one."""
    counts = grading(t, i)
    require_r(r, "weight profiles require")
    d = {s * n: (r - 1) * c for n, c in enumerate(counts, start=1) for s in (1, -1)}
    return WeightProfile(d, t, i, r)


def is_topologically_singular(w: WeightProfile) -> bool:
    """The cone point is a topological singularity iff sum_{n>=1} d_n > 1."""
    return w.positive_weight_total() > 1


class Degrees(Set):
    """The degrees {0, 2, ..., 2M} and {2M+1, 2M+3, ..., 4M+1} as a read-only
    set that holds only M.  It equals, and hashes like, the frozenset of the
    same degrees; iteration is ascending."""

    __slots__ = ("M",)

    def __init__(self, M: int):
        self.M = M

    def __len__(self) -> int:
        return 2 * self.M + 2

    def __contains__(self, q) -> bool:
        M = self.M
        return isinstance(q, int) and 0 <= q <= 4 * M + 1 and (q % 2 == 0) == (q <= 2 * M)

    def __iter__(self):
        M = self.M
        return chain(range(0, 2 * M + 1, 2), range(2 * M + 1, 4 * M + 2, 2))

    def __repr__(self) -> str:
        return f"Degrees({self.M})"

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it):
        """Set operators (`dims - {q}`, `dims | other`) give a frozenset."""
        return frozenset(it)


@dataclass(frozen=True)
class HomologySupport:
    M: int
    dims: Degrees


def homology_support(M: int) -> HomologySupport:
    """Degrees with nonzero rational homology of the link for weight space
    dimension M + 1 on each side: {0, 2, ..., 2M} and {2M+1, 2M+3, ..., 4M+1}.
    The support holds only M; M above MAX_M is refused.
    """
    if M < 0:
        raise CharvarError("M must be nonnegative")
    if M > MAX_M:
        raise CharvarError(f"M = {M} is above the ceiling {MAX_M} for a homology support")
    return HomologySupport(M, Degrees(M))


def is_sphere_like(M: int) -> bool:
    """Whether the link has the rational homology of a sphere: its support
    has 2M + 2 degrees, so only M = 0 gives two."""
    if M < 0:
        raise CharvarError("M must be nonnegative")
    return M == 0
