"""Abelian groups, reductive group descriptors, centers, CI decision.

A group is described by a central torus rank and a list of simple factors,
each simply connected or adjoint.  Centers come from `rootsys.center_orders`;
pi_k of a group, the fundamental group included, is `homotopy.pi_group`.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter, defaultdict

from .errors import MAX_FACTOR_BITS, MAX_RANK, CharvarError, parse_digits, require_at_most
from .rootsys import Frozen, SimpleType, center_orders


class Isogeny(enum.Enum):
    SIMPLY_CONNECTED = "sc"
    ADJOINT = "ad"


# A primary form: for each key b of a pairwise coprime base, the number of
# summands Z_{b^e} for each exponent e, every count positive.  A prime p of b
# has v_p = v_p(b) e, so the invariant factors come out as if b were prime.
Primary = dict[int, dict[int, int]]


def _normalise(parts) -> Primary:
    """Primary form of the sum over the parts (b, {e: count}) of `count`
    copies of Z_{b^e}, keyed by a coprime base built from gcds alone.

    Factor refinement (Bach, Driscoll and Shallit 1993): where a key x meets
    a base key y in g = gcd(x, y) > 1, y splits into g and y/g and g is
    stripped from x by repeated squares, in steps logarithmic in its
    exponent.  A key carries its exponent v in each part's b, and
    Z_{b^e} is the sum of the Z_{c^(e v)}.
    """
    if len(parts) < 2:  # one key is a coprime base; forms are shared, never mutated
        return {b: counts for b, counts in parts if b > 1}
    base: dict[int, dict[int, int]] = {}  # key -> {part: exponent of the key in its b}
    todo = [(b, {j: 1}) for j, (b, _) in enumerate(parts) if b > 1]
    while todo:
        x, vx = todo.pop()
        for y in (x,) if x in base else base:  # a repeated key is found at once
            g = math.gcd(x, y)
            if g > 1:
                break
        else:
            base[x] = vx
            continue
        if g < y:  # g and y/g divide y, so both are coprime to the other keys
            todo.append((y // g, base[y]))
            base[g] = dict(base.pop(y))
        k, steps, q, e = 0, [], g, 1  # strip g, g^2, g^4, ..., then halve back down
        while x % q == 0:
            x, k = x // q, k + e
            steps.append((q, e))
            q, e = q * q, 2 * e
        for q, e in reversed(steps):
            if x % q == 0:
                x, k = x // q, k + e
        into = base[g]
        into.update({j: into.get(j, 0) + k * v for j, v in vx.items()})
        if x > 1:
            todo.append((x, vx))
    primary: Primary = {}
    for c, exponents in base.items():
        counts = primary[c] = {}
        for j, v in exponents.items():
            for e, n in parts[j][1].items():
                counts[e * v] = counts.get(e * v, 0) + n
    return primary


def _primary_of(moduli) -> Primary:
    """Primary form of the sum of Z_m over the sequence `moduli`.

    An order <= 0 is reported first.  The lcm of the moduli, the largest
    invariant factor, is checked against MAX_FACTOR_BITS as it grows,
    before any base is built."""
    counts = Counter(moduli) if len(moduli) > 1 else dict.fromkeys(moduli, 1)
    for m in counts:
        if m <= 0:
            raise CharvarError(f"invalid cyclic order {m}")
    largest = 1
    for m in counts:
        largest = math.lcm(largest, m)
        _check_factor_bits(largest, "at least ")
    return _normalise([(m, {1: count}) for m, count in counts.items()])


def _check_factor_bits(factor: int, bound: str = "") -> None:
    """`bound` is "at least " where `factor` only divides the largest factor."""
    if factor.bit_length() > MAX_FACTOR_BITS:
        raise CharvarError(f"an invariant factor of {bound}{factor.bit_length()} bits is above"
                           f" the ceiling of {MAX_FACTOR_BITS} bits")


def _invariant_factors(primary: Primary) -> tuple[int, ...]:
    """d_1 | d_2 | ... of a primary form, built one run of equal factors at a time.

    The i-th largest factor is the product of each key's i-th largest
    power.  A key's power drops only at the slot where its count for one
    exponent runs out, so the factors are constant between those slots.
    An empty form has no factors, and a form of one Z_{b^e} is b^e repeated.
    """
    if not primary:
        return ()
    if len(primary) == 1:
        [(b, counts)] = primary.items()
        if len(counts) == 1:  # one factor, repeated
            [(e, count)] = counts.items()
            factor = b**e
            _check_factor_bits(factor)
            return (factor,) * count
    largest = 1
    drops: dict[int, int] = defaultdict(lambda: 1)  # slot -> what the factor loses there
    for b, counts in primary.items():
        exponents = sorted(counts, reverse=True)
        largest *= b ** exponents[0]
        slot = 0
        for e, lower in zip(exponents, exponents[1:] + [0]):
            slot += counts[e]
            drops[slot] *= b ** (e - lower)
    _check_factor_bits(largest)
    runs = []  # (factor, how many), largest first
    factor, start = largest, 0
    for slot in sorted(drops):
        runs.append((factor, slot - start))
        factor, start = factor // drops[slot], slot
    factors: list[int] = []
    below = 1
    for factor, n in reversed(runs):
        if factor < 2:
            raise CharvarError("invariant factors must be >= 2")
        if factor % below:
            raise CharvarError(f"not a divisibility chain: {below}, {factor}")
        factors += [factor] * n
        below = factor
    return tuple(factors)


class FgAbelianGroup(Frozen):
    """Finitely generated abelian group, printed in invariant-factor form.

    A group built by `from_torsion`, `direct_sum` or `power` is stored as its
    free rank plus its primary form, a count of summands Z_{b^e} for each
    power of a key b of a coprime base: powers multiply the counts, and sums
    refine the summands' keys into one base by gcds alone.  `invariant_factors`
    (d_1 | d_2 | ...) is derived from the counts only where the primary form
    changes: a sum with at most one torsion summand keeps that summand's
    factors and form and adds the free ranks.  `from_torsion` keeps moduli
    that are already invariant factors as given.  A group built from its
    fields (the constructor, `cyclic`) or from such a chain of two or more
    factors derives its primary form on first use.
    ``known=False`` is the Unknown marker; it absorbs direct sums.
    """

    free_rank: int
    invariant_factors: tuple[int, ...]
    known: bool

    def __init__(self, free_rank: int = 0, invariant_factors: tuple[int, ...] = (),
                 known: bool = True) -> None:
        if known:
            if free_rank < 0:
                raise CharvarError("negative free rank")
            for a, b in zip(invariant_factors, invariant_factors[1:]):
                if b % a:
                    raise CharvarError(f"not a divisibility chain: {invariant_factors}")
            if any(d < 2 for d in invariant_factors):
                raise CharvarError("invariant factors must be >= 2")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "known", known)

    @classmethod
    def _from_primary(cls, free_rank: int, primary: Primary) -> "FgAbelianGroup":
        """Z^free_rank plus the primary form; `_invariant_factors` checks the
        chain, so `__init__` is not run."""
        if free_rank < 0:
            raise CharvarError("negative free rank")
        group = cls.__new__(cls)
        vars(group).update(free_rank=free_rank, known=True, _primary=primary,
                           invariant_factors=_invariant_factors(primary))
        return group

    def _primary_form(self) -> Primary:
        primary = self.__dict__.get("_primary")
        if primary is None:
            primary = _primary_of(self.invariant_factors)
            object.__setattr__(self, "_primary", primary)
        return primary

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls()

    @classmethod
    def free(cls, n: int) -> "FgAbelianGroup":
        return cls(free_rank=n)

    @classmethod
    def cyclic(cls, m: int) -> "FgAbelianGroup":
        if m <= 0:
            raise CharvarError(f"invalid cyclic order {m}")
        return cls(invariant_factors=(m,) if m > 1 else ())

    @classmethod
    def unknown(cls) -> "FgAbelianGroup":
        return cls(known=False)

    @classmethod
    def from_torsion(cls, moduli, free_rank: int = 0) -> "FgAbelianGroup":
        """Z^free_rank plus the sum of Z_m over `moduli`, any cyclic orders.

        Moduli already in invariant-factor form, each >= 2 and dividing the
        next (as the shipped table writes them), are kept as given: each is
        checked against MAX_FACTOR_BITS in order, with the wording of the
        lcm check, and one modulus m is its own primary form {m: {1: 1}}.
        Any other list (an order <= 0, a 1, a non-chain) is normalised by
        `_primary_of`, which reports its errors in the same order.
        """
        moduli = tuple(moduli)
        # invariant factors: the first >= 2, and each divides the next, so is no smaller
        if (moduli and moduli[0] < 2
                or not all(a <= b and b % a == 0 for a, b in zip(moduli, moduli[1:]))):
            return cls._from_primary(free_rank, _primary_of(moduli))
        for m in moduli:
            _check_factor_bits(m, "at least ")
        if free_rank < 0:
            raise CharvarError("negative free rank")
        group = cls.__new__(cls)
        vars(group).update(free_rank=free_rank, known=True, invariant_factors=moduli)
        if len(moduli) < 2:  # a longer chain derives its primary form on first use
            group.__dict__["_primary"] = {m: {1: 1} for m in moduli}
        return group

    def direct_sum(self, *others: "FgAbelianGroup") -> "FgAbelianGroup":
        """The direct sum of this group and any number of others."""
        summands = (self, *others)
        if not all(a.known for a in summands):
            return FgAbelianGroup.unknown()
        free_rank = sum(a.free_rank for a in summands)
        torsion = [a for a in summands if a.invariant_factors]
        if len(torsion) > 1:
            primary = _normalise([part for a in torsion for part in a._primary_form().items()])
            return FgAbelianGroup._from_primary(free_rank, primary)
        # A + Z^n has the torsion of A: its factors and primary form are kept
        group = FgAbelianGroup.__new__(FgAbelianGroup)
        vars(group).update(vars(torsion[0] if torsion else self), free_rank=free_rank)
        return group

    def power(self, n: int) -> "FgAbelianGroup":
        if n < 0:
            raise CharvarError("negative power")
        if not self.known:
            return FgAbelianGroup.unknown()
        if n == 0:
            return FgAbelianGroup.trivial()
        return FgAbelianGroup._from_primary(self.free_rank * n, {
            b: {e: count * n for e, count in counts.items()}
            for b, counts in self._primary_form().items()
        })

    def order(self) -> int | None:
        """Group order, or None when infinite or unknown."""
        if not self.known or self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def is_trivial(self) -> bool:
        return self.known and not self.free_rank and not self.invariant_factors

    def __str__(self) -> str:
        if not self.known:
            return "?"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


class GroupDescriptor(Frozen):
    """A connected reductive group: central torus times simple factors."""

    torus_rank: int
    factors: tuple[tuple[SimpleType, Isogeny], ...]

    def __init__(self, torus_rank: int = 0,
                 factors: tuple[tuple[SimpleType, Isogeny], ...] = ()) -> None:
        if torus_rank < 0:
            raise CharvarError("negative torus rank")
        require_at_most(torus_rank, MAX_RANK, "torus rank")
        object.__setattr__(self, "torus_rank", torus_rank)
        object.__setattr__(self, "factors", factors)

    @property
    def semisimple_rank(self) -> int:
        """Rank of the derived subgroup DG."""
        return sum(t.rank for t, _ in self.factors)

    @property
    def is_abelian(self) -> bool:
        return not self.factors

    def adjoint(self) -> "GroupDescriptor":
        """PG = G / Z(G): the adjoint forms of the factors, no torus."""
        return GroupDescriptor(0, tuple((t, Isogeny.ADJOINT) for t, _ in self.factors))

    def __str__(self) -> str:
        parts = []
        if self.torus_rank:
            parts.append(f"T^{self.torus_rank}")
        parts.extend(f"{t}[{iso.value}]" for t, iso in self.factors)
        return " x ".join(parts) if parts else "T^0"


_FACTOR_RE = re.compile(r"^([A-G]\d+)(?:\[(sc|ad)\])?$")
_TORUS_RE = re.compile(r"^T\^(\d+)$")


def parse_group(text: str) -> GroupDescriptor:
    """Parse the descriptor grammar `T^k x F1[iso] x F2[iso] ...`.

    iso is `sc` or `ad` and defaults to `sc`; examples: `E8`,
    `T^1 x A3[sc]`, `A1[ad] x D5[sc]`.
    """
    torus = 0
    factors = []
    terms = [term.strip() for term in text.split("x")]
    if terms == [""]:
        raise CharvarError("empty group descriptor")
    for idx, term in enumerate(terms):
        m = _TORUS_RE.match(term)
        if m:
            if idx != 0:
                raise CharvarError("torus term must come first")
            torus = parse_digits(m.group(1), "torus rank")
            continue
        m = _FACTOR_RE.match(term)
        if not m:
            raise CharvarError(f"cannot parse factor {term!r} in {text!r}")
        t = SimpleType.parse(m.group(1))
        iso = Isogeny(m.group(2) or "sc")
        factors.append((t, iso))
    return GroupDescriptor(torus, tuple(factors))


def center_group(t: SimpleType) -> FgAbelianGroup:
    """Center of the simply connected form, from `rootsys.center_orders`."""
    return FgAbelianGroup.from_torsion(center_orders(t))


def is_ci(g: GroupDescriptor) -> tuple[bool, str]:
    """Whether every irreducible subgroup has centralizer equal to the center.

    Holds exactly when the derived subgroup is a product of special linear
    groups, i.e. every factor is type A and simply connected.
    """
    for t, iso in g.factors:
        if t.family != "A":
            return False, f"factor {t} is not of type A"
        if iso is not Isogeny.SIMPLY_CONNECTED:
            return False, f"factor {t} is not simply connected"
    return True, "derived subgroup is a product of special linear groups"


def min_simple_rank(g: GroupDescriptor) -> int:
    """Minimum rank over the simple factors."""
    if g.is_abelian:
        raise CharvarError("minimum simple rank is undefined for abelian groups")
    return min(t.rank for t, _ in g.factors)
