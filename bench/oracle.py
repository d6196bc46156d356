"""Independent Lie-theoretic reference data for checking charvar's answers.

Nothing here imports charvar.  Every value is a closed form or a table
from the literature, so a check built on it does not replay the
program's own algorithm:

- dimensions, positive-root counts, highest-root marks and centers of the
  simple types: Bourbaki, Lie Groups and Lie Algebras ch. VI, Plates I-IX;
- Levi types of maximal parabolics: delete node k from the Bourbaki
  diagram (the chain rule below for A-D, the plates for E, F, G);
- maximal Borel-de Siebenthal subalgebras: A. Borel and J. de Siebenthal,
  Les sous-groupes fermes de rang maximum des groupes de Lie clos,
  Comment. Math. Helv. 23 (1949) 200-221 (equivalently: delete a node of
  mark >= 2 from the affine diagrams of Kac, Infinite Dimensional Lie
  Algebras, Table Aff 1);
- stable homotopy of the classical groups: R. Bott, The stable homotopy
  of the classical groups, Ann. of Math. 70 (1959) 313-337;
- pi_k of the exceptional groups: the values shipped in charvar's own
  database file, read by the small parser below (Mimura 1967,
  Mimura-Toda).

A type is a pair ``(family, rank)``; a list of types is compared as a
sorted tuple.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

_EXCEPTIONAL_DIM = {("G", 2): 14, ("F", 4): 52, ("E", 6): 78, ("E", 7): 133, ("E", 8): 248}


def dim(family: str, n: int) -> int:
    """Dimension of the simple Lie algebra (closed form)."""
    if family == "A":
        return n * (n + 2)
    if family in "BC":
        return n * (2 * n + 1)
    if family == "D":
        return n * (2 * n - 1)
    return _EXCEPTIONAL_DIM[(family, n)]


def positive_root_count(family: str, n: int) -> int:
    return (dim(family, n) - n) // 2


def canon(family: str, n: int) -> list[tuple[str, int]]:
    """Components of a type label after the low-rank coincidences.

    B1 = C1 = A1, C2 = B2, D2 = A1 x A1, D3 = A3; rank 0 is empty.
    """
    if n == 0:
        return []
    if family in "BC" and n == 1:
        return [("A", 1)]
    if family == "C" and n == 2:
        return [("B", 2)]
    if family == "D" and n == 2:
        return [("A", 1), ("A", 1)]
    if family == "D" and n == 3:
        return [("A", 3)]
    return [(family, n)]


def _types(text: str) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((t[0], int(t[1:])) for t in text.split()))


# Levi type left after deleting node k of an exceptional diagram (Plates V-IX).
_EXCEPTIONAL_LEVI = {
    ("G", 2): {1: "A1", 2: "A1"},
    ("F", 4): {1: "C3", 2: "A1 A2", 3: "A2 A1", 4: "B3"},
    ("E", 6): {1: "D5", 2: "A5", 3: "A1 A4", 4: "A1 A2 A2", 5: "A4 A1", 6: "D5"},
    ("E", 7): {1: "D6", 2: "A6", 3: "A1 A5", 4: "A1 A2 A3", 5: "A4 A2",
               6: "D5 A1", 7: "E6"},
    ("E", 8): {1: "D7", 2: "A7", 3: "A1 A6", 4: "A1 A2 A4", 5: "A4 A3",
               6: "D5 A2", 7: "E6 A1", 8: "E7"},
}


def levi_types(family: str, n: int, k: int) -> tuple[tuple[str, int], ...]:
    """Derived type of the Levi of the maximal parabolic at node k."""
    if family in EXCEPTIONAL_RANKS:
        return _types(_EXCEPTIONAL_LEVI[(family, n)][k])
    left = canon("A", k - 1)
    if family == "D" and k >= n - 1:
        return tuple(sorted(canon("A", n - 1)))
    return tuple(sorted(left + canon(family, n - k)))


def marks(family: str, n: int) -> tuple[int, ...]:
    """Coefficients of the highest root on the simple roots (Bourbaki order)."""
    if family == "A":
        return (1,) * n
    if family == "B":
        return (1,) + (2,) * (n - 1)
    if family == "C":
        return (2,) * (n - 1) + (1,)
    if family == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return {
        ("G", 2): (3, 2),
        ("F", 4): (2, 3, 4, 2),
        ("E", 6): (1, 2, 2, 3, 2, 1),
        ("E", 7): (2, 2, 3, 4, 3, 2, 1),
        ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
    }[(family, n)]


# Maximal Borel-de Siebenthal subalgebras of the exceptional algebras: the
# node deleted from the extended diagram and the type that remains
# (Borel-de Siebenthal 1949).
BDS_LITERATURE = {
    ("G", 2): {1: "A2", 2: "A1 A1"},
    ("F", 4): {1: "A1 C3", 2: "A2 A2", 3: "A3 A1", 4: "B4"},
    ("E", 6): {2: "A1 A5", 3: "A1 A5", 4: "A2 A2 A2", 5: "A5 A1"},
    ("E", 7): {1: "A1 D6", 2: "A7", 3: "A2 A5", 4: "A3 A1 A3", 5: "A5 A2",
               6: "D6 A1"},
    ("E", 8): {1: "D8", 2: "A8", 3: "A1 A7", 4: "A2 A1 A5", 5: "A4 A4",
               6: "D5 A3", 7: "E6 A2", 8: "E7 A1"},
}


def bds_types(family: str, n: int, k: int) -> tuple[tuple[str, int], ...]:
    """Type left after deleting node k (mark >= 2) of the extended diagram.

    Classical chain rule: the extended diagram splits at node k into two
    classical pieces (B: D_k x B_{n-k}; C: C_k x C_{n-k}; D: D_k x D_{n-k}).
    """
    if family in EXCEPTIONAL_RANKS:
        return _types(BDS_LITERATURE[(family, n)][k])
    left = {"B": "D", "C": "C", "D": "D"}[family]
    return tuple(sorted(canon(left, k) + canon(family, n - k)))


def center_orders(family: str, n: int) -> list[int]:
    """Cyclic orders of the center of the simply connected group."""
    if family == "A":
        return [n + 1]
    if family in "BC":
        return [2]
    if family == "D":
        return [4] if n % 2 else [2, 2]
    return {("E", 6): [3], ("E", 7): [2]}.get((family, n), [])


def levi_root_count(family: str, n: int, k: int) -> int:
    """#{positive roots whose alpha_k coefficient is positive}."""
    return positive_root_count(family, n) - sum(
        positive_root_count(f, m) for f, m in levi_types(family, n, k)
    )


# ---------------------------------------------------------------------------
# homotopy groups: a group is (free_rank, [cyclic orders]) or None (unknown)

def load_pi_table(path: Path) -> dict[tuple[str, int, int], tuple[int, list[int]] | None]:
    """Read `type iso k free torsion provenance` lines of the shipped database."""
    table = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        name, _iso, k, free, torsion = fields[:5]
        key = (name[0], int(name[1:]), int(k))
        if free == "?":
            table[key] = None
        else:
            table[key] = (int(free), [] if torsion == "-" else [int(x) for x in torsion.split(",")])
    return table


def _bott(family: str, n: int, k: int) -> tuple[int, list[int]] | None:
    """pi_k (k >= 2) of a classical group inside Bott's stable range."""
    m = k % 8
    if family == "A":
        if k > 2 * n:
            return None
        return (1, []) if k % 2 else (0, [])
    if family == "C":
        if k > 4 * n + 1:
            return None
        return (1, []) if m in (3, 7) else (0, [2]) if m in (4, 5) else (0, [])
    # Spin(2n+1) and Spin(2n) are stable for k <= 2n-1 and k <= 2n-2
    if k > (2 * n - 1 if family == "B" else 2 * n - 2):
        return None
    return (1, []) if m in (3, 7) else (0, [2]) if m in (0, 1) else (0, [])


def pi_simple(family: str, n: int, adjoint: bool, k: int, db) -> tuple[int, list[int]] | None:
    if k == 0:
        return (0, [])
    if k == 1:
        return (0, center_orders(family, n) if adjoint else [])
    if family in EXCEPTIONAL_RANKS:
        return db.get((family, n, k))
    return _bott(family, n, k)


def good_locus(torus: int, factors, r: int, k: int, db) -> tuple[int, list[int]] | None:
    """pi_k(G)^r + pi_{k-1}(PG) as (free rank, cyclic orders), None if unknown.

    ``factors`` is a list of (family, rank, adjoint).
    """
    if k == 0:
        return (0, [])
    free, orders = (torus if k == 1 else 0), []
    for f, n, adj in factors:
        part = pi_simple(f, n, adj, k, db)
        if part is None:
            return None
        free += part[0]
        orders += part[1]
    free, orders = free * r, orders * r
    if k >= 2:
        for f, n, _ in factors:
            part = pi_simple(f, n, True, k - 1, db)
            if part is None:
                return None
            free += part[0]
            orders += part[1]
    return free, orders


def prime_exponents(orders) -> dict[int, Counter]:
    """Per-prime multiset of exponents of a list of cyclic orders."""
    out: dict[int, Counter] = {}
    for m in orders:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                out.setdefault(p, Counter())[e] += 1
            p += 1
    return out


def is_divisibility_chain(factors) -> bool:
    return all(d >= 2 for d in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))
