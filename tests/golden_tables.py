"""Golden expected values shared by the unit and acceptance tests.

Exceptional rows are explicit; classical families are generated from the
closed-form expressions.  Node keys follow the Bourbaki numbering used by
the library.
"""

from charvar import FgAbelianGroup, SimpleType


def T(text: str) -> SimpleType:
    return SimpleType.parse(text)


def types(text: str) -> tuple[SimpleType, ...]:
    return tuple(sorted(T(part) for part in text.split("+"))) if text else ()


# node -> (derived type, codim)
LEVI_EXCEPTIONAL = {
    "G2": {1: ("A1", 10), 2: ("A1", 10)},
    "F4": {1: ("C3", 30), 2: ("A1+A2", 40), 3: ("A1+A2", 40), 4: ("B3", 30)},
    "E6": {1: ("D5", 32), 2: ("A5", 42), 3: ("A1+A4", 50),
           4: ("A1+A2+A2", 58), 5: ("A1+A4", 50), 6: ("D5", 32)},
    "E7": {1: ("D6", 66), 2: ("A6", 84), 3: ("A1+A5", 94), 4: ("A1+A2+A3", 106),
           5: ("A2+A4", 100), 6: ("A1+D5", 84), 7: ("E6", 54)},
    "E8": {1: ("D7", 156), 2: ("A7", 184), 3: ("A1+A6", 196), 4: ("A1+A2+A4", 212),
           5: ("A3+A4", 208), 6: ("A2+D5", 194), 7: ("A1+E6", 166), 8: ("E7", 114)},
}

MIN_LEVI_EXCEPTIONAL = {"G2": 10, "F4": 30, "E6": 32, "E7": 54, "E8": 114}

# node -> (mark, subalgebra type, codim)
BDS_EXCEPTIONAL = {
    "G2": {1: (3, "A2", 6), 2: (2, "A1+A1", 8)},
    "F4": {1: (2, "A1+C3", 28), 2: (3, "A2+A2", 36), 3: (4, "A1+A3", 34), 4: (2, "B4", 16)},
    "E6": {2: (2, "A1+A5", 40), 3: (2, "A1+A5", 40), 4: (3, "A2+A2+A2", 54), 5: (2, "A1+A5", 40)},
    "E7": {1: (2, "A1+D6", 64), 2: (2, "A7", 70), 3: (3, "A2+A5", 90),
           4: (4, "A1+A3+A3", 100), 5: (3, "A2+A5", 90), 6: (2, "A1+D6", 64)},
    "E8": {1: (2, "D8", 128), 2: (3, "A8", 168), 3: (4, "A1+A7", 182), 4: (6, "A1+A2+A5", 202),
           5: (5, "A4+A4", 200), 6: (4, "A3+D5", 188), 7: (3, "A2+E6", 162), 8: (2, "A1+E7", 112)},
}

MIN_BDS_EXCEPTIONAL = {"G2": 6, "F4": 16, "E6": 40, "E7": 64, "E8": 112}


def _canon(family: str, rank: int) -> list[SimpleType]:
    """Low-rank coincidences under their canonical names; rank 0 is empty."""
    if rank == 0:
        return []
    aliases = {("B", 1): "A1", ("C", 1): "A1", ("C", 2): "B2", ("D", 3): "A3"}
    if (family, rank) == ("D", 2):
        return [T("A1"), T("A1")]
    if (family, rank) in aliases:
        return [T(aliases[(family, rank)])]
    return [SimpleType(family, rank)]


def levi_classical(family: str, r: int):
    """Expected (types, codim) per node for a classical family."""
    rows = {}
    for k in range(1, r + 1):
        if family == "A":
            comps = _canon("A", k - 1) + _canon("A", r - k)
            codim = 2 * k * (r + 1 - k)
        elif family in ("B", "C"):
            if k == r:
                comps = _canon("A", r - 1)
            else:
                comps = _canon("A", k - 1) + _canon(family, r - k)
            codim = k * (4 * r + 1 - 3 * k)
        else:  # D
            if k <= r - 3:
                comps = _canon("A", k - 1) + _canon("D", r - k)
                codim = k * (4 * r - 1 - 3 * k)
            elif k == r - 2:
                comps = _canon("A", r - 3) + [T("A1"), T("A1")]
                codim = r * r + 3 * r - 10
            else:
                comps = _canon("A", r - 1)
                codim = r * r - r
        rows[k] = (tuple(sorted(comps)), codim)
    return rows


def min_levi_classical(family: str, r: int) -> int:
    if family == "A":
        return 2 * r
    if family in ("B", "C"):
        return 2 * (2 * r - 1)
    return r * (r - 1) if r == 4 else 4 * (r - 1)


def bds_classical(family: str, r: int):
    """Expected (mark, types, codim) per node for a classical family."""
    rows = {}
    if family == "A":
        return rows
    if family == "B":
        for k in range(2, r + 1):
            rows[k] = (2, tuple(sorted(_canon("D", k) + _canon("B", r - k))),
                       2 * k * (2 * r - 2 * k + 1))
    elif family == "C":
        for k in range(1, r):
            rows[k] = (2, tuple(sorted(_canon("C", k) + _canon("C", r - k))),
                       4 * k * (r - k))
    else:
        for k in range(2, r - 1):
            rows[k] = (2, tuple(sorted(_canon("D", k) + _canon("D", r - k))),
                       4 * k * (r - k))
    return rows


def min_bds_classical(family: str, r: int):
    if family == "A":
        return None
    if family == "B":
        return 2 * r
    if family == "C":
        return 4 * (r - 1)
    return 8 * (r - 2)


ALL_CLASSICAL = (
    [("A", r) for r in range(1, 13)]
    + [("B", r) for r in range(2, 13)]
    + [("C", r) for r in range(3, 13)]
    + [("D", r) for r in range(4, 13)]
)

ALL_EXCEPTIONAL = ["G2", "F4", "E6", "E7", "E8"]

ALL_TYPES = [SimpleType(f, r) for f, r in ALL_CLASSICAL] + [T(n) for n in ALL_EXCEPTIONAL]


def types_up_to(rank):
    """A1-An, B2-Bn, C3-Cn and D4-Dn for n = rank, then the exceptional types."""
    return ([SimpleType(f, r) for f, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
             for r in range(low, rank + 1)]
            + [T(n) for n in ALL_EXCEPTIONAL])


# --- exceptional good-locus homotopy table -------------------------------
#
# Each cell is a list of (order, exponent) pairs, order 0 meaning a free
# summand and exponent one of 1, "r", "r+1"; None marks an unknown cell.

_Z = (0, "r")
_ZK = (0, 1)

EXC_HOMOTOPY = {
    "G2": {0: [], 1: [], 2: [], 3: [_Z], 4: [_ZK], 5: [],
           6: [(3, "r")], 7: [(3, 1)], 8: [(2, "r")], 9: [(6, "r"), (2, 1)],
           10: [(6, 1)], 11: [_Z, (2, "r")], 12: [_ZK, (2, 1)], 13: [],
           14: [(168, "r"), (2, "r")], 15: [(2, "r+1"), (168, 1)]},
    "F4": {0: [], 1: [], 2: [], 3: [_Z], 4: [_ZK], 5: [], 6: [], 7: [],
           8: [(2, "r")], 9: [(2, "r+1")], 10: [(2, 1)], 11: [_Z, (2, "r")],
           12: [_ZK, (2, 1)], 13: [], 14: [(2, "r")], 15: [_Z, (2, 1)]},
    "E6": {0: [], 1: [(3, "r")], 2: [(3, 1)], 3: [_Z], 4: [_ZK],
           5: [], 6: [], 7: [], 8: [], 9: [_Z],
           10: None, 11: None, 12: None, 13: None, 14: None, 15: None},
    "E7": {0: [], 1: [(2, "r")], 2: [(2, 1)], 3: [_Z], 4: [_ZK],
           5: [], 6: [], 7: [], 8: [], 9: [], 10: [], 11: [_Z],
           12: None, 13: None, 14: None, 15: None},
    "E8": {0: [], 1: [], 2: [], 3: [_Z], 4: [_ZK], 5: [], 6: [], 7: [],
           8: [], 9: [], 10: [], 11: [], 12: [], 13: [], 14: [], 15: [_Z]},
}

# minimal free-group rank r at which the splitting is proven for each cell
EXC_STABLE_THRESHOLD = {
    "G2": {**{k: 2 for k in range(3)}, **{k: 3 for k in range(3, 7)},
           **{k: 4 for k in range(7, 11)}, **{k: 5 for k in range(11, 15)}, 15: 6},
    "F4": {**{k: 2 for k in range(7)}, **{k: 3 for k in range(7, 15)}, 15: 4},
    "E6": {k: 2 for k in range(10)},
    "E7": {k: 2 for k in range(12)},
    "E8": {**{k: 2 for k in range(15)}, 15: 3},
}


def cell_group(cell, r: int) -> FgAbelianGroup:
    """Assemble a table cell into an FgAbelianGroup for a concrete r."""
    if cell is None:
        return FgAbelianGroup.unknown()
    free = 0
    torsion = []
    for order, exponent in cell:
        count = {1: 1, "r": r, "r+1": r + 1}[exponent]
        if order == 0:
            free += count
        else:
            torsion.extend([order] * count)
    return FgAbelianGroup.from_torsion(torsion, free_rank=free)
