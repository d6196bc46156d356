"""Dynkin diagrams, Cartan matrices, root enumeration and diagram
classification, exact arithmetic only.

The tests' oracle for dimensions, marks, gradings, centers and the types
left by deleting a node; charvar itself reads those from closed forms and
the plates (Bourbaki, Lie Groups ch. VI, plates I-IX).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from charvar.errors import CharvarError
from charvar.rootsys import SimpleType


@dataclass(frozen=True)
class DynkinEdge:
    """An edge of a Dynkin diagram.

    ``short`` is the node id at the short-root end of a multiple bond, or
    None for single bonds and for the length-symmetric affine-A1 bond.
    """

    i: int
    j: int
    multiplicity: int = 1
    short: Optional[int] = None

    def other(self, node: int) -> int:
        return self.j if node == self.i else self.i


@dataclass(frozen=True)
class DynkinDiagram:
    """A disjoint union of Dynkin diagram components."""

    nodes: tuple[int, ...]
    edges: tuple[DynkinEdge, ...]

    def without_node(self, k: int) -> "DynkinDiagram":
        if k not in self.nodes:
            raise CharvarError(f"node {k} not in diagram")
        nodes = tuple(n for n in self.nodes if n != k)
        edges = tuple(e for e in self.edges if k not in (e.i, e.j))
        return DynkinDiagram(nodes, edges)


def _chain_edges(ids: Iterable[int]) -> list[DynkinEdge]:
    ids = list(ids)
    return [DynkinEdge(a, b) for a, b in zip(ids, ids[1:])]


def diagram_of(t: SimpleType) -> DynkinDiagram:
    """The (unextended) Dynkin diagram of a simple type."""
    r = t.rank
    nodes = tuple(range(1, r + 1))
    if t.family == "A":
        edges = _chain_edges(nodes)
    elif t.family == "B":
        edges = _chain_edges(range(1, r))
        edges.append(DynkinEdge(r - 1, r, 2, short=r))
    elif t.family == "C":
        edges = _chain_edges(range(1, r))
        edges.append(DynkinEdge(r - 1, r, 2, short=r - 1))
    elif t.family == "D":
        edges = _chain_edges(range(1, r))
        edges.append(DynkinEdge(r - 2, r, 1))
    elif t.family == "E":
        edges = _chain_edges([1] + list(range(3, r + 1)))
        edges.append(DynkinEdge(2, 4))
    elif t.family == "F":
        edges = [DynkinEdge(1, 2), DynkinEdge(2, 3, 2, short=3), DynkinEdge(3, 4)]
    else:  # G2: alpha_1 short, alpha_2 long
        edges = [DynkinEdge(1, 2, 3, short=1)]
    return DynkinDiagram(nodes, tuple(edges))


@functools.cache
def cartan_matrix(t: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entries a[i][j] = 2(a_i, a_j)/(a_j, a_j)."""
    r = t.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for e in diagram_of(t).edges:
        i, j = e.i - 1, e.j - 1
        if e.multiplicity == 1:
            a[i][j] = a[j][i] = -1
        else:
            s, l = e.short - 1, (e.j if e.short == e.i else e.i) - 1
            a[l][s] = -e.multiplicity
            a[s][l] = -1
    return tuple(tuple(row) for row in a)


def det(m) -> int:
    """Exact determinant of an integer matrix by Gaussian elimination over
    the rationals."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    d = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        d *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    assert d.denominator == 1
    return int(d)


@functools.cache
def positive_roots(t: SimpleType) -> frozenset[tuple[int, ...]]:
    """All positive roots in simple-root coordinates.

    Breadth-first closure by height: beta + alpha_j is a root iff the
    alpha_j-string through beta reaches it, i.e. p - <beta, alpha_j^v> > 0
    where p is the depth of the string below beta.
    """
    r = t.rank
    cartan = cartan_matrix(t)
    simples = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots: set[tuple[int, ...]] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for c in frontier:
            for j in range(r):
                pairing = sum(c[i] * cartan[i][j] for i in range(r))
                p = 0
                down = list(c)
                while True:
                    down[j] -= 1
                    if tuple(down) in roots:
                        p += 1
                    else:
                        break
                if p - pairing > 0:
                    up = list(c)
                    up[j] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return frozenset(roots)


def extended_diagram(t: SimpleType) -> DynkinDiagram:
    """The affine diagram: add node 0 carrying the minimal root -theta,
    joined as on the plates (Bourbaki, Lie Groups ch. VI, plates I-IX)."""
    base = diagram_of(t)
    n = t.rank
    if t.family == "A":
        affine = [DynkinEdge(0, 1, 2)] if n == 1 else [DynkinEdge(0, 1), DynkinEdge(0, n)]
    elif (t.family, n) == ("B", 2):
        affine = [DynkinEdge(0, 2, 2, short=2)]
    elif t.family == "C":
        affine = [DynkinEdge(0, 1, 2, short=1)]
    else:  # a single bond: to node 1 for E7 and F4, node 8 for E8, else node 2
        affine = [DynkinEdge(0, {("E", 7): 1, ("E", 8): 8, ("F", 4): 1}.get((t.family, n), 2))]
    return DynkinDiagram((0,) + base.nodes, base.edges + tuple(affine))


def _components(
    d: DynkinDiagram,
) -> tuple[dict[int, list[int]], list[tuple[list[int], list[DynkinEdge]]]]:
    """The diagram's neighbour lists, and its connected components as
    (sorted nodes, edges) pairs."""
    adj: dict[int, list[int]] = {n: [] for n in d.nodes}
    for e in d.edges:
        adj[e.i].append(e.j)
        adj[e.j].append(e.i)
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for n in d.nodes:
        if n in comp_of:
            continue
        comp_of[n] = len(comps)
        comp = []
        stack = [n]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in comp_of:
                    comp_of[w] = len(comps)
                    stack.append(w)
        comps.append(sorted(comp))
    comp_edges: list[list[DynkinEdge]] = [[] for _ in comps]
    for e in d.edges:
        comp_edges[comp_of[e.i]].append(e)
    return adj, list(zip(comps, comp_edges))


def _arm_length(adj: dict[int, list[int]], prev: int, cur: int) -> int:
    """Nodes on the path that leaves ``prev`` through ``cur``, ``cur`` included."""
    length = 1
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


def _classify_component(
    nodes: list[int], edges: list[DynkinEdge], adj: dict[int, list[int]]
) -> SimpleType:
    n = len(nodes)
    if any(e.multiplicity >= 2 and e.short is None for e in edges):
        raise CharvarError(f"component {nodes} is not of finite type")
    if len(edges) != n - 1:
        raise CharvarError(f"component {nodes} contains a cycle (affine shape)")
    degree = {v: len(adj[v]) for v in nodes}

    triples = [e for e in edges if e.multiplicity == 3]
    doubles = [e for e in edges if e.multiplicity == 2]
    if any(e.multiplicity > 3 for e in edges):
        raise CharvarError(f"component {nodes} has a bond of multiplicity > 3")
    if triples:
        if n == 2 and not doubles:
            return SimpleType("G", 2)
        raise CharvarError(f"component {nodes} is not of finite type")
    if len(doubles) > 1:
        raise CharvarError(f"component {nodes} is not of finite type")

    if doubles:
        if max(degree.values()) > 2:
            raise CharvarError(f"component {nodes} is not of finite type")
        if n == 2:
            return SimpleType("B", 2)
        # split the path at the double bond and measure the two sides
        e = doubles[0]
        long_end = e.other(e.short)
        short_side = _arm_length(adj, long_end, e.short)
        long_side = _arm_length(adj, e.short, long_end)
        if short_side == 1:
            return SimpleType("B", n)
        if long_side == 1:
            return SimpleType("C", n)
        if short_side == 2 and long_side == 2:
            return SimpleType("F", 4)
        raise CharvarError(f"component {nodes} is not of finite type")

    # simply laced
    if max(degree.values(), default=0) <= 2:
        return SimpleType("A", n)
    branches = [v for v, d in degree.items() if d >= 3]
    if len(branches) != 1 or degree[branches[0]] != 3:
        raise CharvarError(f"component {nodes} is not of finite type")
    b = branches[0]
    arms = sorted(_arm_length(adj, b, w) for w in adj[b])
    if arms[0] == 1 and arms[1] == 1:
        return SimpleType("D", n)
    if arms == [1, 2, 2]:
        return SimpleType("E", 6)
    if arms == [1, 2, 3]:
        return SimpleType("E", 7)
    if arms == [1, 2, 4]:
        return SimpleType("E", 8)
    raise CharvarError(f"component {nodes} is not of finite type")


def classify_diagram(d: DynkinDiagram) -> list[SimpleType]:
    """Types of the diagram's components, low-rank shapes canonicalized.

    A two-node double bond reports B2 and a fork of three nodes reports A3,
    so deletions from extended diagrams (which produce such shapes) come
    back under their canonical names.
    """
    adj, comps = _components(d)
    return sorted(_classify_component(nodes, edges, adj) for nodes, edges in comps)

