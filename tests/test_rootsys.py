import importlib
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charvar import (
    CharvarError,
    Isogeny,
    SimpleType,
    bds_table,
    dimension,
    highest_root,
    levi_table,
    min_levi_codim,
    parabolic_weights,
    pi_simple,
)
from charvar.errors import MAX_RANK
from charvar.rootsys import canonical_pieces, grading, gradings

from diagrams import (
    cartan_matrix,
    classify_diagram,
    det,
    diagram_of,
    extended_diagram,
    positive_roots,
)
from golden_tables import ALL_TYPES, T, types_up_to

any_type = st.sampled_from(ALL_TYPES)


class TestSimpleType:
    def test_parse_roundtrip(self):
        for t in ALL_TYPES:
            assert SimpleType.parse(str(t)) == t

    @pytest.mark.parametrize("bad", ["B1", "C1", "C2", "D2", "D3"])
    def test_alias_rejected(self, bad):
        with pytest.raises(CharvarError, match="alias"):
            SimpleType.parse(bad)

    @pytest.mark.parametrize("bad", ["E5", "E9", "F5", "G3", "A0", "H4", "Q", "A", "2A", "A²"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(CharvarError):
            SimpleType.parse(bad)

    def test_rank_ceiling(self):
        for family in "ABCD":
            assert SimpleType(family, MAX_RANK).rank == MAX_RANK
            with pytest.raises(CharvarError, match="ceiling"):
                SimpleType(family, MAX_RANK + 1)
        with pytest.raises(CharvarError, match="ceiling"):
            SimpleType.parse(f"C{MAX_RANK + 1}")

    def test_absurd_rank_refused_at_once(self):
        # without the ceiling the minimum walks 10**11 nodes, one grading each
        with pytest.raises(CharvarError, match="ceiling"):
            min_levi_codim(SimpleType("A", 10**11))

    def test_ordering(self):
        assert T("A5") < T("B2") < T("E6") < T("E7")


class TestCartan:
    def test_a2(self):
        assert cartan_matrix(T("A2")) == ((2, -1), (-1, 2))

    def test_g2_asymmetry(self):
        # alpha_1 short: the long row acts on the short column by -3
        a = cartan_matrix(T("G2"))
        assert a == ((2, -1), (-3, 2))

    def test_b3_c3_transpose(self):
        b = cartan_matrix(T("B3"))
        c = cartan_matrix(T("C3"))
        assert b == tuple(zip(*c))

    @given(any_type)
    def test_shape_and_diagonal(self, t):
        a = cartan_matrix(t)
        r = t.rank
        assert len(a) == r and all(len(row) == r for row in a)
        for i in range(r):
            assert a[i][i] == 2
            for j in range(r):
                if i != j:
                    assert -3 <= a[i][j] <= 0
                    assert (a[i][j] == 0) == (a[j][i] == 0)

    def test_determinants(self):
        # det of the Cartan matrix = order of the fundamental group
        expected = {"A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2,
                    "D": lambda r: 4}
        fixed = {"E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}
        for t in ALL_TYPES:
            d = det([list(row) for row in cartan_matrix(t)])
            want = fixed.get(str(t), None)
            if want is None:
                want = expected[t.family](t.rank)
            assert d == want, t


class TestRoots:
    @pytest.mark.parametrize(
        "name,npos",
        [("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A5", 15), ("B4", 16),
         ("C4", 16), ("D4", 12), ("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120)],
    )
    def test_positive_root_counts(self, name, npos):
        assert len(positive_roots(T(name))) == npos

    def test_dimension_closed_forms(self):
        forms = {"A": lambda r: r * (r + 2), "B": lambda r: r * (2 * r + 1),
                 "C": lambda r: r * (2 * r + 1), "D": lambda r: r * (2 * r - 1)}
        fixed = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}
        for t in ALL_TYPES:
            want = fixed.get(str(t)) or forms[t.family](t.rank)
            assert dimension(t) == want, t

    def test_g2_roots_explicit(self):
        assert positive_roots(T("G2")) == frozenset(
            {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
        )

    @given(any_type)
    def test_coordinates_bounded_by_marks(self, t):
        theta = highest_root(t)
        for root in positive_roots(t):
            assert all(0 <= c <= m for c, m in zip(root, theta))

    def test_highest_root_marks(self):
        assert highest_root(T("A4")) == (1, 1, 1, 1)
        assert highest_root(T("G2")) == (3, 2)
        assert highest_root(T("F4")) == (2, 3, 4, 2)
        assert highest_root(T("E8")) == (2, 3, 4, 6, 5, 4, 3, 2)
        assert highest_root(T("B5")) == (1, 2, 2, 2, 2)
        assert highest_root(T("C5")) == (2, 2, 2, 2, 1)
        assert highest_root(T("D6")) == (1, 2, 2, 2, 1, 1)
        # past the enumeration oracle (rank 20), Bourbaki's patterns written out
        for n in (21, MAX_RANK):
            assert highest_root(SimpleType("A", n)) == (1,) * n
            assert highest_root(SimpleType("B", n)) == (1,) + (2,) * (n - 1)
            assert highest_root(SimpleType("C", n)) == (2,) * (n - 1) + (1,)
            assert highest_root(SimpleType("D", n)) == (1,) + (2,) * (n - 3) + (1, 1)

    def test_sum_of_marks(self):
        # height of the highest root is h - 1 (Coxeter number h)
        coxeter = {"A5": 6, "B5": 10, "C5": 10, "D5": 8, "G2": 6, "F4": 12,
                   "E6": 12, "E7": 18, "E8": 30}
        for name, h in coxeter.items():
            assert sum(highest_root(T(name))) == h - 1


# Every type up to rank 20; the closed forms are checked against enumeration.
ORACLE_TYPES = types_up_to(20)


def coxeter_number(t):
    fixed = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}
    if str(t) in fixed:
        return fixed[str(t)]
    return {"A": t.rank + 1, "B": 2 * t.rank, "C": 2 * t.rank, "D": 2 * t.rank - 2}[t.family]


class TestClosedFormsAgainstEnumeration:
    @pytest.mark.parametrize("t", ORACLE_TYPES, ids=str)
    def test_closed_forms(self, t):
        pos = positive_roots(t)
        h = coxeter_number(t)
        assert dimension(t) == t.rank + 2 * len(pos)
        assert 2 * len(pos) == t.rank * h
        theta = highest_root(t)
        assert theta in pos
        assert all(all(a >= b for a, b in zip(theta, root)) for root in pos)
        assert sum(theta) == h - 1
        enumerated = []
        for i in range(1, t.rank + 1):
            counts = Counter(root[i - 1] for root in pos if root[i - 1])
            enumerated.append(tuple(counts[n] for n in range(1, theta[i - 1] + 1)))
            assert grading(t, i) == enumerated[-1], i
        assert gradings(t) == tuple(enumerated)

    def test_grading_rejects_bad_node(self):
        for i in (0, 7):
            with pytest.raises(CharvarError, match="out of range"):
                grading(T("E6"), i)


class TestClassify:
    @given(any_type)
    def test_roundtrip(self, t):
        assert classify_diagram(diagram_of(t)) == [t]

    def test_node_deletions_canonical(self):
        # deletions that land on low-rank coincidences use canonical names
        assert classify_diagram(diagram_of(T("B3")).without_node(1)) == [T("B2")]
        assert classify_diagram(diagram_of(T("C4")).without_node(1)) == [T("C3")]
        assert classify_diagram(diagram_of(T("D5")).without_node(1)) == [T("D4")]
        assert classify_diagram(diagram_of(T("D5")).without_node(3)) == [
            T("A1"), T("A1"), T("A2")]
        assert classify_diagram(diagram_of(T("E6")).without_node(4)) == [
            T("A1"), T("A2"), T("A2")]

    def test_affine_shapes_rejected(self):
        ext = extended_diagram(T("A3"))  # a 4-cycle
        with pytest.raises(CharvarError):
            classify_diagram(ext)
        with pytest.raises(CharvarError):
            classify_diagram(extended_diagram(T("A1")))


class TestExtended:
    def test_a1_symmetric_double_bond(self):
        ext = extended_diagram(T("A1"))
        (edge,) = ext.edges
        assert edge.multiplicity == 2 and edge.short is None

    def test_an_cycle(self):
        ext = extended_diagram(T("A4"))
        assert len(ext.edges) == 5
        assert all(e.multiplicity == 1 for e in ext.edges)

    def test_affine_node_attachment(self):
        # the affine node attaches at the (long) end supporting theta
        attach = {"B4": {2}, "C4": {1}, "D5": {2}, "E6": {2}, "E7": {1},
                  "E8": {8}, "F4": {1}, "G2": {2}}
        for name, nodes in attach.items():
            ext = extended_diagram(T(name))
            got = {e.other(0) for e in ext.edges if 0 in (e.i, e.j)}
            assert got == nodes, name

    @pytest.mark.parametrize("t", types_up_to(40), ids=str)
    def test_marks_in_left_kernel_of_affine_cartan_matrix(self, t):
        # delta = alpha_0 + theta pairs to 0 with every coroot: sum_i a_i A_ij = 0
        ext = extended_diagram(t)
        a = [[2 * (i == j) for j in range(t.rank + 1)] for i in range(t.rank + 1)]
        for e in ext.edges:
            if e.short is None:  # single bonds and the symmetric affine-A1 bond
                a[e.i][e.j] = a[e.j][e.i] = -e.multiplicity
            else:
                long_end = e.other(e.short)
                a[long_end][e.short], a[e.short][long_end] = -e.multiplicity, -1
        assert tuple(tuple(row[1:]) for row in a[1:]) == cartan_matrix(t)
        marks = [1, *highest_root(t)]
        assert all(sum(marks[i] * a[i][j] for i in range(t.rank + 1)) == 0
                   for j in range(t.rank + 1))

    def test_deletions_match_known_subsystems(self):
        ext = extended_diagram(T("E8"))
        assert classify_diagram(ext.without_node(1)) == [T("D8")]
        assert classify_diagram(ext.without_node(2)) == [T("A8")]
        ext7 = extended_diagram(T("E7"))
        assert classify_diagram(ext7.without_node(2)) == [T("A7")]
        extg = extended_diagram(T("G2"))
        assert classify_diagram(extg.without_node(1)) == [T("A2")]
        assert classify_diagram(extg.without_node(2)) == [T("A1"), T("A1")]
        extf = extended_diagram(T("F4"))
        assert classify_diagram(extf.without_node(4)) == [T("B4")]


class TestSubsystemTypes:
    def test_canonical_pieces(self):
        assert canonical_pieces("B", 0) == ()
        assert canonical_pieces("B", 1) == canonical_pieces("C", 1) == (T("A1"),)
        assert canonical_pieces("C", 2) == (T("B2"),)
        assert canonical_pieces("D", 2) == (T("A1"), T("A1"))
        assert canonical_pieces("D", 3) == (T("A3"),)
        assert canonical_pieces("D", 4) == (T("D4"),)

    @pytest.mark.parametrize("t", types_up_to(40), ids=str)
    def test_mark_one_deletion_from_extended_diagram_leaves_the_type(self, t):
        # the tables delete only nodes of mark >= 2 from the extended diagram
        ext = extended_diagram(t)
        for k, mark in enumerate(highest_root(t), start=1):
            if mark == 1:
                assert classify_diagram(ext.without_node(k)) == [t], (t, k)


# what moved from charvar.rootsys to tests/diagrams.py
ORACLE_NAMES = ("DynkinEdge", "DynkinDiagram", "diagram_of", "cartan_matrix", "positive_roots",
                "extended_diagram", "classify_diagram", "_chain_edges", "_components",
                "_arm_length", "_classify_component")


class TestRuntimePaths:
    def test_library_reads_closed_forms_only(self):
        for t in ALL_TYPES:
            levi_table(t)
            bds_table(t)
            for i in range(1, t.rank + 1):
                parabolic_weights(t, i, 2)
            pi_simple(t, Isogeny.ADJOINT, 1)

    def test_no_smith_normal_form_in_package(self):
        # the oracles live in tests/ (snf.py, diagrams.py), where no run reaches them
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("charvar.snf")
        import charvar
        from charvar import rootsys

        for name in ORACLE_NAMES:
            assert not hasattr(charvar, name) and not hasattr(rootsys, name), name
