import time

import pytest

from charvar import (
    FgAbelianGroup,
    bds_table,
    dimension,
    highest_root,
    levi_table,
    min_bds_codim,
    min_levi_codim,
    rootsys,
)

import golden_tables as g
from diagrams import classify_diagram, diagram_of, extended_diagram, positive_roots
from golden_tables import ALL_TYPES, T, types, types_up_to
from snf import smith_normal_form

# the derived types are checked against enumerated diagrams up to rank 40;
# these check the chain rules against the closed forms at large rank
LARGE_CLASSICAL = [(f, 2000) for f in "ABCD"]


class TestLeviExceptional:
    @pytest.mark.parametrize("name", g.ALL_EXCEPTIONAL)
    def test_table(self, name):
        t = T(name)
        table = {rec.node: rec for rec in levi_table(t)}
        expected = g.LEVI_EXCEPTIONAL[name]
        assert set(table) == set(expected)
        for node, (type_text, codim) in expected.items():
            rec = table[node]
            assert tuple(sorted(rec.derived_type)) == types(type_text), (name, node)
            assert rec.codim == codim, (name, node)
            assert rec.levi_dim == dimension(t) - codim

    def test_min(self):
        for name, want in g.MIN_LEVI_EXCEPTIONAL.items():
            assert min_levi_codim(T(name)) == want, name


class TestLeviClassical:
    @pytest.mark.parametrize("family,rank", g.ALL_CLASSICAL + LARGE_CLASSICAL)
    def test_table(self, family, rank):
        t = g.SimpleType(family, rank)
        expected = g.levi_classical(family, rank)
        for rec in levi_table(t):
            comps, codim = expected[rec.node]
            assert tuple(sorted(rec.derived_type)) == comps, (t, rec.node)
            assert rec.codim == codim, (t, rec.node)
        assert min_levi_codim(t) == g.min_levi_classical(family, rank), t


class TestLeviInvariants:
    @pytest.mark.parametrize("name", ["A6", "B5", "C4", "D6", "F4", "E7"])
    def test_codim_counts_roots_outside(self, name):
        # codim = number of roots not supported on the remaining nodes
        t = T(name)
        pos = positive_roots(t)
        for rec in levi_table(t):
            outside = sum(1 for root in pos if root[rec.node - 1] != 0)
            assert rec.codim == 2 * outside

    @pytest.mark.parametrize("name", ["A6", "B5", "C4", "D6", "F4", "E7"])
    def test_rank_drops_by_one(self, name):
        for rec in levi_table(T(name)):
            assert sum(c.rank for c in rec.derived_type) == T(name).rank - 1


class TestBdSExceptional:
    @pytest.mark.parametrize("name", g.ALL_EXCEPTIONAL)
    def test_table(self, name):
        t = T(name)
        table = {rec.node: rec for rec in bds_table(t)}
        expected = g.BDS_EXCEPTIONAL[name]
        assert set(table) == set(expected)
        for node, (mark, type_text, codim) in expected.items():
            rec = table[node]
            assert rec.mark == mark, (name, node)
            assert tuple(sorted(rec.bds_type)) == types(type_text), (name, node)
            assert rec.codim == codim, (name, node)
            assert rec.index_group == FgAbelianGroup.cyclic(mark), (name, node)

    def test_min(self):
        for name, want in g.MIN_BDS_EXCEPTIONAL.items():
            assert min_bds_codim(T(name)) == want, name


class TestBdSClassical:
    @pytest.mark.parametrize("family,rank", g.ALL_CLASSICAL + LARGE_CLASSICAL)
    def test_table(self, family, rank):
        t = g.SimpleType(family, rank)
        expected = g.bds_classical(family, rank)
        table = {rec.node: rec for rec in bds_table(t)}
        assert set(table) == set(expected)
        for node, (mark, comps, codim) in expected.items():
            rec = table[node]
            assert (rec.mark, tuple(sorted(rec.bds_type)), rec.codim) == (
                mark, comps, codim), (t, node)
        assert min_bds_codim(t) == g.min_bds_classical(family, rank), t

    def test_type_a_has_none(self):
        assert bds_table(T("A9")) == []
        assert min_bds_codim(T("A9")) is None


class TestBdSInvariants:
    @pytest.mark.parametrize("name", ["B5", "C4", "D6", "F4", "G2", "E7"])
    def test_full_rank_and_nodes(self, name):
        t = T(name)
        node_marks = dict(enumerate(highest_root(t), start=1))
        table = {rec.node: rec for rec in bds_table(t)}
        assert set(table) == {i for i, m in node_marks.items() if m >= 2}
        for rec in table.values():
            assert sum(c.rank for c in rec.bds_type) == t.rank
            assert rec.mark == node_marks[rec.node]
            assert rec.codim % 2 == 0 and rec.codim > 0

    def test_subsystem_contains_all_long_roots_dimension(self):
        # total dimension accounting: codim = dim g - dim of the subalgebra
        for name in ["E6", "F4", "B6", "C5"]:
            t = T(name)
            for rec in bds_table(t):
                assert rec.codim == dimension(t) - sum(dimension(c) for c in rec.bds_type)


class TestLatticeIndex:
    """The index group of each BdS row: the root lattice modulo the
    subsystem lattice of the deleted node."""

    @staticmethod
    def index_groups(t):
        return {rec.node: rec.index_group for rec in bds_table(t)}

    def test_examples(self):
        assert self.index_groups(T("G2")) == {1: FgAbelianGroup.cyclic(3),
                                              2: FgAbelianGroup.cyclic(2)}
        assert self.index_groups(T("E8"))[5] == FgAbelianGroup.cyclic(5)
        assert self.index_groups(T("E8"))[4] == FgAbelianGroup.cyclic(6)
        assert self.index_groups(T("F4"))[3] == FgAbelianGroup.cyclic(4)

    def test_matches_smith_normal_form(self):
        # Z^r modulo the surviving simple roots and the lowest root, with
        # theta taken from the enumerated roots
        for t in g.ALL_TYPES:
            theta = max(positive_roots(t), key=sum)
            groups = self.index_groups(t)
            for k in range(1, t.rank + 1):
                if theta[k - 1] < 2:
                    continue
                rows = [[int(i == j) for i in range(t.rank)]
                        for j in range(t.rank) if j != k - 1]
                rows.append([-c for c in theta])
                diag = smith_normal_form(rows)
                assert 0 not in diag
                want = FgAbelianGroup.from_torsion([d for d in diag if d > 1])
                assert groups[k] == want, (t, k)

    def test_order_equals_mark_everywhere(self):
        for t in g.ALL_TYPES:
            groups = self.index_groups(t)
            marks = dict(enumerate(highest_root(t), start=1))
            # the rows are exactly the nodes of mark >= 2
            assert set(groups) == {node for node, mark in marks.items() if mark >= 2}, t
            for node, group in groups.items():
                assert group == FgAbelianGroup.cyclic(marks[node]), (t, node)


class TestGradingSums:
    @pytest.mark.parametrize("t", types_up_to(40), ids=str)
    def test_tables_match_classified_pieces(self, t):
        # the oracle is the piece-by-piece sum: the Levi is the derived type
        # plus a GL1, the BdS subalgebra is the pieces alone
        dim_g = dimension(t)
        levi = levi_table(t)
        for rec in levi:
            assert rec.codim == dim_g - 1 - sum(dimension(c) for c in rec.derived_type), rec
        bds = bds_table(t)
        for rec in bds:
            assert rec.codim == dim_g - sum(dimension(c) for c in rec.bds_type), rec
        assert [(rec.node, rec.mark) for rec in bds] == [
            (k, m) for k, m in enumerate(highest_root(t), start=1) if m >= 2]
        assert min_levi_codim(t) == min(rec.codim for rec in levi)
        assert min_bds_codim(t) == min((rec.codim for rec in bds), default=None)

    def test_minima_read_no_classification(self):
        # the tables name their derived types by the chain rule, so neither
        # they nor the minima build or classify a diagram
        for t in ALL_TYPES:
            if t.family in "EFG":
                levi, bds = g.MIN_LEVI_EXCEPTIONAL[str(t)], g.MIN_BDS_EXCEPTIONAL[str(t)]
            else:
                levi = g.min_levi_classical(t.family, t.rank)
                bds = g.min_bds_classical(t.family, t.rank)
            assert (min_levi_codim(t), min_bds_codim(t)) == (levi, bds), t
            assert min(rec.codim for rec in levi_table(t)) == levi, t
            assert min((rec.codim for rec in bds_table(t)), default=None) == bds, t

    @pytest.mark.parametrize("t", types_up_to(40), ids=str)
    def test_derived_types_match_classified_diagrams(self, t):
        # the oracle deletes the node from the diagram (extended for BdS)
        # and classifies what is left
        d, ext = diagram_of(t), extended_diagram(t)
        for rec in levi_table(t):
            assert rec.derived_type == tuple(classify_diagram(d.without_node(rec.node))), rec
        for rec in bds_table(t):
            assert rec.bds_type == tuple(classify_diagram(ext.without_node(rec.node))), rec

    @pytest.mark.parametrize("name", ["A2000", "D2000"])
    def test_minima_at_large_rank(self, name):
        t = T(name)
        t0 = time.perf_counter()
        got = min_levi_codim(t), min_bds_codim(t)
        elapsed = time.perf_counter() - t0
        assert got == (g.min_levi_classical(t.family, t.rank),
                       g.min_bds_classical(t.family, t.rank))
        assert elapsed < 1.0, f"{name} minima took {elapsed:.2f}s"


class TestOnePass:
    @pytest.mark.parametrize("name", ["A9", "B7", "C8", "D12", "E6", "E8", "F4", "G2"])
    def test_each_node_graded_once(self, name, monkeypatch):
        # both tables, their minima and the marks read one pass of gradings
        t, graded, grading = T(name), [], rootsys.grading
        monkeypatch.setattr(rootsys, "grading", lambda s, i: graded.append(i) or grading(s, i))
        rootsys.gradings.cache_clear()
        levi_table(t), min_levi_codim(t), bds_table(t), min_bds_codim(t), highest_root(t)
        assert graded == list(range(1, t.rank + 1))
        rootsys.gradings.cache_clear()

    def test_caches_are_bounded(self):
        # one gradings entry at the rank ceiling is about 1 MB
        for cache in (rootsys.gradings, rootsys.canonical_pieces):
            assert 0 < cache.cache_info().maxsize <= 256, cache

    def test_tables_are_fresh_lists(self):
        t = T("E8")
        for table in (levi_table, bds_table):
            rows = table(t)
            rows.clear()
            assert table(t) and table(t) is not table(t)
        # a Z_m is frozen, so the rows of one mark share it
        index = {}
        for rec in bds_table(t):
            assert index.setdefault(rec.mark, rec.index_group) is rec.index_group
