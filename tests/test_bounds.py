from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charvar import (
    CharvarError,
    Verdict,
    c_pasbon_lower,
    classify_singular_locus,
    codim_bad_lower,
    codim_red_lower,
    codim_report,
    good_locus_homotopy,
    parabolic_weights,
    parse_group,
    min_bds_codim,
    min_levi_codim,
    stable_range,
)
from charvar.errors import MAX_FREE_RANK
from charvar.rootsys import SimpleType

from golden_tables import ALL_TYPES, types_up_to

descriptors = st.builds(
    lambda torus, names: parse_group(
        " x ".join([f"T^{torus}"] * (torus > 0) + names) if (torus or names) else "T^0"
    ),
    st.integers(min_value=0, max_value=3),
    st.lists(st.sampled_from([f"{t}[sc]" for t in ALL_TYPES]
                             + [f"{t}[ad]" for t in ALL_TYPES]), max_size=3),
)
ranks = st.integers(min_value=2, max_value=6)


class TestBounds:
    def test_examples(self):
        e8 = parse_group("E8")
        assert codim_bad_lower(e8, 2) == 16
        assert codim_red_lower(e8, 2) == 8
        assert c_pasbon_lower(e8, 2) == 16
        assert stable_range(e8, 2) == 14
        assert stable_range(e8, 3) == 30
        assert stable_range(parse_group("F4"), 2) == 6
        assert codim_bad_lower(parse_group("A1 x D5"), 3) == 4
        assert codim_bad_lower(parse_group("G2[ad]"), 4) == 12

    def test_abelian(self):
        t3 = parse_group("T^3")
        assert codim_bad_lower(t3, 2) == 6  # bad locus empty: whole dimension
        assert codim_red_lower(t3, 5) == 0
        assert c_pasbon_lower(t3, 2) == 0

    def test_r_below_two_rejected(self):
        for fn in (codim_bad_lower, codim_red_lower, c_pasbon_lower, stable_range):
            with pytest.raises(CharvarError):
                fn(parse_group("A2"), 1)

    def test_r_above_ceiling_rejected(self):
        g = parse_group("A2")
        calls = [partial(fn, g) for fn in (codim_bad_lower, codim_red_lower, c_pasbon_lower,
                                           stable_range, codim_report, classify_singular_locus)]
        calls += [partial(parabolic_weights, SimpleType("A", 2), 1),
                  partial(good_locus_homotopy, g, k=3)]
        for call in calls:
            call(MAX_FREE_RANK)
            with pytest.raises(CharvarError, match="above the ceiling"):
                call(MAX_FREE_RANK + 1)

    def test_report_consistency(self):
        rep = codim_report(parse_group("T^1 x B4[ad]"), 3)
        assert rep.bad_lower == 2 * 2 * 4
        assert rep.red_lower == 2 * 4
        assert rep.c_pasbon_lower == 2 * min(rep.bad_lower, rep.red_lower)
        assert rep.stable_k_max == rep.c_pasbon_lower - 2

    @given(descriptors, ranks)
    def test_invariants(self, g, r):
        bad, red = codim_bad_lower(g, r), codim_red_lower(g, r)
        assert bad >= 0 and red >= 0
        assert c_pasbon_lower(g, r) == 2 * min(bad, red)
        assert stable_range(g, r) == c_pasbon_lower(g, r) - 2
        if not g.is_abelian:
            assert bad <= 2 * red  # the min factor rank is at most the semisimple rank
            assert codim_bad_lower(g, r + 1) > bad

    @given(descriptors, ranks)
    def test_monotone_in_r(self, g, r):
        assert c_pasbon_lower(g, r + 1) >= c_pasbon_lower(g, r)


class TestSingularLocus:
    def test_abelian(self):
        rep = classify_singular_locus(parse_group("T^2"), 3)
        assert rep.verdict is Verdict.ABELIAN

    def test_rank_one_free_group(self):
        rep = classify_singular_locus(parse_group("E8"), 1)
        assert rep.verdict is Verdict.RANK_ONE_FREE_GROUP

    def test_r_below_one_rejected(self):
        for text, r in [("E8", 0), ("E8", -5), ("T^1", -5), ("T^2 x A1[ad]", 0)]:
            with pytest.raises(CharvarError, match="r >= 1"):
                classify_singular_locus(parse_group(text), r)

    def test_full_classification(self):
        for text, r in [("E8", 2), ("A1", 3), ("A1[ad] x A1", 5), ("B2", 2)]:
            rep = classify_singular_locus(parse_group(text), r)
            assert rep.verdict is Verdict.FULL_CLASSIFICATION, (text, r)
            assert any("reducible" in s for s in rep.statements)
            assert any("bad" in s for s in rep.statements)

    def test_open_case(self):
        rep = classify_singular_locus(parse_group("A1"), 2)
        assert rep.verdict is Verdict.UNDETERMINED_R2_RANK1
        rep = classify_singular_locus(parse_group("T^2 x A1[ad]"), 2)
        assert rep.verdict is Verdict.UNDETERMINED_R2_RANK1

    @given(descriptors, st.integers(min_value=1, max_value=5))
    def test_always_classifies(self, g, r):
        rep = classify_singular_locus(g, r)
        assert isinstance(rep.verdict, Verdict)
        assert rep.statements


class TestBoundsAgainstTables:
    @pytest.mark.parametrize("t", types_up_to(40) + [
        SimpleType(f, n) for f in "ABCD" for n in (9998, 9999, 10000)], ids=str)
    def test_bad_bound_below_both_minima(self, t):
        # at r = 2 the bad-locus bound of a simple group is 2 * rank; the
        # subalgebra tables give the Levi and BdS minima it must not exceed
        bound = codim_bad_lower(parse_group(str(t)), 2)
        assert bound == 2 * t.rank
        levi, bds = min_levi_codim(t), min_bds_codim(t)
        assert bound <= levi and (bound == levi) == (t.family == "A")
        if bds is not None:
            assert bound <= bds and (bound == bds) == (t.family == "B")
