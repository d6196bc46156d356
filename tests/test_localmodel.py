import collections.abc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charvar import (
    CharvarError,
    highest_root,
    homology_support,
    is_sphere_like,
    is_topologically_singular,
    parabolic_weights,
)
from charvar.errors import MAX_M

from diagrams import positive_roots
from golden_tables import ALL_TYPES, T


class TestWeights:
    def test_a1(self):
        w = parabolic_weights(T("A1"), 1, 2)
        assert w.d == {1: 1, -1: 1}
        assert not is_topologically_singular(w)

    def test_a2(self):
        w = parabolic_weights(T("A2"), 1, 2)
        assert w.d == {1: 2, -1: 2}
        assert is_topologically_singular(w)

    def test_g2(self):
        w = parabolic_weights(T("G2"), 1, 3)
        assert w.d == {1: 4, 2: 2, 3: 4, -1: 4, -2: 2, -3: 4}
        assert w.positive_weight_total() == 10

    def test_scaling_in_r(self):
        base = parabolic_weights(T("D5"), 2, 2)
        for r in (3, 5):
            scaled = parabolic_weights(T("D5"), 2, r)
            assert scaled.d == {n: (r - 1) * c for n, c in base.d.items()}

    @given(st.sampled_from(ALL_TYPES), st.integers(min_value=2, max_value=4))
    def test_profile_invariants(self, t, r):
        node_marks = dict(enumerate(highest_root(t), start=1))
        for i in range(1, t.rank + 1):
            w = parabolic_weights(t, i, r)
            # symmetric in n, supported on 1..mark, accounts for every root
            assert all(w.d[n] == w.d[-n] for n in w.d)
            assert max(abs(n) for n in w.d) == node_marks[i]
            assert sum(w.d.values()) == (r - 1) * 2 * sum(
                1 for root in positive_roots(t) if root[i - 1]
            )

    def test_singular_iff_not_a1_node(self):
        # the only smooth case is the unique node of A1 at r = 2
        for t in ALL_TYPES:
            for i in range(1, t.rank + 1):
                w = parabolic_weights(t, i, 2)
                assert is_topologically_singular(w) == (t != T("A1")), (t, i)

    def test_bad_arguments(self):
        with pytest.raises(CharvarError):
            parabolic_weights(T("A2"), 3, 2)
        with pytest.raises(CharvarError):
            parabolic_weights(T("A2"), 0, 2)
        with pytest.raises(CharvarError):
            parabolic_weights(T("A2"), 1, 1)


def betti(p, M):
    """Rational Betti numbers of P^M x P^M (the quotient of the link)."""
    if p % 2 or not 0 <= p <= 4 * M:
        return 0
    k = p // 2
    return M + 1 - abs(k - M)


def oracle_support(M):
    """Support via the Gysin sequence of the circle bundle over P^M x P^M.

    An even degree q survives in the cokernel of the Euler-class cup
    product iff b_q > b_{q-2}; an odd q comes from its kernel one row
    down iff b_{q-1} > b_{q+1}.
    """
    out = set()
    for q in range(0, 4 * M + 2):
        if q % 2 == 0:
            if betti(q, M) > betti(q - 2, M):
                out.add(q)
        elif betti(q - 1, M) > betti(q + 1, M):
            out.add(q)
    return out


class TestHomologySupport:
    def test_examples(self):
        assert sorted(homology_support(0).dims) == [0, 1]
        assert sorted(homology_support(1).dims) == [0, 2, 3, 5]
        assert sorted(homology_support(2).dims) == [0, 2, 4, 5, 7, 9]

    @given(st.integers(min_value=0, max_value=60))
    def test_matches_gysin_oracle(self, M):
        assert homology_support(M).dims == oracle_support(M)

    @given(st.integers(min_value=0, max_value=60))
    def test_shape(self, M):
        dims = homology_support(M).dims
        assert len(dims) == 2 * (M + 1)
        assert min(dims) == 0 and max(dims) == 4 * M + 1  # top degree: a manifold link

    @given(st.integers(min_value=0, max_value=60))
    def test_two_progressions_as_a_set(self, M):
        # a read-only set that equals, and hashes like, the frozenset of its
        # degrees, iterates in ascending order and answers membership exactly
        dims = homology_support(M).dims
        oracle = oracle_support(M)
        assert isinstance(dims, collections.abc.Set)
        assert dims == frozenset(oracle) and hash(dims) == hash(frozenset(dims))
        listed = list(dims)
        assert all(a < b for a, b in zip(listed, listed[1:]))
        assert all((q in dims) == (q in oracle) for q in range(-3, 4 * M + 4))

    def test_constant_cost(self):
        # nothing that grows with M is built, even at the ceiling
        tracemalloc.start()
        try:
            support = homology_support(MAX_M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert support.M == MAX_M and len(support.dims) == 2 * MAX_M + 2
        assert peak < 4096, f"homology_support(MAX_M) allocated {peak} bytes"

    def test_sphere_like(self):
        assert is_sphere_like(0)
        assert not any(is_sphere_like(M) for M in range(1, 10))
        assert all(is_sphere_like(M) == (len(homology_support(M).dims) == 2)
                   for M in range(60))

    def test_negative_rejected(self):
        for f in (homology_support, is_sphere_like):
            with pytest.raises(CharvarError):
                f(-1)

    def test_above_ceiling_rejected(self):
        assert MAX_M == 10**6
        with pytest.raises(CharvarError, match="ceiling"):
            homology_support(10**6 + 1)
