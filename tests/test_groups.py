import copy
import itertools
import math
import operator
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charvar import (
    CharvarError,
    FgAbelianGroup,
    GroupDescriptor,
    Isogeny,
    center_group,
    groups,
    is_ci,
    min_simple_rank,
    parse_group,
    pi_group,
)
from charvar.errors import MAX_FACTOR_BITS

from diagrams import cartan_matrix, det
from golden_tables import T, types_up_to
from slot_fill import slot_fill
from snf import smith_normal_form

small_torsion = st.lists(st.integers(min_value=1, max_value=64), max_size=5)
moduli = st.lists(st.integers(min_value=1, max_value=10**4), max_size=7)
# products of powers of small primes: up to ~33000 bits, quick to trial-divide
smooth_modulus = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=3000)),
    min_size=1, max_size=3,
).map(lambda pes: math.prod(p**e for p, e in pes))
# keys that share composite factors, products of primes near 10^9, and high
# powers of shared keys (a key is stripped by repeated squares)
NEAR_BILLION = [999999937, 999999929, 999999893]
base_modulus = st.one_of(
    st.sampled_from([1, 2, 4, 6, 8, 9, 12, 18, 36, 1000]),
    st.builds(lambda p, q, c: p * q * c, st.sampled_from(NEAR_BILLION),
              st.sampled_from(NEAR_BILLION + [1]), st.sampled_from([1, 2, 6, 12, 18])),
    st.builds(pow, st.sampled_from([2, 3, 6, 12, 18]), st.integers(min_value=2, max_value=600)),
)
# invariant factors as the shipped table writes them: each >= 2, dividing the next
chains = st.builds(lambda first, steps: list(itertools.accumulate([first, *steps], operator.mul)),
                   st.integers(min_value=2, max_value=10**3),
                   st.lists(st.integers(min_value=1, max_value=12), max_size=6))
fga = st.builds(lambda tors, free: FgAbelianGroup.from_torsion(tors, free_rank=free),
                small_torsion, st.integers(min_value=0, max_value=3))


def near_billion_primes(n):
    """The n largest base-2 probable primes below 10^9."""
    return [m for m in range(10**9 - 1, 10**9 - 200000, -2) if pow(2, m - 1, m) == 1][:n]


def snf_factors(ms):
    """Invariant factors of the sum of Z_m over ms, by the Smith normal form."""
    diag = [[m if i == j else 0 for j in range(len(ms))] for i, m in enumerate(ms)]
    return tuple(d for d in smith_normal_form(diag) if d > 1)


def built(ms, free, from_fields):
    """The group Z^free + sum of Z_m, from its counts or from its fields."""
    if from_fields:
        return FgAbelianGroup(free_rank=free, invariant_factors=slot_fill(ms))
    return FgAbelianGroup.from_torsion(ms, free_rank=free)


class TestFgAbelianGroup:
    def test_normalization_examples(self):
        assert FgAbelianGroup.from_torsion([2, 3]) == FgAbelianGroup.cyclic(6)
        assert FgAbelianGroup.from_torsion([4, 6]).invariant_factors == (2, 12)
        assert FgAbelianGroup.from_torsion([2, 2, 3]).invariant_factors == (2, 6)
        assert FgAbelianGroup.from_torsion([1, 1]) == FgAbelianGroup.trivial()

    def test_invalid_chain_rejected(self):
        with pytest.raises(CharvarError):
            FgAbelianGroup(invariant_factors=(3, 4))
        with pytest.raises(CharvarError):
            FgAbelianGroup(invariant_factors=(1, 2))

    def test_str(self):
        assert str(FgAbelianGroup.trivial()) == "0"
        assert str(FgAbelianGroup.unknown()) == "?"
        assert str(FgAbelianGroup.free(1)) == "Z"
        assert str(FgAbelianGroup(free_rank=2, invariant_factors=(2, 6))) == "Z^2 + Z_2 + Z_6"

    def test_unknown_absorbs(self):
        u = FgAbelianGroup.unknown()
        assert u.direct_sum(FgAbelianGroup.free(3)) == u
        assert FgAbelianGroup.cyclic(5).direct_sum(u) == u
        assert u.power(4) == u
        assert u.order() is None

    @given(st.integers(min_value=1, max_value=10**6))
    def test_cyclic_matches_from_torsion(self, m):
        assert FgAbelianGroup.cyclic(m) == FgAbelianGroup.from_torsion([m])
        # one modulus is its own primary form, stored as the normalising path builds it
        assert FgAbelianGroup.from_torsion([m])._primary_form() == groups._primary_of((m,))

    def test_cyclic_rejects_nonpositive_order(self):
        for m in (0, -3):
            with pytest.raises(CharvarError, match="invalid cyclic order"):
                FgAbelianGroup.cyclic(m)

    def test_power(self):
        assert FgAbelianGroup.cyclic(2).power(3).invariant_factors == (2, 2, 2)
        assert FgAbelianGroup.free(1).power(0) == FgAbelianGroup.trivial()

    @given(fga)
    def test_normal_form_is_canonical(self, a):
        chain = a.invariant_factors
        assert all(b % c == 0 for c, b in zip(chain, chain[1:]))
        assert all(d >= 2 for d in chain)

    @given(small_torsion, st.integers(min_value=0, max_value=3))
    def test_order_preserved(self, tors, free):
        a = FgAbelianGroup.from_torsion(tors, free_rank=free)
        if free:
            assert a.order() is None
        else:
            assert a.order() == math.prod(tors)

    @given(fga, fga)
    def test_direct_sum_commutes(self, a, b):
        assert a.direct_sum(b) == b.direct_sum(a)

    @given(fga, fga, fga)
    def test_direct_sum_associates(self, a, b, c):
        assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))
        assert a.direct_sum(b, c) == a.direct_sum(b).direct_sum(c)

    @given(st.one_of(moduli, chains), st.integers(min_value=0, max_value=3))
    def test_from_torsion_matches_smith_normal_form(self, ms, free):
        a = FgAbelianGroup.from_torsion(ms, free_rank=free)
        assert a.invariant_factors == snf_factors(ms) == slot_fill(ms)
        assert a.free_rank == free and a.known

    def test_chain_is_kept_as_given(self, monkeypatch):
        def refused(moduli):
            raise AssertionError(f"invariant factors {moduli} were normalised")

        monkeypatch.setattr(groups, "_primary_of", refused)
        chain = [2, 2, 168]
        a = FgAbelianGroup.from_torsion(chain, free_rank=1)
        assert (a.free_rank, a.invariant_factors) == (1, (2, 2, 168))
        assert FgAbelianGroup.from_torsion([7])._primary_form() == {7: {1: 1}}
        assert FgAbelianGroup.from_torsion([]).is_trivial()

    @pytest.mark.parametrize("ms,error", [
        ([2, 0], "invalid cyclic order 0"),
        ([2, -4], "invalid cyclic order -4"),
        ([0], "invalid cyclic order 0"),
        ([2, 4, -8], "invalid cyclic order -8"),
    ])
    def test_nonpositive_order_after_a_chain(self, ms, error):
        # b % a == 0 holds for b = 0 and b = -4: such lists take the normalising path
        with pytest.raises(CharvarError, match=f"^{error}$"):
            FgAbelianGroup.from_torsion(ms)

    def test_chain_past_the_ceiling_reports_its_first_factor_above(self):
        # 2^13999 has 14000 bits; 2^14000 has 14001 and is reported, not 2^14100
        chain = [2, 2**13999, 2**14000, 2**14100]
        with pytest.raises(CharvarError, match="^an invariant factor of at least 14001 bits"
                                               " is above the ceiling of 14000 bits$"):
            FgAbelianGroup.from_torsion(chain)
        with pytest.raises(CharvarError, match="^an invariant factor of at least 14001 bits"):
            FgAbelianGroup.from_torsion(chain, free_rank=-1)  # before the free rank

    def test_from_torsion_near_linear(self):
        start = time.perf_counter()
        a = FgAbelianGroup.from_torsion([2, 3, 4, 6, 12] * 3000)
        elapsed = time.perf_counter() - start
        assert a.invariant_factors == (2,) * 3000 + (6,) * 3000 + (12,) * 6000
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    @given(fga, st.integers(min_value=0, max_value=6))
    def test_power_repeats_each_factor_in_place(self, a, n):
        assert a.power(n) == FgAbelianGroup.from_torsion(
            list(a.invariant_factors) * n, free_rank=a.free_rank * n
        )

    @given(fga, st.integers(min_value=0, max_value=4))
    def test_power_is_iterated_sum(self, a, n):
        acc = FgAbelianGroup.trivial()
        for _ in range(n):
            acc = acc.direct_sum(a)
        assert a.power(n) == acc


class TestPrimaryForm:
    @given(st.lists(st.tuples(moduli, st.integers(min_value=0, max_value=2), st.booleans()),
                    min_size=1, max_size=4),
           st.tuples(st.just([]), st.integers(min_value=0, max_value=2), st.booleans()),
           st.integers(min_value=0, max_value=4))
    def test_direct_sum_matches_oracles(self, parts, free_only, at):
        # a free-only summand anywhere leaves the torsion of the others
        parts = parts[:at] + [free_only] + parts[at:]
        summands = [built(*part) for part in parts]
        total = summands[0].direct_sum(*summands[1:])
        everything = [m for ms, _, _ in parts for m in ms]
        assert total.invariant_factors == slot_fill(everything)
        if len(everything) <= 12:
            assert total.invariant_factors == snf_factors(everything)
        assert total.free_rank == sum(free for _, free, _ in parts)

    @pytest.mark.parametrize("from_fields", [False, True])
    def test_one_torsion_summand_is_kept(self, from_fields, monkeypatch):
        # A + Z^n has the torsion of A: nothing is normalised or re-derived
        torsion = built([4, 6, 9, 9], 1, from_fields)
        others = [FgAbelianGroup.free(2), FgAbelianGroup.trivial(),
                  FgAbelianGroup.from_torsion([1, 1], free_rank=3)]
        calls = []
        for name in ("_normalise", "_invariant_factors"):
            derive = getattr(groups, name)
            monkeypatch.setattr(groups, name,
                                lambda arg, name=name, derive=derive: calls.append(name) or derive(arg))
        for summands in itertools.permutations([torsion, *others]):
            total = summands[0].direct_sum(*summands[1:])
            assert total == FgAbelianGroup(free_rank=6, invariant_factors=(3, 18, 36))
            assert total.invariant_factors is torsion.invariant_factors
            assert vars(total).get("_primary") is vars(torsion).get("_primary")
        assert others[0].direct_sum(*others[1:]) == FgAbelianGroup.free(5)
        assert calls == []
        # two torsion summands change the primary form
        assert torsion.direct_sum(*others, torsion).invariant_factors == (3, 3, 18, 18, 36, 36)
        assert {"_normalise", "_invariant_factors"} <= set(calls)

    @given(st.lists(fga, min_size=1, max_size=4),
           st.lists(st.tuples(st.sampled_from(["direct_sum", "power", "from_torsion"]),
                              st.integers(min_value=0, max_value=20),
                              st.integers(min_value=0, max_value=20)), max_size=8))
    def test_operands_are_never_mutated(self, pool, steps):
        # results share their operands' forms, so no operation may change one
        def snapshot():
            return copy.deepcopy([(g.free_rank, g.invariant_factors, g._primary_form())
                                  for g in pool])

        for op, i, j in steps:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            before = snapshot()
            if op == "direct_sum":
                result = a.direct_sum(b, *pool[j % len(pool):])
            elif op == "power":
                result = a.power(j % 4)
            else:
                result = FgAbelianGroup.from_torsion(a.invariant_factors + b.invariant_factors,
                                                     free_rank=b.free_rank)
            assert snapshot() == before
            pool.append(result)

    @given(moduli, st.integers(min_value=0, max_value=2), st.booleans(),
           st.integers(min_value=0, max_value=40))
    def test_power_matches_oracles(self, ms, free, from_fields, n):
        a = built(ms, free, from_fields)
        b = a.power(n)
        assert b.invariant_factors == slot_fill(ms * n)
        assert b.invariant_factors == tuple(d for d in a.invariant_factors for _ in range(n))
        if len(ms) * n <= 12:
            assert b.invariant_factors == snf_factors(ms * n)
        assert b.free_rank == free * n

    @given(moduli, st.integers(min_value=0, max_value=3))
    def test_same_group_either_way(self, ms, free):
        # equality, hash, repr and str read the public fields only
        a, b = built(ms, free, False), built(ms, free, True)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and str(a) == str(b)
        assert a.direct_sum(b) == b.direct_sum(a) == b.power(2)

    def test_sums_and_powers_never_factorize(self):
        big = FgAbelianGroup.from_torsion([99999989, 99999971, 12])
        center = center_group(T("D6"))
        bott = FgAbelianGroup.from_torsion([2], free_rank=1)
        value = big.power(1900).direct_sum(center, bott.power(3))
        assert value.free_rank == 3
        assert value.invariant_factors == (2,) * 5 + (12 * 99999989 * 99999971,) * 1900
        assert big.direct_sum(big) == big.power(2)
        assert big.power(0) == FgAbelianGroup.trivial()

    def test_factor_bit_ceiling(self):
        assert MAX_FACTOR_BITS == 14_000
        at = FgAbelianGroup.from_torsion([2 ** (MAX_FACTOR_BITS - 1)])
        assert at.invariant_factors[0].bit_length() == MAX_FACTOR_BITS
        assert str(at).startswith("Z_")  # still printable
        with pytest.raises(CharvarError, match="above the ceiling of 14000 bits"):
            FgAbelianGroup.from_torsion([2 ** MAX_FACTOR_BITS])
        # coprime summands multiply into one factor, so sums are checked too
        with pytest.raises(CharvarError, match="above the ceiling of 14000 bits"):
            FgAbelianGroup.from_torsion([2**7000]).direct_sum(
                FgAbelianGroup.from_torsion([3**5000]))

    def test_odd_factor_bit_ceiling(self):
        # 3^8833 has exactly 14000 bits; no power of 3 has 14001, but 2^14000 + 1 has
        at = FgAbelianGroup.from_torsion([3**8833])
        assert at.invariant_factors == (3**8833,)
        for past, bits in [(3**8834, 14002), (2**MAX_FACTOR_BITS + 1, 14001)]:
            with pytest.raises(CharvarError, match=f"^an invariant factor of at least {bits} bits"
                                                   f" is above the ceiling of 14000 bits$"):
                FgAbelianGroup.from_torsion([past])
        # a power and a sum meet the check on the factors built from a primary
        # form: 2 * 3^8832 has 14000 bits and 2 * 3^8833 has 14001
        two = FgAbelianGroup.cyclic(2)
        built = FgAbelianGroup.from_torsion([3**8832]).power(2).direct_sum(two)
        assert built.invariant_factors == (3**8832, 2 * 3**8832)
        with pytest.raises(CharvarError, match="^an invariant factor of 14001 bits"
                                               " is above the ceiling of 14000 bits$"):
            at.power(2).direct_sum(two)

    def test_bit_ceiling_before_factorising(self, monkeypatch):
        # 2000 distinct primes near 10^9: their product has about 59800 bits
        primes = near_billion_primes(2000)

        def refused(parts):
            raise AssertionError(f"a base of {len(parts)} moduli built past the bit ceiling")

        monkeypatch.setattr(groups, "_normalise", refused)
        t0 = time.perf_counter()
        with pytest.raises(CharvarError, match=r"^an invariant factor of at least \d+ bits"
                                               r" is above the ceiling of 14000 bits$"):
            FgAbelianGroup.from_torsion(primes)
        assert time.perf_counter() - t0 < 0.5
        # an order <= 0 anywhere in the list is reported as before
        with pytest.raises(CharvarError, match=r"^invalid cyclic order 0$"):
            FgAbelianGroup.from_torsion(primes + [0])

    @given(st.lists(smooth_modulus, min_size=1, max_size=5))
    @example([2 ** (MAX_FACTOR_BITS - 1)])
    @example([2 ** MAX_FACTOR_BITS])
    @example([2**7000, 3**4416, 6])
    @example([2**7000, 3**4417, 6])
    @settings(deadline=None)
    def test_refused_exactly_past_the_bit_ceiling(self, ms):
        # the lcm of the moduli is the largest invariant factor
        lcm = math.lcm(*ms)
        if lcm.bit_length() > MAX_FACTOR_BITS:
            with pytest.raises(CharvarError, match="above the ceiling of 14000 bits"):
                FgAbelianGroup.from_torsion(ms)
        else:
            assert FgAbelianGroup.from_torsion(ms).invariant_factors[-1] == lcm

    def test_large_moduli_answer_at_once(self):
        # trial division to the square root of these moduli would take minutes
        for build, moduli in [
            (lambda: FgAbelianGroup.cyclic(999999937 * 999999929).power(2),
             [999999937 * 999999929] * 2),
            (lambda: FgAbelianGroup.from_torsion([2**61 - 1, 6, 4]), [2**61 - 1, 6, 4]),
        ]:
            t0 = time.perf_counter()
            group = build()
            assert time.perf_counter() - t0 < 1.0
            assert group.invariant_factors == snf_factors(moduli)

    @given(st.lists(st.tuples(base_modulus, st.integers(min_value=1, max_value=3),
                              st.integers(min_value=1, max_value=3)), max_size=8))
    def test_coprime_base(self, parts):
        # parts (b, {e: count}); the keys form a coprime base of the b's
        primary = groups._normalise([(b, {e: n}) for b, e, n in parts])
        keys = list(primary)
        assert all(c > 1 for c in keys)
        assert all(math.gcd(c, d) == 1 for i, c in enumerate(keys) for d in keys[:i])
        for b, _, _ in parts:
            for c in keys:
                while b % c == 0:
                    b //= c
            assert b == 1
        # and the counts keep the order of the group
        assert math.prod(c ** (e * n) for c, counts in primary.items()
                         for e, n in counts.items()) == math.prod(b ** (e * n) for b, e, n in parts)

    @given(st.lists(st.tuples(st.lists(base_modulus, max_size=4), st.booleans(),
                              st.integers(min_value=0, max_value=3)), min_size=1, max_size=4))
    def test_direct_sum_of_shared_keys_matches_smith_normal_form(self, parts):
        # summands whose keys share composite factors (12, 18, 2, 4, ...) and
        # large primes; the prime-based oracle would trial-divide these
        summands = [(FgAbelianGroup(invariant_factors=snf_factors(ms)) if from_fields
                     else FgAbelianGroup.from_torsion(ms)).power(n)
                    for ms, from_fields, n in parts]
        total = summands[0].direct_sum(*summands[1:])
        assert total.invariant_factors == snf_factors(
            [m for ms, _, n in parts for m in ms * n])

    def test_negative_free_rank_refused(self):
        with pytest.raises(CharvarError, match="negative free rank"):
            FgAbelianGroup.from_torsion([2], free_rank=-1)


square_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


class TestSmithNormalForm:
    def test_examples(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
        assert smith_normal_form([[1, 2, 3]]) == [1]

    @given(square_matrix)
    def test_determinant_and_divisibility(self, m):
        diag = smith_normal_form([row[:] for row in m])
        assert math.prod(diag) == abs(det(m))
        nonzero = [d for d in diag if d]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert all(d >= 0 for d in diag)


CENTERS = {
    "A1": [2], "A2": [3], "A4": [5], "A7": [8],
    "B2": [2], "B5": [2], "C3": [2], "C6": [2],
    "D4": [2, 2], "D6": [2, 2], "D5": [4], "D7": [4],
    "E6": [3], "E7": [2], "E8": [], "F4": [], "G2": [],
}


class TestCenter:
    def test_known_centers(self):
        for name, tors in CENTERS.items():
            assert center_group(T(name)) == FgAbelianGroup.from_torsion(tors), name

    def test_matches_smith_normal_form(self):
        # Z(G_sc) is the cokernel of the Cartan matrix, as a group: orders
        # alone cannot tell Z_4 from Z_2^2
        for t in types_up_to(40):
            diag = smith_normal_form([list(r) for r in cartan_matrix(t)])
            assert center_group(t) == FgAbelianGroup.from_torsion(d for d in diag if d > 1), t


class TestDescriptor:
    def test_parse_examples(self):
        g = parse_group("T^1 x A3[sc] x D5[ad]")
        assert g.torus_rank == 1
        assert g.factors == (
            (T("A3"), Isogeny.SIMPLY_CONNECTED),
            (T("D5"), Isogeny.ADJOINT),
        )
        assert parse_group("E8").factors == ((T("E8"), Isogeny.SIMPLY_CONNECTED),)
        assert parse_group("T^3").is_abelian

    def test_parse_roundtrip_via_str(self):
        for text in ["E8[sc]", "T^2 x A1[ad]", "B3[ad] x B3[ad]", "T^1 x G2[sc]"]:
            g = parse_group(text)
            assert parse_group(str(g)) == g

    @pytest.mark.parametrize("bad", ["", "x", "A3 x T^1", "T^1 x T^2", "A3[foo]", "H2",
                                     "T^10001"])
    def test_parse_errors(self, bad):
        with pytest.raises(CharvarError):
            parse_group(bad)

    def test_semisimple_rank(self):
        assert parse_group("T^2 x A3 x G2").semisimple_rank == 5
        assert parse_group("T^4").semisimple_rank == 0

    def test_min_simple_rank(self):
        assert min_simple_rank(parse_group("A3 x G2 x E8")) == 2
        with pytest.raises(CharvarError):
            min_simple_rank(parse_group("T^2"))


class TestPi1:
    def test_pi1(self):
        assert pi_group(parse_group("T^1"), 1) == FgAbelianGroup.free(1)
        assert pi_group(parse_group("A1[sc]"), 1) == FgAbelianGroup.trivial()
        assert pi_group(parse_group("A1[ad]"), 1) == FgAbelianGroup.cyclic(2)
        assert pi_group(parse_group("T^1 x E6[ad]"), 1) == FgAbelianGroup(
            free_rank=1, invariant_factors=(3,))

    def test_pi1_adjoint_ignores_isogeny(self):
        for iso in ("sc", "ad"):
            pg = parse_group(f"E7[{iso}]").adjoint()
            assert pg == parse_group("E7[ad]")
            assert pi_group(pg, 1) == FgAbelianGroup.cyclic(2)
        assert parse_group("T^5 x E8").adjoint() == parse_group("E8[ad]")
        assert pi_group(parse_group("T^5 x E8").adjoint(), 1) == FgAbelianGroup.trivial()
        assert pi_group(parse_group("A2 x A2[ad]").adjoint(), 1) == FgAbelianGroup(
            invariant_factors=(3, 3))

    def test_negative_degree_rejected(self):
        with pytest.raises(CharvarError):
            pi_group(parse_group("T^2"), -1)


class TestCI:
    def test_positive(self):
        for text in ["T^3", "A1", "T^1 x A2[sc] x A5[sc]"]:
            verdict, witness = is_ci(parse_group(text))
            assert verdict and "special linear" in witness

    def test_non_type_a(self):
        verdict, witness = is_ci(parse_group("A2 x B3"))
        assert not verdict and witness == "factor B3 is not of type A"

    def test_not_simply_connected(self):
        verdict, witness = is_ci(parse_group("A4[ad]"))
        assert not verdict and witness == "factor A4 is not simply connected"
