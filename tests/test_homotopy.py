import re
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charvar import (
    CharvarError,
    FgAbelianGroup,
    Isogeny,
    SimpleType,
    Validity,
    center_group,
    good_locus_homotopy,
    load_database,
    parse_group,
    pi_group,
    pi_simple,
    stable_range,
)
from charvar import homotopy
from charvar.homotopy import default_database

import golden_tables as g
from diagrams import positive_roots
from golden_tables import T

Z = FgAbelianGroup.free(1)
Z2 = FgAbelianGroup.cyclic(2)
ZERO = FgAbelianGroup.trivial()
NINES = "9" * 4400
UNKNOWN = FgAbelianGroup.unknown()
SC, AD = Isogeny.SIMPLY_CONNECTED, Isogeny.ADJOINT
SHIPPED = resources.files("charvar").joinpath("data/pi_exceptional.txt")


class TestPiSimpleLow:
    def test_k01(self):
        assert pi_simple(T("E6"), SC, 0) == ZERO
        assert pi_simple(T("E6"), SC, 1) == ZERO
        assert pi_simple(T("E6"), AD, 1) == FgAbelianGroup.cyclic(3)
        assert pi_simple(T("D6"), AD, 1) == FgAbelianGroup.from_torsion([2, 2])

    def test_k23_universal(self):
        for name in ["A1", "B4", "C3", "D5", "G2", "F4", "E8"]:
            for iso in (SC, AD):
                assert pi_simple(T(name), iso, 2) == ZERO, name
                assert pi_simple(T(name), iso, 3) == Z, name

    def test_k4(self):
        assert pi_simple(T("A1"), SC, 4) == Z2
        assert pi_simple(T("B2"), SC, 4) == Z2
        assert pi_simple(T("C3"), AD, 4) == Z2
        assert pi_simple(T("A2"), SC, 4) == ZERO
        assert pi_simple(T("B3"), SC, 4) == ZERO
        assert pi_simple(T("D4"), SC, 4) == ZERO

    def test_k5(self):
        assert pi_simple(T("A1"), SC, 5) == Z2
        assert pi_simple(T("A3"), SC, 5) == Z
        assert pi_simple(T("B2"), SC, 5) == Z2
        assert pi_simple(T("B4"), SC, 5) == ZERO
        assert pi_simple(T("C3"), SC, 5) == Z2
        assert pi_simple(T("D5"), SC, 5) == ZERO


class TestPiSimpleStable:
    def test_bott_values_in_range(self):
        # SU(n): pi_k = Z for odd k, 0 for even k, while k <= 2n
        assert pi_simple(T("A4"), SC, 7) == Z
        assert pi_simple(T("A4"), SC, 8) == ZERO
        assert pi_simple(T("A5"), SC, 10) == ZERO
        # Sp(n): period-8 pattern 0,0,Z,Z2,Z2,0,Z
        assert pi_simple(T("C3"), SC, 7) == Z
        assert pi_simple(T("C3"), SC, 12) == Z2
        assert pi_simple(T("C3"), SC, 13) == Z2
        # Spin(n): period-8 pattern with Z2 at k = 0, 1 mod 8
        assert pi_simple(T("B6"), SC, 8) == Z2
        assert pi_simple(T("B6"), SC, 9) == Z2
        assert pi_simple(T("D7"), SC, 7) == Z
        assert pi_simple(T("D7"), SC, 10) == ZERO

    def test_unknown_outside_coverage(self):
        # the first degree past each chain's stable range is not Bott's value
        for name, k in [
            ("A1", 6),   # pi_6(S^3) = Z_12
            ("A2", 6),   # pi_6(SU(3)) = Z_6
            ("A2", 7),
            ("B2", 10),  # pi_10(Sp(2)) = Z_120
            ("B4", 8),   # pi_8(Spin(9)) = Z_2^2
            ("D4", 7),   # pi_7(Spin(8)) = Z^2
            ("C3", 14),
        ]:
            for iso in (SC, AD):
                assert pi_simple(T(name), iso, k) == UNKNOWN, (name, iso, k)

    # Entered from Mimura-Toda (Topology of Lie Groups, 1991) and Kervaire
    # (Non-stable homotopy groups of spheres and of classical groups, 1960),
    # not from the stable rule.
    @pytest.mark.parametrize("name, k, want", [
        *[("B2", k, w) for k, w in zip(range(4, 10), (Z2, Z2, ZERO, Z, ZERO, ZERO))],
        ("A3", 6, ZERO), ("A3", 7, Z),
        ("B4", 6, ZERO), ("B4", 7, Z),
        ("D4", 6, ZERO),
        ("B5", 8, Z2), ("B5", 9, Z2),
    ])
    def test_reference_values(self, name, k, want):
        for iso in (SC, AD):
            assert pi_simple(T(name), iso, k) == want, (name, iso, k)

    def test_isogeny_irrelevant_for_k_ge_2(self):
        for k in range(2, 10):
            assert pi_simple(T("A5"), SC, k) == pi_simple(T("A5"), AD, k)
            assert pi_simple(T("G2"), SC, k) == pi_simple(T("G2"), AD, k)

    def test_negative_k(self):
        with pytest.raises(CharvarError, match="negative homotopy degree"):
            pi_simple(T("A1"), SC, -1)
        # a torus has no simple factor, so pi_group makes the check itself
        for spec in ("T^3", "G2"):
            with pytest.raises(CharvarError, match="negative homotopy degree"):
                pi_group(parse_group(spec), -1)
        for spec in ("T^2", "G2"):
            with pytest.raises(CharvarError, match="negative homotopy degree"):
                good_locus_homotopy(parse_group(spec), 2, -1)


class TestExceptionalDatabase:
    def test_spot_values(self):
        assert pi_simple(T("G2"), SC, 6) == FgAbelianGroup.cyclic(3)
        assert pi_simple(T("G2"), SC, 14) == FgAbelianGroup.from_torsion([2, 168])
        assert pi_simple(T("F4"), SC, 8) == Z2
        assert pi_simple(T("F4"), SC, 15) == Z
        assert pi_simple(T("E6"), SC, 9) == Z
        assert pi_simple(T("E6"), SC, 10) == UNKNOWN
        assert pi_simple(T("E7"), SC, 11) == Z
        assert pi_simple(T("E7"), SC, 12) == UNKNOWN
        assert pi_simple(T("E8"), SC, 14) == ZERO
        assert pi_simple(T("E8"), SC, 15) == Z
        assert pi_simple(T("E8"), SC, 16) == UNKNOWN

    def test_default_database_covers_2_to_15(self):
        db = default_database()
        for name in g.ALL_EXCEPTIONAL:
            for k in range(2, 16):
                assert (T(name), k) in db, (name, k)

    def test_database_has_provenance(self):
        db = default_database()
        for key, cell in db.items():
            if cell.group.known:
                assert cell.source, key

    def test_cells_name_their_lines(self):
        shipped = resources.files("charvar").joinpath("data/pi_exceptional.txt").read_text()
        lines = shipped.splitlines()
        for (t, k), cell in default_database().items():
            fields = lines[cell.line - 1].split(None, 5)
            assert (fields[0], fields[2]) == (str(t), str(k)), cell
            assert fields[5] == cell.source, cell

    def test_each_type_parses_its_own_rows(self):
        # the shipped table is parsed one type at a time, on first use; each
        # type's cells (group, source, line) are its rows of the whole file
        whole = load_database(SHIPPED)
        for name in g.ALL_EXCEPTIONAL:
            rows = {key: cell for key, cell in whole.items() if key[0] == T(name)}
            assert homotopy._shipped_cells(T(name)) == rows, name
            assert len(rows) == 14, name

    def test_default_database_is_the_whole_file(self):
        # a shipped line the per-type filter skipped would show here
        assert default_database() == load_database(SHIPPED)

    def test_per_type_cache_is_cleared_with_the_others(self):
        # the benchmark clears every module-level cache_clear before an op,
        # so a cold op pays the parse of its own type
        found = [value for value in vars(homotopy).values()
                 if callable(getattr(value, "cache_clear", None))]
        assert homotopy._shipped_cells in found

    def test_cold_lookup_parses_only_its_type(self):
        homotopy._shipped_cells.cache_clear()
        assert pi_simple(T("G2"), SC, 6) == FgAbelianGroup.cyclic(3)
        homotopy._shipped_cells(T("G2"))
        info = homotopy._shipped_cells.cache_info()
        # one entry, parsed once and then found: the G2 entry alone
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    def test_roundtrip_through_file(self, tmp_path):
        db = default_database()
        path = tmp_path / "pi.txt"
        lines = []
        for (t, k), cell in sorted(db.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            group = cell.group
            if not group.known:
                fields = [str(t), "any", str(k), "?", "-"]
            else:
                torsion = ",".join(map(str, group.invariant_factors)) or "-"
                fields = [str(t), "any", str(k), str(group.free_rank), torsion]
            lines.append(" ".join(fields) + " " + (cell.source or "n/a"))
        path.write_text("\n".join(lines) + "\n")
        again = load_database(path)
        # the rewritten file orders its lines differently, so compare groups only
        assert {key: c.group for key, c in again.items()} == {
            key: c.group for key, c in db.items()}

    def test_override_database(self, tmp_path):
        path = tmp_path / "pi.txt"
        path.write_text("E6 any 10 0 7 hypothetical entry\nE6 any 11 0 5\n")
        db = load_database(path)
        assert pi_simple(T("E6"), SC, 10, db) == FgAbelianGroup.cyclic(7)
        # degrees absent from the override come back unknown
        assert pi_simple(T("E6"), SC, 9, db) == UNKNOWN
        # the provenance field is optional: a five-field line has none
        assert db[T("E6"), 11] == (FgAbelianGroup.cyclic(5), "", 2)

    def test_empty_override_replaces_default(self, tmp_path):
        path = tmp_path / "pi.txt"
        path.write_text("# nothing\n")
        assert pi_simple(T("G2"), SC, 6) == FgAbelianGroup.cyclic(3)
        assert pi_simple(T("G2"), SC, 6, db=load_database(path)) == UNKNOWN

    def test_empty_mapping_replaces_default(self):
        # an empty mapping is falsy, but it is a database all the same
        assert pi_simple(T("G2"), SC, 6, {}) == UNKNOWN

    def test_loader_validation(self, tmp_path):
        cases = [
            "E6 any 1 0 3 low degree",          # k < 2 is computed, not stored
            "E6 any 2 0 2 bad pi2",             # pi_2 must be trivial
            "E6 any 3 0 3 bad pi3",             # pi_3 must be Z
            "E6 mid 5 0 - bad isogeny",
            "E6 any x 0 - bad degree",
            "E6 any 5 0",                        # too few fields
        ]
        for text in cases:
            path = tmp_path / "bad.txt"
            path.write_text(text + "\n")
            with pytest.raises(CharvarError):
                load_database(path)

    # each malformed line and its message after "database line 2: "; past the
    # 4300 digits int() converts, a number names its field
    MALFORMED = {
        "E6 any x 0 - non-integer degree": "invalid literal for int() with base 10: 'x'",
        "E6 any 6 one - non-integer free rank": "invalid literal for int() with base 10: 'one'",
        "E6 any 6 0 3,b non-integer torsion": "invalid literal for int() with base 10: 'b'",
        "E6 any 6 0 0 zero torsion modulus": "invalid cyclic order 0",
        "Q6 any 6 0 - unknown type": "cannot parse simple type 'Q6'",
        f"G2 any {NINES} 0 - x": "k has too many digits",
        f"G2 any -{NINES} 0 - x": "k has too many digits",
        f"G2 any 6 {NINES} - x": "free rank has too many digits",
        f"G2 any 6 0 3,{NINES} x": "torsion modulus has too many digits",
    }

    @pytest.mark.parametrize("text", MALFORMED, ids=lambda text: text.replace(NINES, "9^4400"))
    def test_malformed_numbers_name_the_line(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n" + text + "\n")
        with pytest.raises(CharvarError) as info:
            load_database(path)
        assert str(info.value) == "database line 2: " + self.MALFORMED[text]

    def test_override_is_checked_whole(self, tmp_path):
        # a --db file is not read by type: a bad E8 line fails a G2 load
        path = tmp_path / "pi.txt"
        path.write_text("G2 any 6 0 3 x\nG2 any 5 0 - x\nE8 any 7 0 x y\n")
        with pytest.raises(CharvarError) as info:
            load_database(path)
        assert str(info.value) == "database line 3: invalid literal for int() with base 10: 'x'"

    def test_modulus_ceiling(self, tmp_path):
        # a modulus of any size loads, past 10**9 as below it
        path = tmp_path / "pi.txt"
        path.write_text("G2 any 6 0 999999937 largest prime below the ceiling\n")
        assert pi_simple(T("G2"), SC, 6, load_database(path)) == FgAbelianGroup.cyclic(999999937)
        path.write_text(f"G2 any 6 0 2,{10**9 + 1} one past the ceiling\n")
        assert pi_simple(T("G2"), SC, 6, load_database(path)) == FgAbelianGroup.from_torsion(
            [2, 10**9 + 1])

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "pi.txt"
        path.write_text("G2 any 6 0 3 Mimura\nG2 any 6 0 5 typo\n")
        with pytest.raises(CharvarError, match=r"^database line 2: duplicate of line 1 "):
            load_database(path)
        # sc, ad and any name one cell, so a second iso is a duplicate too
        path.write_text("E6 any 10 0 7 x\nE6 ad 10 0 5 y\n")
        with pytest.raises(CharvarError,
                           match=r"^database line 2: duplicate of line 1 \(E6 k=10\)$"):
            load_database(path)
        # and a lone iso-specific line answers for both isogenies
        path.write_text("E6 ad 10 0 5 y\n")
        db = load_database(path)
        assert pi_simple(T("E6"), SC, 10, db) == FgAbelianGroup.cyclic(5)
        assert pi_simple(T("E6"), AD, 10, db) == FgAbelianGroup.cyclic(5)

    @pytest.mark.parametrize("text,error", [
        ("G2 any 5 0 3 a\nG2 any 6 0 3 b\nG2 any 2 0 3 c\n", "line 3: pi_2 "),
        ("G2 any 5 1 - a\nF4 any 5 1 - b\nF4 any 3 0 - c\n", "line 3: pi_3 "),
        ("G2 any 4 1 - a\nG2 any 3 1 - b\nG2 any 3 1 - c\n", "line 3: duplicate of line 2 "),
        ("G2 any 6 0 3 a\nG2 any 1 0 3 b\n", "line 2: k < 2 "),
        ("G2 any 6 0 3 a\nG2 one 7 0 3 b\n", "line 2: bad isogeny "),
        ("G2 any 6 0 3 a\nG2 any 7 0\n", "line 2: expected 5\\+ fields"),
    ])
    def test_repeated_text_is_checked_on_every_line(self, tmp_path, text, error):
        # a label or group text is parsed once per load, since the loader is
        # hot; every line is still checked
        path = tmp_path / "pi.txt"
        path.write_text(text)
        with pytest.raises(CharvarError, match=f"^database {error}"):
            load_database(path)

    def test_repeated_text_gives_equal_groups(self, tmp_path):
        path = tmp_path / "pi.txt"
        path.write_text("G2 any 8 0 2 a\nF4 any 8 0 2 b\nE6 ad 8 0 2 c\n")
        db = load_database(path)
        assert {cell.group for cell in db.values()} == {FgAbelianGroup.cyclic(2)}
        assert pi_simple(T("F4"), AD, 8, db) == FgAbelianGroup.cyclic(2)

    def test_length_ceiling(self, tmp_path, memory_cap):
        from charvar.errors import MAX_DB_CHARS

        assert MAX_DB_CHARS == 10**6
        path = tmp_path / "pi.txt"
        path.write_text("#" * (MAX_DB_CHARS - 1) + "\n")
        assert load_database(path) == {}
        path.write_text("#" * MAX_DB_CHARS + "\n")
        for source in (str(path), "/dev/zero"):
            with pytest.raises(CharvarError, match=f"^database {re.escape(source)}: longer than"
                                                   f" the ceiling of 1000000 characters$"):
                load_database(source)

    @pytest.mark.parametrize("text,error", [
        ("A2 any 6 0 6 x", "A2 is classical: only E6-E8, F4 and G2 are stored"),
        ("D4 ad 7 1 - x", "D4 is classical: only E6-E8, F4 and G2 are stored"),
        ("E6 any 10 ? banana x", "torsion 'banana' after an unknown free rank: use ? or -"),
        ("E6 any 10 ? 2 x", "torsion '2' after an unknown free rank: use ? or -"),
        ("E6 any 11 1 ? x", "torsion '?' needs an unknown free rank: use ? ?"),
    ])
    def test_text_the_loader_would_drop_is_refused(self, tmp_path, text, error):
        # pi_k of a classical type come from Bott's table, and an unknown
        # group has no torsion, so neither would ever be read
        path = tmp_path / "pi.txt"
        path.write_text("G2 any 6 0 3 x\n" + text + "\n")
        with pytest.raises(CharvarError, match=f"^database line 2: {re.escape(error)}$"):
            load_database(path)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_lines_end_only_at_newline(self, tmp_path, char):
        # str.splitlines() would end a line at each of these characters
        path = tmp_path / "pi.txt"
        path.write_text(f"G2 any 6 0 3 Mimura{char}Toda\nG2 any 5 0 - x\n", encoding="utf-8")
        db = load_database(path)
        assert db[T("G2"), 6].source == f"Mimura{char}Toda"
        assert (db[T("G2"), 6].line, db[T("G2"), 5].line) == (1, 2)
        path.write_text(f"G2 any 6 0 3 a{char}b\nG2 any 5 0 x c\n", encoding="utf-8")
        with pytest.raises(CharvarError, match=r"^database line 2: "):
            load_database(path)

    def test_crlf_and_cr_lines(self, tmp_path):
        path = tmp_path / "pi.txt"
        for newline in ("\r\n", "\r"):
            path.write_bytes(f"G2 any 6 0 3 a{newline}G2 any 5 0 - b{newline}".encode())
            db = load_database(path)
            assert (db[T("G2"), 6].source, db[T("G2"), 5].line) == ("a", 2), repr(newline)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"E6 any 6 0 - caf\xff\n")
        with pytest.raises(CharvarError, match=r"^database .*bad\.txt: "):
            load_database(path)


SWEEP = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 13)]
         + [f"C{n}" for n in range(3, 13)] + [f"D{n}" for n in range(4, 13)]
         + ["E6", "E7", "E8", "F4", "G2"])
EXCEPTIONAL_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}


def exponents(t):
    """The exponents of a simple Lie algebra, closed form (Bourbaki plates I-IX)."""
    n = t.rank
    if t.family == "A":
        return tuple(range(1, n + 1))
    if t.family in "BC":
        return tuple(range(1, 2 * n, 2))
    if t.family == "D":
        return tuple(sorted([*range(1, 2 * n - 2, 2), n - 1]))
    return EXCEPTIONAL_EXPONENTS[str(t)]


class TestIsogenyAndExponents:
    """pi_k for k >= 2 is one cell per (type, k), and its free rank is the
    number of exponents e with 2e + 1 = k (Cartan-Serre: G is rationally a
    product of spheres S^(2e+1))."""

    @pytest.mark.parametrize("name", SWEEP)
    def test_exponents_are_kostants_height_count(self, name):
        # the number of exponents >= h is the number of positive roots of height h
        roots = positive_roots(T(name))
        heights = [sum(c) for c in roots]
        exps = exponents(T(name))
        assert len(exps) == T(name).rank
        assert sum(exps) == len(roots)
        for h in range(1, max(heights) + 2):
            assert sum(e >= h for e in exps) == heights.count(h), (name, h)

    @pytest.mark.parametrize("source", ["default", "ad_only"])
    def test_isogenies_agree_and_free_rank_counts_exponents(self, tmp_path, source):
        db = None
        if source == "ad_only":
            # the shipped table with every line's iso column set to ad
            shipped = resources.files("charvar").joinpath("data/pi_exceptional.txt").read_text()
            path = tmp_path / "pi.txt"
            path.write_text(re.sub(r"^(\S+) any ", r"\1 ad ", shipped, flags=re.M))
            db = load_database(path)
        known = 0
        for name in SWEEP:
            t = T(name)
            for k in range(2, 40):
                sc, ad = pi_simple(t, SC, k, db), pi_simple(t, AD, k, db)
                assert sc == ad, (name, k)
                if sc.known:
                    known += 1
                    assert sc.free_rank == sum(2 * e + 1 == k for e in exponents(t)), (name, k)
        # the shipped table and Bott's stable ranges: coverage may grow, never shrink
        assert known >= 755


class TestGoodLocus:
    def test_requires_r_ge_2(self):
        with pytest.raises(CharvarError):
            good_locus_homotopy(parse_group("A1"), 1, 3)

    def test_k0(self):
        res = good_locus_homotopy(parse_group("E8"), 2, 0)
        assert res.value == ZERO and res.validity is Validity.STABLE

    def test_k1_counts_torus_and_pi1(self):
        res = good_locus_homotopy(parse_group("T^2 x A3[ad]"), 3, 1)
        # (Z^2 + Z_4)^3; pi_0(PG) contributes nothing
        assert res.value == FgAbelianGroup(free_rank=6, invariant_factors=(4, 4, 4))

    def test_k2_is_pi1_of_pg(self):
        # pi_2(G) = 0, so the value is pi_1(PG): the centers of the factors
        for text, want in [("E7", Z2), ("E7[ad]", Z2),
                           ("A3 x D5[ad]", FgAbelianGroup(invariant_factors=(4, 4))),
                           ("T^1 x G2", ZERO)]:
            res = good_locus_homotopy(parse_group(text), 2, 2)
            assert res.value == want, text

    def test_assembly_example(self):
        # pi_4 for SU(2): (Z_2)^r from G plus pi_3(PG) = Z
        res = good_locus_homotopy(parse_group("A1"), 3, 4)
        assert res.value == FgAbelianGroup(free_rank=1, invariant_factors=(2, 2, 2))
        assert "pi_4(G)^3 + pi_3(PG)" in res.formula_trace

    def test_unknown_propagates(self):
        res = good_locus_homotopy(parse_group("A1 x E8"), 2, 6)
        assert res.value == UNKNOWN

    def test_abelian_all_degrees_stable(self):
        res = good_locus_homotopy(parse_group("T^2"), 2, 1)
        assert res.value == FgAbelianGroup.free(4)
        assert res.validity is Validity.STABLE
        res = good_locus_homotopy(parse_group("T^2"), 2, 9)
        assert res.value == ZERO and res.validity is Validity.STABLE

    def test_validity_transitions(self):
        e8 = parse_group("E8")
        assert good_locus_homotopy(e8, 2, 14).validity is Validity.STABLE
        assert good_locus_homotopy(e8, 2, 15).validity is Validity.OUT_OF_PROVEN_RANGE
        a1 = parse_group("A1")
        assert good_locus_homotopy(a1, 2, 0).validity is Validity.STABLE
        assert good_locus_homotopy(a1, 2, 2).validity is Validity.OUT_OF_PROVEN_RANGE
        assert good_locus_homotopy(a1, 3, 2).validity is Validity.STABLE
        assert good_locus_homotopy(a1, 3, 3).validity is Validity.OUT_OF_PROVEN_RANGE

    def test_low_degree_validity(self):
        a1ad = parse_group("A1[ad]")
        assert good_locus_homotopy(a1ad, 2, 2).validity is Validity.OUT_OF_PROVEN_RANGE
        b2 = parse_group("B2")
        assert good_locus_homotopy(b2, 2, 2).validity is Validity.STABLE
        assert good_locus_homotopy(b2, 2, 3).validity is Validity.OUT_OF_PROVEN_RANGE


class TestExceptionalTable:
    @pytest.mark.parametrize("name", g.ALL_EXCEPTIONAL)
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_adjoint_good_locus_matches_table(self, name, r):
        grp = parse_group(f"{name}[ad]")
        for k in range(16):
            want = g.cell_group(g.EXC_HOMOTOPY[name][k], r)
            got = good_locus_homotopy(grp, r, k)
            assert got.value == want, (name, r, k)

    @pytest.mark.parametrize("name", g.ALL_EXCEPTIONAL)
    def test_stability_thresholds(self, name):
        grp = parse_group(f"{name}[ad]")
        for k, r_min in g.EXC_STABLE_THRESHOLD[name].items():
            for r in range(2, 7):
                res = good_locus_homotopy(grp, r, k)
                if r >= r_min:
                    assert res.validity is Validity.STABLE, (name, k, r)
                elif k > 2:
                    assert res.validity is Validity.OUT_OF_PROVEN_RANGE, (name, k, r)


class TestBottPeriodicity:
    @given(st.integers(min_value=6, max_value=20))
    def test_period_eight(self, k):
        from charvar.homotopy import _bott_stable_value

        for family in "ABCD":
            assert _bott_stable_value(family, k) == _bott_stable_value(family, k + 8)

    def test_unitary_period_two(self):
        from charvar.homotopy import _bott_stable_value

        for k in range(6, 20):
            assert _bott_stable_value("A", k) == (Z if k % 2 else ZERO)

    def test_large_rank_agrees_with_stable(self):
        # pi_k of a large-rank group equals the stable value for small k
        from charvar.homotopy import _bott_stable_value

        for family, name in [("A", "A12"), ("B", "B12"), ("C", "C12"), ("D", "D12")]:
            for k in range(6, 16):
                assert pi_simple(T(name), SC, k) == _bott_stable_value(family, k), (name, k)
