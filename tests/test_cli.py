import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charvar import FgAbelianGroup, errors, localmodel, subalg
from charvar.cli import fga_to_json, run
from charvar.errors import MAX_FACTORS, MAX_FREE_RANK, MAX_RANK

import golden_tables as g

DATA = pathlib.Path(__file__).parent / "data"

# Byte-exact transcripts in tests/data/cli/<name>.<ext>, one per format.  They
# pin every subcommand's output; rewrite them only for an intended change.
# The text tables of the other exceptional types sit beside them (TestTables).
FORMATS = {"text": "txt", "json": "json", "csv": "csv"}
TRANSCRIPTS = {
    "table-levi_A1": ("table-levi", "A1"),
    "table-levi_E7": ("table-levi", "E7"),
    "table-bds_A5": ("table-bds", "A5"),
    "table-bds_G2": ("table-bds", "G2"),
    "table-bds_E8": ("table-bds", "E8"),
    "roots_E8": ("roots", "E8"),
    "codim_T1xA3sc_r3": ("codim", "T^1 x A3[sc]", "-r", "3"),
    "homotopy_E7ad_r2_k1": ("homotopy", "E7[ad]", "-r", "2", "-k", "1"),
    "homotopy_E6_r2_k10": ("homotopy", "E6", "-r", "2", "-k", "10"),
    "ci_T1xA2sc": ("ci", "T^1 x A2[sc]"),
    "ci_B3": ("ci", "B3"),
    "singular-locus_A1_r2": ("singular-locus", "A1", "-r", "2"),
    "singular-locus_E8_r1": ("singular-locus", "E8", "-r", "1"),
    "local-model_G2_i1_r3": ("local-model", "G2", "-i", "1", "-r", "3"),
    "local-model_A1_i1_r2": ("local-model", "A1", "-i", "1", "-r", "2"),
}


# sha256 of `local-model A1 -i 1 -r 100002` (M = 10**5, 200002 degrees) in each
# format: byte-identity at a size the transcripts above do not reach.
LARGE_LOCAL_MODEL = {
    "text": "e62d54aa2c137b0325a0cac70cdf3080f47705ac85772e908ea4b544f812462e",
    "json": "6a241b6b963052fa29ce78616933a1ac62665ac40bdf73aaae0d3735b4799da8",
    "csv": "720677c30e60cf64c7a014ec3f4d48541271f98e577a224af6e1ccc3d32eb7ac",
}


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


# 4300 digits: the longest int Python prints; twice it is one digit longer
NINES = "9" * 4300


class TestJsonSchema:
    def test_keys(self):
        obj = fga_to_json(FgAbelianGroup.cyclic(4))
        assert obj == {"free_rank": 0, "torsion": [4], "known": True}

    def test_unsupported_value_is_refused(self):
        from charvar.cli import _json_default

        with pytest.raises(TypeError):
            _json_default(object())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_transcript(name, fmt):
    code, out, err = invoke(*TRANSCRIPTS[name], "--format", fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / "cli" / f"{name}.{FORMATS[fmt]}").read_text()


@pytest.mark.parametrize("fmt", FORMATS)
def test_large_local_model_digest(fmt):
    code, out, err = invoke("local-model", "A1", "-i", "1", "-r", "100002", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_LOCAL_MODEL[fmt]


class TestComputedOnce:
    @pytest.mark.parametrize("module, name, argv", [
        (subalg, "levi_table", ("table-levi", "E8")),
        (subalg, "bds_table", ("table-bds", "E8")),
        (localmodel, "homology_support", ("local-model", "G2", "-i", "1", "-r", "3")),
    ])
    def test_one_call_per_invocation(self, monkeypatch, module, name, argv):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
        assert invoke(*argv)[0] == 0
        assert len(calls) == 1


class TestTables:
    @pytest.mark.parametrize("name", g.ALL_EXCEPTIONAL)
    def test_levi_text_transcript(self, name):
        code, out, _ = invoke("table-levi", name)
        assert code == 0
        assert out == (DATA / "cli" / f"table-levi_{name}.txt").read_text()

    @pytest.mark.parametrize("name", g.ALL_EXCEPTIONAL)
    def test_bds_text_transcript(self, name):
        code, out, _ = invoke("table-bds", name)
        assert code == 0
        assert out == (DATA / "cli" / f"table-bds_{name}.txt").read_text()

    def test_levi_json(self):
        code, out, _ = invoke("table-levi", "E7", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["type"] == "E7" and obj["min_codim"] == 54
        rows = {row["k"]: row for row in obj["rows"]}
        assert rows[7]["derived_type"] == ["E6"] and rows[7]["codim"] == 54
        assert rows[7]["levi_dim"] == 79

    def test_bds_json_includes_index_group(self):
        code, out, _ = invoke("table-bds", "G2", "--format", "json")
        obj = json.loads(out)
        rows = {row["k"]: row for row in obj["rows"]}
        assert rows[1]["index_group"] == {"free_rank": 0, "torsion": [3], "known": True}
        assert obj["min_codim"] == 6

    def test_bds_csv(self):
        code, out, _ = invoke("table-bds", "E8", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["k", "bds_type", "codim"]
        assert ["1", "D8", "128"] in rows
        assert ["8", "A1+E7", "112"] in rows

    def test_bds_empty_for_type_a(self):
        code, out, _ = invoke("table-bds", "A5", "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["rows"] == [] and obj["min_codim"] is None


@pytest.mark.parametrize("t", g.types_up_to(40), ids=str)
def test_table_min_codim_matches_library(t):
    # the CLI takes each minimum from the rows it printed
    for command, minimum in (("table-levi", subalg.min_levi_codim),
                             ("table-bds", subalg.min_bds_codim)):
        code, out, _ = invoke(command, str(t), "--format", "json")
        assert code == 0 and json.loads(out)["min_codim"] == minimum(t), command


class TestQueries:
    def test_codim(self):
        code, out, _ = invoke("codim", "E8", "-r", "2", "--format", "json")
        obj = json.loads(out)
        assert (obj["bad_lower"], obj["red_lower"]) == (16, 8)
        assert obj["c_pasbon_lower"] == 16 and obj["stable_k_max"] == 14
        assert obj["lower_bound"] is True

    def test_homotopy(self):
        code, out, _ = invoke("homotopy", "E7[ad]", "-r", "2", "-k", "1",
                              "--format", "json")
        obj = json.loads(out)
        assert obj["value"] == {"free_rank": 0, "torsion": [2, 2], "known": True}
        assert obj["validity"] == "Stable"
        assert "pi_1(G)^2" in obj["formula_trace"]

    def test_homotopy_unknown_value(self):
        code, out, _ = invoke("homotopy", "E6", "-r", "2", "-k", "10")
        assert code == 0 and "value:    ?" in out

    def test_ci(self):
        code, out, _ = invoke("ci", "T^1 x A2[sc]", "--format", "json")
        obj = json.loads(out)
        assert obj["ci"] is True and "special linear" in obj["witness"]
        code, out, _ = invoke("ci", "B3")
        assert code == 0 and "false" in out

    def test_singular_locus(self):
        code, out, _ = invoke("singular-locus", "A1", "-r", "2", "--format", "json")
        assert json.loads(out)["verdict"] == "Undetermined_r2_rank1"
        code, out, _ = invoke("singular-locus", "E8", "-r", "3", "--format", "json")
        assert json.loads(out)["verdict"] == "FullClassification"

    def test_local_model(self):
        code, out, _ = invoke("local-model", "A1", "-i", "1", "-r", "2",
                              "--format", "json")
        obj = json.loads(out)
        assert obj["singular"] is False and obj["M"] == 0
        assert obj["homology_support"] == [0, 1] and obj["sphere_like"] is True
        code, out, _ = invoke("local-model", "G2", "-i", "1", "-r", "3",
                              "--format", "json")
        obj = json.loads(out)
        assert obj["weights"] == {"-3": 4, "-2": 2, "-1": 4, "1": 4, "2": 2, "3": 4}
        assert obj["singular"] is True and obj["M"] == 9

    def test_roots(self):
        code, out, _ = invoke("roots", "E8", "--format", "json")
        obj = json.loads(out)
        assert obj["positive_roots"] == 120 and obj["dimension"] == 248
        assert obj["marks"] == [2, 3, 4, 6, 5, 4, 3, 2]

    def test_roots_large_rank_without_enumeration(self):
        t0 = time.perf_counter()
        code, out, _ = invoke("roots", "A2000", "--format", "json")
        elapsed = time.perf_counter() - t0
        obj = json.loads(out)
        assert code == 0
        assert obj["positive_roots"] == 2001000 and obj["dimension"] == 4004000
        assert obj["marks"] == [1] * 2000
        assert elapsed < 1.0, f"roots A2000 took {elapsed:.2f}s"

    @pytest.mark.parametrize("argv", [("local-model", "A80", "-i", "40", "-r", "2"),
                                      ("homotopy", "A400[ad]", "-r", "2", "-k", "1")])
    def test_large_rank_in_closed_form(self, argv):
        t0 = time.perf_counter()
        code, out, _ = invoke(*argv)
        elapsed = time.perf_counter() - t0
        assert code == 0 and out
        assert elapsed < 1.0, f"{' '.join(argv)} took {elapsed:.2f}s"

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv", [(cmd, f"{family}{MAX_RANK}")
                                      for cmd in ("table-levi", "table-bds") for family in "CD"],
                             ids="_".join)
    def test_tables_at_rank_ceiling(self, argv, fmt):
        # each derived type is a chain rule, so a table is linear in the rank
        t0 = time.perf_counter()
        code, out, err = invoke(*argv, "--format", fmt)
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "") and out
        assert elapsed < 1.0, f"{' '.join(argv)} --format {fmt} took {elapsed:.2f}s"

    @pytest.mark.parametrize("family", "AD")
    def test_roots_at_rank_ceiling(self, family):
        t0 = time.perf_counter()
        code, out, err = invoke("roots", f"{family}{MAX_RANK}", "--format", "json")
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "") and json.loads(out)["type"] == f"{family}{MAX_RANK}"
        assert elapsed < 1.0, f"roots {family}{MAX_RANK} took {elapsed:.2f}s"


@functools.cache
def primes_near_1e9():
    """2000 distinct primes (base-2 probable primes) just below 10^9."""
    return [m for m in range(10**9 - 1, 10**9 - 200000, -2) if pow(2, m - 1, m) == 1][:2000]


def override_db(path, torsion):
    # an override replaces the default database wholly, so k - 1 must be
    # present too for the projective-group term
    path.write_text(f"E6 any 9 1 - hypothetical entry\n"
                    f"E6 any 10 0 {torsion} hypothetical entry\n")
    return str(path)


class TestDatabaseOverride:
    def test_db_flag(self, tmp_path):
        # five-field lines, with no provenance, load as well
        bare = tmp_path / "bare.txt"
        bare.write_text("E6 any 9 1 -\nE6 any 10 0 7\n")
        for db in (override_db(tmp_path / "pi.txt", 7), str(bare)):
            code, out, _ = invoke("homotopy", "E6", "-r", "2", "-k", "10",
                                  "--db", db, "--format", "json")
            assert code == 0
            # (Z_7)^2 from the two G factors plus pi_9(PG) = Z
            assert json.loads(out)["value"] == {"free_rank": 1, "torsion": [7, 7],
                                                "known": True}

    def test_db_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHARVAR_DB", override_db(tmp_path / "pi.txt", 11))
        code, out, _ = invoke("homotopy", "E6", "-r", "2", "-k", "10",
                              "--format", "json")
        assert json.loads(out)["value"]["torsion"] == [11, 11]

    def test_db_flag_beats_env(self, tmp_path, monkeypatch):
        flag_db = override_db(tmp_path / "flag.txt", 7)
        monkeypatch.setenv("CHARVAR_DB", override_db(tmp_path / "env.txt", 11))
        code, out, _ = invoke("homotopy", "E6", "-r", "2", "-k", "10",
                              "--db", flag_db, "--format", "json")
        assert json.loads(out)["value"]["torsion"] == [7, 7]

    def test_one_cell_per_type_and_k(self, tmp_path):
        db = tmp_path / "pi.txt"
        db.write_text("E6 any 10 0 7 x\nE6 ad 10 0 5 y\n")
        for spec in ("E6", "E6[ad]"):
            assert invoke("homotopy", spec, "-r", "2", "-k", "10", "--db", str(db)) == (
                1, "", "error: database line 2: duplicate of line 1 (E6 k=10)\n")
        db.write_text("E6 ad 10 0 5 y\nE6 any 9 0 - x\n")
        for spec in ("E6", "E6[ad]"):
            code, out, _ = invoke("homotopy", spec, "-r", "2", "-k", "10", "--db", str(db))
            assert code == 0 and "value:    Z_5 + Z_5\n" in out, spec

    def test_empty_db_replaces_default(self, tmp_path):
        db = tmp_path / "pi.txt"
        db.write_text("# nothing\n")
        argv = ("homotopy", "G2", "-r", "2", "-k", "6")
        code, out, _ = invoke(*argv)
        assert code == 0 and "value:    Z_3 + Z_3\n" in out
        code, out, _ = invoke(*argv, "--db", str(db))
        assert code == 0 and "value:    ?\n" in out
        assert "= (?)^2 + (?)\n" in out


class TestExitCodes:
    def test_domain_errors_exit_1(self):
        for argv in [("table-levi", "B1"), ("table-levi", "Q7"),
                     ("codim", "A2 y B3", "-r", "2"),
                     ("codim", "A2", "-r", "1"),
                     ("local-model", "A2", "-i", "5", "-r", "2"),
                     ("singular-locus", "E8", "-r", "0"),
                     ("homotopy", "E6", "-r", "2", "-k", "5", "--db", "/nonexistent")]:
            code, out, err = invoke(*argv)
            assert code == 1, argv
            assert err.startswith("error:") and not out

    def test_negative_degree_exit_1(self):
        code, out, err = invoke("homotopy", "T^2", "-r", "2", "-k", "-1")
        assert (code, out, err) == (1, "", "error: negative homotopy degree\n")

    def test_malformed_database_line_exit_1(self, tmp_path):
        db = tmp_path / "pi.txt"
        db.write_text("G2 any 6 x 3 prov\n")
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db))
        assert code == 1 and not out
        assert err.startswith("error: database line 1: ")

    def test_database_is_checked_whole_exit_1(self, tmp_path):
        # a --db file is read whole: a malformed E8 line fails a G2 query
        db = tmp_path / "pi.txt"
        db.write_text("G2 any 6 0 3 x\nG2 any 5 0 - x\nE8 any 7 0 x y\n")
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db))
        assert (code, out) == (1, "")
        assert err == "error: database line 3: invalid literal for int() with base 10: 'x'\n"

    def test_duplicate_database_key_exit_1(self, tmp_path):
        db = tmp_path / "pi.txt"
        db.write_text("G2 any 6 0 3 Mimura\nG2 any 6 0 5 typo\n")
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db))
        assert code == 1 and not out
        assert err.startswith("error: database line 2: duplicate of line 1 ")
        assert err.count("error:") == 1 and err.count("\n") == 1

    def test_database_modulus_ceiling_exit_1(self, tmp_path):
        # 2**61 - 1 is prime: trial division to its square root would hang,
        # and a coprime base of gcds loads it at once
        db = tmp_path / "pi.txt"
        db.write_text("G2 any 6 0 2305843009213693951 x\n")
        t0 = time.perf_counter()
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db))
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "")
        assert "= (Z_2305843009213693951)^2 + (?)\n" in out
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_database_semiprimes_load_quickly(self, tmp_path):
        # 2000 distinct products of two primes above 20000: trial division
        # took seconds on them; gcds alone take milliseconds
        primes = [p for p in range(20001, 40000, 2)
                  if all(p % q for q in range(3, math.isqrt(p) + 1, 2))][:210]
        moduli = [primes[i] * primes[i + j] for i in range(200) for j in range(1, 11)]
        db = tmp_path / "pi.txt"
        db.write_text(f"G2 any 6 0 {','.join(map(str, moduli))} x\nG2 any 5 0 - x\n")
        t0 = time.perf_counter()
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db),
                                "--format", "json")
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "")
        torsion = json.loads(out)["value"]["torsion"]
        assert len(torsion) == 2 * 20 and math.prod(torsion) == math.prod(moduli) ** 2
        assert torsion[-1] == math.lcm(*moduli)
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_database_powers_of_two_load_quickly(self, tmp_path):
        # 2^1 .. 2^2499 (944105 characters): stripping one factor 2 at a time
        # took seconds; stripping 2, 4, 16, ... takes a few steps per key
        moduli = [2**e for e in range(1, 2500)]
        db = tmp_path / "pi.txt"
        db.write_text(f"G2 any 6 0 {','.join(map(str, moduli))} x\nG2 any 5 0 - x\n")
        t0 = time.perf_counter()
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db),
                                "--format", "json")
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "")
        assert json.loads(out)["value"]["torsion"] == sorted(moduli * 2)
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_large_power_of_database_modulus(self, tmp_path):
        db = tmp_path / "pi.txt"
        db.write_text("G2 any 6 0 999999937 x\nG2 any 5 0 - x\n")
        t0 = time.perf_counter()
        code, out, _ = invoke("homotopy", "G2", "-r", "2000", "-k", "6", "--db", str(db),
                              "--format", "json")
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert json.loads(out)["value"]["torsion"] == [999999937] * 2000
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_product_of_two_database_primes(self, tmp_path):
        # the invariant factor 99999989 * 99999971 is about 10^16; nothing
        # factorises it
        db = tmp_path / "pi.txt"
        db.write_text("G2 any 6 0 99999989,99999971 x\nG2 any 5 0 - x\n")
        factor = 99999989 * 99999971
        t0 = time.perf_counter()
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db))
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "")
        assert f"  value:    Z_{factor} + Z_{factor}\n" in out
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_invariant_factor_too_long_to_print_exit_1(self, tmp_path, fmt):
        # the product of the 2262 primes below 20000 has 8602 digits, past
        # the 4300 digits an int may have when printed
        primes = [p for p in range(2, 20000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        db = tmp_path / "pi.txt"
        db.write_text(f"G2 any 6 0 {','.join(map(str, primes))} x\nG2 any 5 0 - x\n")
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db),
                                "--format", fmt)
        assert code == 1 and not out
        assert err.startswith("error: database line 1: an invariant factor of ")
        assert "ceiling of 14000 bits" in err and err.count("\n") == 1

    def test_many_large_moduli_refused_before_factorising(self, tmp_path):
        # 2000 distinct primes near 10^9 multiply past the bit ceiling; their
        # lcm is checked before any coprime base is built
        db = tmp_path / "pi.txt"
        db.write_text(f"G2 any 6 0 {','.join(map(str, primes_near_1e9()))} x\nG2 any 5 0 - x\n")
        t0 = time.perf_counter()
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db))
        elapsed = time.perf_counter() - t0
        assert code == 1 and not out
        assert err.startswith("error: database line 1: an invariant factor of at least ")
        assert err.endswith(" bits is above the ceiling of 14000 bits\n")
        assert err.count("\n") == 1
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    def test_homology_support_ceiling_exit_1(self):
        # M = 3 * 10**11 - 4 is refused before the support is built
        code, out, err = invoke("local-model", "A3", "-i", "1", "-r", "100000000000")
        assert code == 1 and not out
        assert err.startswith("error: M = ") and err.count("\n") == 1

    def test_good_locus_at_factor_ceiling(self):
        # pi_1(PSU(2))^r = (Z_2)^r is built and printed in full at the ceiling
        t0 = time.perf_counter()
        code, out, err = invoke("homotopy", "A1[ad]", "-r", str(MAX_FACTORS), "-k", "1",
                                "--format", "json")
        elapsed = time.perf_counter() - t0
        assert (code, err) == (0, "")
        assert json.loads(out)["value"]["torsion"] == [2] * MAX_FACTORS
        assert elapsed < 1.0, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("spec,r", [("A1[ad]", MAX_FACTORS + 1),
                                        ("A1[ad] x A1[ad]", MAX_FACTORS // 2 + 1),
                                        ("A1[ad]", 10**8)])
    def test_good_locus_factor_ceiling_exit_1(self, spec, r):
        code, out, err = invoke("homotopy", spec, "-r", str(r), "-k", "1")
        assert code == 1 and not out
        assert err.startswith("error: pi_1(G)^") and err.count("\n") == 1

    def test_rank_ceiling_exit_1(self):
        assert invoke("roots", f"A{MAX_RANK}", "--format", "json")[0] == 0
        code, out, _ = invoke("codim", f"T^{MAX_RANK}", "-r", str(MAX_FREE_RANK),
                              "--format", "json")
        assert code == 0 and json.loads(out)["bad_lower"] == MAX_RANK * MAX_FREE_RANK
        # torus ranks and r past their ceilings: the answers' numbers would
        # pass the 4300 digits an int may have when printed
        for argv in [("roots", f"A{MAX_RANK + 1}"), ("table-levi", f"D{MAX_RANK + 1}"),
                     ("roots", "A" + "1" * 2200),
                     ("local-model", "A100000000000", "-i", "1", "-r", "2"),
                     ("ci", f"T^1 x A{MAX_RANK + 1}[sc]"),
                     ("codim", f"T^{MAX_RANK + 1}", "-r", "2"),
                     ("homotopy", f"T^{NINES}", "-r", "10", "-k", "1"),
                     ("codim", f"T^{NINES}", "-r", "10"),
                     ("singular-locus", "E8", "-r", str(MAX_FREE_RANK + 1)),
                     ("codim", "A1", "-r", str(MAX_FREE_RANK + 1)),
                     ("codim", "A1", "-r", NINES),
                     ("local-model", "A3", "-i", "1", "-r", NINES)]:
            code, out, err = invoke(*argv)
            assert code == 1 and not out, argv[:2]
            assert err.startswith("error: ") and err.count("\n") == 1, argv[:2]

    @pytest.mark.parametrize("free", [MAX_RANK, MAX_RANK + 1, int("9" * 4299)])
    def test_database_free_rank_ceiling(self, tmp_path, free):
        # pi_6(G2)^100 would have free rank 100 * free: 4301 digits for the last
        db = tmp_path / "pi.txt"
        db.write_text(f"G2 any 6 {free} - x\nG2 any 5 0 - x\n")
        code, out, err = invoke("homotopy", "G2", "-r", "100", "-k", "6", "--db", str(db))
        if free <= MAX_RANK:
            assert (code, err) == (0, "") and f"Z^{100 * free}" in out
        else:
            assert code == 1 and not out
            assert err == f"error: database line 1: free rank is above the ceiling {MAX_RANK}\n"

    @pytest.mark.parametrize("argv,error", [
        (("roots", "A²"), "cannot parse simple type 'A²'"),
        (("roots", "D" + "1" * 4400), "rank of D has too many digits"),
        (("ci", "T^" + "1" * 4400 + " x A1"), "torus rank has too many digits"),
    ], ids=["superscript", "long_rank", "long_torus"])
    def test_unparsable_rank_exit_1(self, argv, error):
        assert invoke(*argv) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("descriptor,factor", [("A1[xx]", "A1["), ("A1x", ""),
                                                   ("T^1 x A3 x Q2", "Q2")])
    def test_bad_factor_names_the_descriptor(self, descriptor, factor):
        # the parser splits at every x, so the factor alone can hide the input
        code, out, err = invoke("codim", descriptor, "-r", "2")
        assert code == 1 and not out
        assert err == f"error: cannot parse factor {factor!r} in {descriptor!r}\n"

    def test_database_not_utf8_exit_1(self, tmp_path):
        db = tmp_path / "pi.txt"
        db.write_bytes(b"G2 any 6 0 3 \xff\n")
        code, out, err = invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", str(db))
        assert code == 1 and not out
        assert err.startswith("error: database ")

    @pytest.mark.parametrize("spec,text,error", [
        ("A2", "A2 any 6 0 6 x\n",
         "database line 1: A2 is classical: only E6-E8, F4 and G2 are stored"),
        ("E6", "E6 any 10 ? banana x\n",
         "database line 1: torsion 'banana' after an unknown free rank: use ? or -"),
    ], ids=["classical", "torsion_after_unknown"])
    def test_database_text_never_read_exit_1(self, tmp_path, spec, text, error):
        db = tmp_path / "pi.txt"
        db.write_text(text)
        assert invoke("homotopy", spec, "-r", "3", "-k", "6", "--db", str(db)) == (
            1, "", f"error: {error}\n")

    def test_database_length_ceiling_exit_1(self, tmp_path, memory_cap):
        db = tmp_path / "pi.txt"
        db.write_text("#" * 10**6 + "\n")
        for path in (str(db), "/dev/zero"):
            assert invoke("homotopy", "G2", "-r", "2", "-k", "6", "--db", path) == (
                1, "", f"error: database {path}: longer than the ceiling of 1000000 characters\n")

    def test_usage_errors_exit_2(self):
        for argv in [(), ("frobnicate",), ("codim", "A2"),
                     ("homotopy", "E6", "-r", "2", "-k", "x"),
                     ("table-levi", "E6", "--format", "xml")]:
            code, _, _ = invoke(*argv)
            assert code == 2, argv

    def test_success_exit_0(self):
        assert invoke("roots", "A1")[0] == 0


def test_readme_ceilings_match_code():
    # the "Input ceilings" list names each ceiling as `errors.MAX_*`, the one
    # module that defines them, and spells its value as 10^e, c·10^e or digits
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("Input ceilings:", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`(\w+)\.MAX_", section)) == {"errors"}
    named = {}
    for name, spelled in re.findall(r"`errors\.(MAX_\w+)` \(([^ ,)]+)", section):
        c, base, e = re.fullmatch(r"(?:(\d+)·)?(\d+)(?:\^(\d+))?", spelled).groups()
        named[name] = (getattr(errors, name), int(c or 1) * int(base) ** int(e or 1))
    assert sorted(named) == ["MAX_DB_CHARS", "MAX_FACTORS", "MAX_FACTOR_BITS", "MAX_FREE_RANK",
                             "MAX_M", "MAX_RANK"]
    for name, (code_value, readme_value) in named.items():
        assert code_value == readme_value, name


# Integers are read by int(): any Unicode decimal digit, and in the integer
# options an underscore between digits, reads as its ASCII spelling.
@pytest.mark.parametrize("argv,ascii_argv", [
    (("roots", "E٦"), ("roots", "E6")),
    (("codim", "T^١ x A٣", "-r", "٣"), ("codim", "T^1 x A3", "-r", "3")),
    (("homotopy", "E٦[ad]", "-r", "٢", "-k", "١٠"), ("homotopy", "E6[ad]", "-r", "2", "-k", "10")),
    (("local-model", "G٢", "-i", "١", "-r", "٣"), ("local-model", "G2", "-i", "1", "-r", "3")),
    (("codim", "A2", "-r", "1_0"), ("codim", "A2", "-r", "10")),
], ids=["roots_type", "codim_torus_and_r", "homotopy_r_and_k", "local_model_i", "underscore"])
def test_non_ascii_digits_read_as_ascii(argv, ascii_argv):
    for fmt in FORMATS:
        got = invoke(*argv, "--format", fmt)
        assert got[0] == 0 and got == invoke(*ascii_argv, "--format", fmt), fmt


# Bounded argv fuzz over every subcommand and format: integers come from an
# edge set around the ceilings and past the longest printable int.
EDGE_INTS = ("-1", "0", "1", "2", "3", "10000", "10001", str(10**11), str(10**12 + 1), NINES)
TYPE_SPECS = ("A1", "B2", "C3", "D4", "E6", "E8", "F4", "G2", "",
              "B1", "D3", "E9", "A", "Z2", "a3", "A²") + tuple(f"D{n}" for n in EDGE_INTS)
GROUP_SPECS = (("E8", "A1[ad]", "T^1 x A3[sc]", "T^2", "A2 x G2[ad]",
                "", "x", "Q7", "A3[zz]", "A1 x T^1", "B1")
               + tuple(f"T^{n}" for n in EDGE_INTS)
               + tuple(f"T^1 x A{n}[ad]" for n in EDGE_INTS))
# the positional argument and the integer options of each subcommand
FUZZ_COMMANDS = {
    "table-levi": (TYPE_SPECS, ()),
    "table-bds": (TYPE_SPECS, ()),
    "roots": (TYPE_SPECS, ()),
    "local-model": (TYPE_SPECS, ("-i", "-r")),
    "codim": (GROUP_SPECS, ("-r",)),
    "homotopy": (GROUP_SPECS, ("-r", "-k")),
    "ci": (GROUP_SPECS, ()),
    "singular-locus": (GROUP_SPECS, ("-r",)),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    specs, options = FUZZ_COMMANDS[command]
    argv = [command, draw(st.sampled_from(specs)),
            "--format", draw(st.sampled_from(sorted(FORMATS)))]
    for option in options:
        argv += [option, draw(st.sampled_from(EDGE_INTS))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzz_argv())
def test_argv_fuzz(argv):
    with contextlib.redirect_stderr(io.StringIO()):  # argparse's usage errors
        code, _, err = invoke(*argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1


# Bounded --db fuzz: files of up to five lines, each line plausible in every
# field or in all but one, which comes from an edge set; with few types and
# degrees, one type and k often appears under sc, ad and any.
DB_FIELDS = (  # (plausible, edge) values of type, iso, k, free rank, torsion
    (("G2", "F4", "E6", "E٦"), ("A1", "Q6", "E9", "G٢٢")),
    (("sc", "ad", "any"), ("mid", "SC", "ａｄ")),
    (("5", "6", "9", "10", "١٠"), ("1", "2", "3", "-1", "?", "-", str(10**9 + 7), NINES)),
    (("0", "1", "?", "٣"), ("-", "10000", "10001", str(10**9 + 7), NINES)),
    (("-", "2", "3", "2,3", "٣", "999999937"), ("?", "0", str(10**9 + 7), NINES)),
)


@st.composite
def db_line(draw):
    edge = draw(st.sampled_from((None,) + tuple(range(len(DB_FIELDS)))))
    return " ".join(draw(st.sampled_from(values[i == edge]))
                    for i, values in enumerate(DB_FIELDS)) + " x"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(db_line(), max_size=5),
       group=st.sampled_from(("G2", "F4", "E6", "E6[ad]")),
       k=st.sampled_from(("2", "3", "6", "10")))
def test_db_fuzz(tmp_path_factory, lines, group, k):
    path = tmp_path_factory.getbasetemp() / "fuzz_db.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, out, err = invoke("homotopy", group, "-r", "3", "-k", k, "--db", str(path))
    assert code in (0, 1)
    if code == 1:
        assert not out and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert out and not err


SRC = str(pathlib.Path(__file__).parent.parent / "src")


def fresh_charvar(*argv, flags=(), stdout=subprocess.PIPE, env=None):
    """`python [flags] -m charvar.cli argv` in a fresh interpreter, with `env`
    (names to values, None to unset one) over this one's environment;
    `stdout=None` starts it with stdout closed, as `charvar argv >&-`."""
    env = {**os.environ, "PYTHONPATH": SRC, "CHARVAR_DB": None, **(env or {})}
    closed = ("sh", "-c", 'exec "$@" >&-', "sh") if stdout is None else ()
    return subprocess.run([*closed, sys.executable, *flags, "-m", "charvar.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
                          env={name: value for name, value in env.items() if value is not None})


# Inputs past each ceiling.  A `--db` value is the file's text, or a function
# that builds it; the endless `--db /dev/zero` is read in process under
# `memory_cap` (TestExitCodes.test_database_length_ceiling_exit_1).
PAST_CEILINGS = {
    "rank": ("roots", f"A{MAX_RANK + 1}"),
    "torus_rank": ("codim", f"T^{MAX_RANK + 1}", "-r", "2"),
    "long_torus_homotopy": ("homotopy", f"T^{NINES}", "-r", "10", "-k", "1"),
    "long_torus_codim": ("codim", f"T^{NINES}", "-r", "10"),
    "free_rank": ("codim", "A1", "-r", str(MAX_FREE_RANK + 1)),
    "long_free_rank": ("codim", "A1", "-r", NINES),
    "M": ("local-model", "A3", "-i", "1", "-r", str(10**11)),
    "long_M": ("local-model", "A3", "-i", "1", "-r", NINES),
    "factors": ("homotopy", "A1[ad]", "-r", str(10**8), "-k", "1"),
    "db_free_rank": ("homotopy", "G2", "-r", "100", "-k", "6",
                     "--db", f"G2 any 6 {NINES[1:]} - x\nG2 any 5 0 - x\n"),
    "db_classical": ("homotopy", "A2", "-r", "3", "-k", "6", "--db", "A2 any 6 0 6 x\n"),
    "db_factor_bits": ("homotopy", "G2", "-r", "2", "-k", "6",
                       "--db", lambda: f"G2 any 6 0 {','.join(map(str, primes_near_1e9()))} x\n"),
}


class TestEntryPoint:
    """`python -m charvar.cli` runs `main()` in a fresh interpreter."""

    def test_success_matches_run(self):
        proc = fresh_charvar("roots", "E8", "--format", "json")
        assert proc.returncode == 0
        assert proc.stdout == invoke("roots", "E8", "--format", "json")[1]

    def test_domain_error(self):
        proc = fresh_charvar("table-levi", "B1")
        assert proc.returncode == 1 and not proc.stdout
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("name", PAST_CEILINGS)
    def test_past_ceiling(self, tmp_path, name):
        argv = list(PAST_CEILINGS[name])
        if "--db" in argv:
            db, text = tmp_path / "pi.txt", argv[-1]
            db.write_text(text() if callable(text) else text)
            argv[-1] = str(db)
        proc = fresh_charvar(*argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# The charvar modules each subcommand loads in a fresh process (beside the
# package itself, whose import loads nothing).
CHAINS = {
    "roots": {"rootsys", "errors"},
    "ci": {"groups", "rootsys", "errors"},
    "table-levi": {"subalg", "rootsys", "errors"},
    "table-bds": {"subalg", "groups", "rootsys", "errors"},
    "codim": {"bounds", "groups", "rootsys", "errors"},
    "singular-locus": {"bounds", "groups", "rootsys", "errors"},
    "local-model": {"localmodel", "rootsys", "errors"},
    "homotopy": {"homotopy", "bounds", "groups", "rootsys", "errors"},
}
# The subcommands whose records hold only plain value classes: they never
# import `dataclasses`, which loads `inspect`, `ast` and `dis`.
NO_DATACLASSES = {"roots", "ci", "codim", "singular-locus"}
# One transcript per subcommand, run in its own process.
FRESH = ("roots_E8", "ci_T1xA2sc", "table-levi_E7", "table-bds_E8", "codim_T1xA3sc_r3",
         "singular-locus_E8_r1", "local-model_G2_i1_r3", "homotopy_E7ad_r2_k1")


@functools.cache
def fresh_transcript(name, fmt):
    """One transcript in a fresh `python -v -m charvar.cli` process: the
    process and the modules it loaded, read off the verbose import log on
    stderr (which records every load, however it was triggered)."""
    proc = fresh_charvar(*TRANSCRIPTS[name], "--format", fmt, flags=("-v",))
    return proc, set(re.findall(r"^import '([\w.]+)' #", proc.stderr, re.M))


class TestFreshProcess:
    """In process, every module is already loaded; a subcommand that forgot
    its own import would pass there and fail for users."""

    def test_chains_cover_every_subcommand(self):
        commands = {argv[0] for argv in TRANSCRIPTS.values()}
        assert {TRANSCRIPTS[name][0] for name in FRESH} == set(CHAINS) == commands

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", FRESH)
    def test_loads_only_its_chain(self, name, fmt):
        loaded = fresh_transcript(name, fmt)[1]
        chain = {m.removeprefix("charvar.") for m in loaded if m.startswith("charvar.")}
        assert chain == CHAINS[TRANSCRIPTS[name][0]]
        assert ("json" in loaded, "csv" in loaded) == (fmt == "json", fmt == "csv")

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", [n for n in FRESH if TRANSCRIPTS[n][0] in NO_DATACLASSES])
    def test_loads_no_dataclasses(self, name, fmt):
        assert "dataclasses" not in fresh_transcript(name, fmt)[1]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", FRESH)
    def test_transcript(self, name, fmt):
        proc = fresh_transcript(name, fmt)[0]
        assert proc.returncode == 0
        assert proc.stdout == (DATA / "cli" / f"{name}.{FORMATS[fmt]}").read_text()


# What `main` prints when stdout cannot be written: `run` writes and flushes
# in one `try`, so the failure is one `error:` line, whatever the buffering.
UNWRITABLE = {
    "pipe": "error: [Errno 32] Broken pipe\n",
    "full": "error: [Errno 28] No space left on device\n",
}
# `main` run under a tracer, a profiler or neither; the normal exit runs atexit.
EXIT_CHILD = """
import atexit, sys
from charvar import cli
atexit.register(print, "normal exit", file=sys.stderr)
hook = {"trace": sys.settrace, "profile": sys.setprofile}.get(sys.argv.pop(1))
if hook:
    hook(lambda *args: None)
cli.main()
"""


class TestExit:
    """`main` leaves without interpreter teardown, except under a tracer or
    profiler.  Each case is one fresh process whose stdout is block-buffered,
    as it is for users, unless the case sets PYTHONUNBUFFERED."""

    @pytest.mark.parametrize("target", ["pipe", "full"])
    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        pytest.param(("roots", "E8"), id="small"),
        pytest.param(("table-levi", "C2000", "--format", "json"), id="large"),
    ])
    def test_unwritable_stdout(self, target, buffering, argv):
        env = {"PYTHONUNBUFFERED": "1" if buffering == "unbuffered" else None}
        if target == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "w") as full:
                proc = fresh_charvar(*argv, stdout=full, env=env)
        else:
            read, write = os.pipe()
            os.close(read)  # a reader that has gone
            try:
                proc = fresh_charvar(*argv, stdout=write, env=env)
            finally:
                os.close(write)
        assert (proc.returncode, proc.stderr) == (1, UNWRITABLE[target])

    @pytest.mark.parametrize("argv,err", [
        pytest.param(("roots", "E8"), "error: stdout is closed\n", id="answer"),
        pytest.param(("homotopy", "G2", "-r", "2", "-k", "6", "--format", "json"),
                     "error: stdout is closed\n", id="json answer"),
        pytest.param(("roots", "B1"), "error: B1 is an alias: use A1\n", id="domain error"),
    ])
    def test_closed_stdout(self, argv, err):
        # fd 1 is closed, so sys.stdout is None
        proc = fresh_charvar(*argv, stdout=None)
        assert (proc.returncode, proc.stderr) == (1, err)

    @pytest.mark.parametrize("stdout", ["pipe", "closed"])
    def test_help(self, monkeypatch, stdout):
        # argparse prints --help to sys.stdout, or to stderr when that is None
        monkeypatch.setenv("COLUMNS", "80")
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert run(["roots", "--help"]) == 0
        proc = fresh_charvar("roots", "--help",
                             stdout=None if stdout == "closed" else subprocess.PIPE,
                             env={"COLUMNS": "80", "PYTHONUNBUFFERED": None})
        expected = (None, text.getvalue()) if stdout == "closed" else (text.getvalue(), "")
        assert text.getvalue().startswith("usage: charvar roots ")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, *expected)

    @pytest.mark.parametrize("hook", ["none", "trace", "profile"])
    @pytest.mark.parametrize("argv,code,err", [
        pytest.param(("roots", "E8"), 0, "", id="answer"),
        pytest.param(("roots", "B1"), 1, "error: B1 is an alias: use A1\n", id="domain error"),
        pytest.param(("roots",), 2, "usage: charvar roots [-h] [--format {text,json,csv}] type\n"
                     "charvar roots: error: the following arguments are required: type\n",
                     id="usage error"),
    ])
    def test_exit_path(self, hook, argv, code, err):
        env = {**os.environ, "PYTHONPATH": SRC}
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", EXIT_CHILD, hook, *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code
        # complete on a block-buffered pipe: the hard exit flushed first
        assert proc.stdout == ((DATA / "cli" / "roots_E8.txt").read_text() if code == 0 else "")
        assert proc.stderr == err + ("" if hook == "none" else "normal exit\n")
