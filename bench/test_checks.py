"""The benchmark's own tests: every checker accepts charvar's answers and
rejects a deliberately wrong one.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from charvar import cli, groups, homotopy, localmodel, subalg  # noqa: E402
from charvar.rootsys import SimpleType, dimension, highest_root  # noqa: E402

DB = oracle.load_pi_table(ROOT / "src" / "charvar" / "data" / "pi_exceptional.txt")


@pytest.mark.parametrize("name", ["A1", "A7", "B2", "B6", "C3", "C7", "D4", "D7",
                                  "E6", "E7", "E8", "F4", "G2"])
def test_oracle_closed_forms_agree_with_enumeration(name):
    t = SimpleType.parse(name)
    assert oracle.dim(t.family, t.rank) == dimension(t)
    assert oracle.marks(t.family, t.rank) == highest_root(t)


def tables_answer(t):
    return (subalg.levi_table(t), subalg.min_levi_codim(t),
            subalg.bds_table(t), subalg.min_bds_codim(t))


@pytest.mark.parametrize("name", ["A5", "B2", "B5", "C3", "C6", "D4", "D7",
                                  "E6", "E7", "E8", "F4", "G2"])
def test_tables_checker_accepts_program(name):
    t = SimpleType.parse(name)
    checks.check_tables(t.family, t.rank, tables_answer(t))


def _replace_first(records, **changes):
    return [dataclasses.replace(records[0], **changes)] + list(records[1:])


TABLE_MUTATIONS = {
    "levi codim": lambda l, ml, b, mb: (_replace_first(l, codim=l[0].codim + 1), ml, b, mb),
    "levi dim": lambda l, ml, b, mb: (_replace_first(l, levi_dim=l[0].levi_dim - 1,
                                                     codim=l[0].codim + 1), ml, b, mb),
    "levi type": lambda l, ml, b, mb: (_replace_first(l, derived_type=l[1].derived_type),
                                       ml, b, mb),
    "levi row missing": lambda l, ml, b, mb: (l[1:], ml, b, mb),
    "min levi codim": lambda l, ml, b, mb: (l, ml + 1, b, mb),
    "bds type": lambda l, ml, b, mb: (l, ml, _replace_first(b, bds_type=b[1].bds_type), mb),
    "bds rank": lambda l, ml, b, mb: (l, ml, _replace_first(
        b, bds_type=b[0].bds_type + (SimpleType("A", 1),)), mb),
    "bds codim": lambda l, ml, b, mb: (l, ml, _replace_first(b, codim=b[0].codim - 2), mb),
    "mark": lambda l, ml, b, mb: (l, ml, _replace_first(b, mark=b[0].mark + 1), mb),
    "index order": lambda l, ml, b, mb: (l, ml, _replace_first(
        b, index_group=groups.FgAbelianGroup.cyclic(b[0].mark * 2)), mb),
    "min bds codim": lambda l, ml, b, mb: (l, ml, b, mb - 1),
}


@pytest.mark.parametrize("name", ["C5", "E7"])
@pytest.mark.parametrize("mutation", sorted(TABLE_MUTATIONS))
def test_tables_checker_rejects_wrong_answer(name, mutation):
    t = SimpleType.parse(name)
    wrong = TABLE_MUTATIONS[mutation](*tables_answer(t))
    with pytest.raises(checks.CheckError):
        checks.check_tables(t.family, t.rank, wrong)


def test_exceptional_bds_list_is_what_the_program_builds():
    for (family, n), rows in oracle.BDS_LITERATURE.items():
        got = {rec.node: tuple(sorted((c.family, c.rank) for c in rec.bds_type))
               for rec in subalg.bds_table(SimpleType(family, n))}
        assert got == {k: oracle.bds_types(family, n, k) for k in rows}


@pytest.mark.parametrize("spec,k,r", [(s, k, r) for s, k, (r, _) in workloads.GOOD_LOCUS[:4]]
                         + [("T^1 x G2 x E6[ad]", 9, 3), ("E7[ad]", 1, 5)])
def test_good_locus_checker(spec, k, r):
    torus, factors = workloads.parse_spec(spec)
    want = checks.expected_homotopy(torus, factors, r, k, DB)
    result = homotopy.good_locus_homotopy(groups.parse_group(spec), r, k)
    checks.check_good_locus(want, result, spec)

    value = result.value
    fga = groups.FgAbelianGroup
    wrong_values = [
        fga(value.free_rank + 1, value.invariant_factors),
        fga(value.free_rank, value.invariant_factors[1:]),
        fga(value.free_rank, value.invariant_factors[:-1] + (value.invariant_factors[-1] * 5,)),
        fga.unknown(),
    ]
    for wrong in wrong_values:
        with pytest.raises(checks.CheckError):
            checks.check_good_locus(want, dataclasses.replace(result, value=wrong), spec)
    other = next(v for v in homotopy.Validity if v is not result.validity)
    with pytest.raises(checks.CheckError):
        checks.check_good_locus(want, dataclasses.replace(result, validity=other), spec)


def test_torsion_that_is_no_divisibility_chain_is_rejected():
    want = {"free_rank": 0, "primes": oracle.prime_exponents([2, 6])}
    checks.check_group_value(0, (2, 6), True, want, "Z_2 + Z_6")
    with pytest.raises(checks.CheckError):
        checks.check_group_value(0, (6, 2), True, want, "Z_6 + Z_2")


@pytest.mark.parametrize("name,node,r", [("A3", 1, 1000), ("G2", 1, 7), ("B3", 3, 50),
                                         ("E8", 4, 2), ("D5", 2, 3)])
def test_local_model_checker(name, node, r):
    t = SimpleType.parse(name)
    want_M = checks.expected_local_model(t.family, t.rank, node, r)
    w = localmodel.parabolic_weights(t, node, r)
    m = w.positive_weight_total() - 1
    support = localmodel.homology_support(m)
    checks.check_local_model(want_M, (w, m, support), name)

    with pytest.raises(checks.CheckError):
        checks.check_local_model(want_M + 1, (w, m + 1, localmodel.homology_support(m + 1)), name)
    with pytest.raises(checks.CheckError):
        short = dataclasses.replace(support, dims=support.dims - {2 * m})
        checks.check_local_model(want_M, (w, m, short), name)
    with pytest.raises(checks.CheckError):
        lopsided = dataclasses.replace(w, d={**w.d, 1: w.d[1] + 1})
        checks.check_local_model(want_M, (lopsided, m, support), name)


# ---------------------------------------------------------------------------
# the command line

def _bump(match: re.Match) -> str:
    whole, number = match.group(0), match.group(1)
    start = match.start(1) - match.start(0)
    return whole[:start] + str(int(number) + 1) + whole[start + len(number):]


def _sub(pattern: str, repl=_bump):
    return lambda out: re.sub(pattern, repl, out, count=1, flags=re.M)


def _json(mutate):
    def apply(out):
        obj = json.loads(out)
        mutate(obj)
        return json.dumps(obj)
    return apply


def _set(path, value):
    def mutate(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]])
    return mutate


def _plus1(x):
    return x + 1


_ROW_CODIM = {"text": _sub(r"codim (\d+)"), "csv": _sub(r",(\d+)$"),
              "json": _json(_set(["rows", 0, "codim"], _plus1))}

# (arguments, {format: mutation of a correct output into a wrong one})
CLI_CASES = {
    "table-levi": (["E7"], _ROW_CODIM),
    "table-bds": (["F4"], _ROW_CODIM),
    "roots": (["E6"], {"text": _sub(r"positive roots: (\d+)"), "csv": _sub(r"^E6,(\d+),"),
                       "json": _json(_set(["positive_roots"], _plus1))}),
    "codim": (["T^1 x A3[sc] x G2[ad]", "-r", "3"],
              {"text": _sub(r"codim >= (\d+)"), "csv": _sub(r"\],3,(\d+),"),
               "json": _json(_set(["bad_lower"], _plus1))}),
    "homotopy": (["G2", "-r", "2", "-k", "6"],
                 {"text": _sub(r"Z_3 \+ Z_(3)", "Z_3 + Z_9"),
                  "csv": _sub(r"Z_3 \+ Z_(3)", "Z_3 + Z_9"),
                  "json": _json(_set(["value", "torsion"], lambda t: t[:-1] + [9]))}),
    "ci": (["A2 x B3"], {"text": _sub(r"false", "true"), "csv": _sub(r"False", "True"),
                         "json": _json(_set(["ci"], lambda v: not v))}),
    "singular-locus": (["A2 x B3", "-r", "3"],
                       {fmt: _sub(r"FullClassification", "Undetermined_r2_rank1")
                        for fmt in ("text", "csv")}
                       | {"json": _json(_set(["verdict"], lambda v: "Abelian"))}),
    "local-model": (["G2", "-i", "1", "-r", "3"],
                    {"text": _sub(r"M = (\d+)"), "csv": _sub(r",(\d+)$"),
                     "json": _json(_set(["M"], _plus1))}),
}


def _want(command, args):
    """The expected facts for CLI_CASES, written out by hand."""
    family, n = args[0][0], int(args[0][1:]) if args[0][1:].isdigit() else 0
    if command == "table-levi":
        return checks.expected_levi(family, n)
    if command == "table-bds":
        return checks.expected_bds(family, n)
    if command == "roots":
        return {"positive_roots": oracle.positive_root_count(family, n),
                "dimension": oracle.dim(family, n), "marks": oracle.marks(family, n)}
    if command == "codim":
        return {"bounds": (3, 8, 10, 16, 14), "lower_bound": True}
    if command == "homotopy":
        h = checks.expected_homotopy(0, [("G", 2, False)], 2, 6, DB)
        return {"value": h, "validity": h["validity"]}
    if command == "ci":
        return {"ci": False}
    if command == "singular-locus":
        return {"verdict": "FullClassification"}
    m = checks.expected_local_model("G", 2, 1, 3)
    return {"M": m, "singular": m >= 1, "sphere_like": m == 0}


@pytest.mark.parametrize("fmt", workloads.CLI_FORMATS)
@pytest.mark.parametrize("command", sorted(CLI_CASES))
def test_cli_checker(command, fmt):
    args, mutations = CLI_CASES[command]
    out = io.StringIO()
    code = cli.run([command, *args, "--format", fmt], out=out, err=io.StringIO())
    want = _want(command, args)
    checks.check_cli(command, fmt, want, code, out.getvalue())

    wrong = mutations[fmt](out.getvalue())
    assert wrong != out.getvalue()
    with pytest.raises(checks.CheckError):
        checks.check_cli(command, fmt, want, code, wrong)
    with pytest.raises(checks.CheckError):
        checks.check_cli(command, fmt, want, 1, out.getvalue())


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.names += ["outer", "inner"]
    t.spans = [(1, 0.0, 10.0, -1, 0), (2, 1.0, 4.0, 0, 0), (2, 5.0, 6.0, 0, 0)]
    calls, self_s = t.layer_stats()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 6.0, "inner": 4.0}


def test_support_list_with_a_repeated_degree_is_rejected():
    checks.check_support([0, 2, 3, 5], 1, "M=1")
    with pytest.raises(checks.CheckError):
        checks.check_support([0, 2, 2, 5], 1, "M=1")
