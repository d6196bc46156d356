"""Answer checkers for the benchmark workloads.

Each checker compares a charvar answer with values computed in
``oracle`` and raises ``CheckError`` on the first disagreement.  The
checkers read answers only through their public shape (record fields,
JSON keys, the text and CSV layouts), never through charvar's own
algorithms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import oracle


class CheckError(Exception):
    """A charvar answer disagrees with the independent reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _type_pair(t) -> tuple[str, int]:
    return (t.family, t.rank)


def _parse_types(names) -> tuple[tuple[str, int], ...]:
    """Type names as a list (JSON) or 'A1+A4' / '0' (text, CSV) to a sorted tuple."""
    if isinstance(names, str):
        names = [] if names == "0" else names.split("+")
    return tuple(sorted((s[0], int(s[1:])) for s in names))


# ---------------------------------------------------------------------------
# expected tables

def expected_levi(family: str, n: int) -> dict:
    dim_g = oracle.dim(family, n)
    rows = []
    for k in range(1, n + 1):
        comps = oracle.levi_types(family, n, k)
        _expect(sum(m for _, m in comps) == n - 1, f"oracle Levi rank at {family}{n} k={k}")
        levi_dim = 1 + sum(oracle.dim(f, m) for f, m in comps)
        rows.append((k, comps, dim_g - levi_dim))
    return {"dim": dim_g, "rows": rows, "min_codim": min(c for _, _, c in rows)}


def expected_bds(family: str, n: int) -> dict:
    dim_g = oracle.dim(family, n)
    rows, marks = [], []
    for k, mark in enumerate(oracle.marks(family, n), start=1):
        if mark < 2:
            continue
        comps = oracle.bds_types(family, n, k)
        _expect(sum(m for _, m in comps) == n, f"oracle BdS rank at {family}{n} k={k}")
        rows.append((k, comps, dim_g - sum(oracle.dim(f, m) for f, m in comps)))
        marks.append((k, mark))
    # the index group of node k has order equal to its mark
    return {"rows": rows, "marks": marks, "index_orders": marks,
            "min_codim": min((c for _, _, c in rows), default=None)}


def check_tables(family: str, n: int, result) -> None:
    """Check (levi_table, min_levi_codim, bds_table, min_bds_codim) of one type."""
    levi, min_levi, bds, min_bds = result
    want = expected_levi(family, n)
    dim_g = want["dim"]
    got_rows = []
    for rec in levi:
        _expect(rec.levi_dim + rec.codim == dim_g,
                f"{family}{n} Levi k={rec.node}: levi_dim + codim != dim g = {dim_g}")
        comps = tuple(sorted(_type_pair(t) for t in rec.derived_type))
        _expect(rec.levi_dim == 1 + sum(oracle.dim(f, m) for f, m in comps),
                f"{family}{n} Levi k={rec.node}: levi_dim is not 1 + dim of its components")
        got_rows.append((rec.node, comps, rec.codim))
    _expect(got_rows == want["rows"], f"{family}{n} Levi rows {got_rows} != {want['rows']}")
    _expect(min_levi == want["min_codim"], f"{family}{n} min Levi codim {min_levi}")

    want = expected_bds(family, n)
    got_rows, got_marks, got_orders = [], [], []
    for rec in bds:
        comps = tuple(sorted(_type_pair(t) for t in rec.bds_type))
        _expect(sum(m for _, m in comps) == n,
                f"{family}{n} BdS k={rec.node}: rank {sum(m for _, m in comps)} is not conserved")
        got_rows.append((rec.node, comps, rec.codim))
        got_marks.append((rec.node, rec.mark))
        group = rec.index_group
        _expect(group.known and group.free_rank == 0
                and oracle.is_divisibility_chain(group.invariant_factors),
                f"{family}{n} BdS k={rec.node}: index group {group} is not finite")
        got_orders.append((rec.node, math.prod(group.invariant_factors)))
    _expect(got_rows == want["rows"], f"{family}{n} BdS rows {got_rows} != {want['rows']}")
    _expect(got_marks == want["marks"], f"{family}{n} marks {got_marks} != {want['marks']}")
    _expect(got_orders == want["index_orders"],
            f"{family}{n} index-group orders {got_orders} != marks {want['index_orders']}")
    _expect(min_bds == want["min_codim"], f"{family}{n} min BdS codim {min_bds}")


# ---------------------------------------------------------------------------
# homotopy and local models

def expected_homotopy(torus: int, factors, r: int, k: int, db) -> dict:
    """Free rank, per-prime exponents and validity of pi_k of the good locus."""
    value = oracle.good_locus(torus, factors, r, k, db)
    if value is None:
        raise ValueError(f"query outside the reference coverage: k={k} {factors}")
    ss_rank = sum(n for _, n, _ in factors)
    if not factors:
        validity = "Stable"
    else:
        min_rank = min(n for _, n, _ in factors)
        stable_k = 2 * min(2 * (r - 1) * min_rank, (r - 1) * ss_rank) - 2
        if k <= stable_k:
            validity = "Stable"
        elif k <= 2 and (r >= 3 or ss_rank >= 2):
            validity = "Pi0Pi1Pi2Hypothesis"
        else:
            validity = "OutOfProvenRange"
    return {"free_rank": value[0], "primes": oracle.prime_exponents(value[1]),
            "validity": validity}


def check_group_value(free_rank: int, factors, known: bool, want: dict, what: str) -> None:
    _expect(known, f"{what}: value is Unknown")
    _expect(free_rank == want["free_rank"], f"{what}: free rank {free_rank} != {want['free_rank']}")
    _expect(oracle.is_divisibility_chain(list(factors)),
            f"{what}: torsion is not a divisibility chain")
    _expect(oracle.prime_exponents(factors) == want["primes"],
            f"{what}: per-prime exponents of the torsion differ from the reference")


def check_good_locus(want: dict, result, what: str) -> None:
    value = result.value
    check_group_value(value.free_rank, value.invariant_factors, value.known, want, what)
    _expect(result.validity.value == want["validity"],
            f"{what}: validity {result.validity.value} != {want['validity']}")


def expected_local_model(family: str, n: int, node: int, r: int) -> int:
    """M, where M + 1 = (r - 1) * #{positive roots with alpha_node coefficient > 0}."""
    return (r - 1) * oracle.levi_root_count(family, n, node) - 1


def check_weights(weights: dict[int, int], M: int, what: str) -> None:
    _expect(all(v > 0 and weights.get(-n) == v for n, v in weights.items()),
            f"{what}: weights are not symmetric under n -> -n")
    _expect(sum(v for n, v in weights.items() if n > 0) == M + 1,
            f"{what}: positive weights do not add up to M + 1 = {M + 1}")


def check_support(dims, M: int, what: str) -> None:
    """2M+2 degrees from 0 to 4M+1: the evens up to 2M, the odds from 2M+1.

    A set is not copied, so the check adds nothing to the peak RSS.
    """
    distinct = len(dims) if isinstance(dims, (set, frozenset)) else len(set(dims))
    _expect(len(dims) == distinct == 2 * M + 2,
            f"{what}: support has {distinct} distinct degrees, not 2M+2")
    _expect(min(dims) == 0 and max(dims) == 4 * M + 1, f"{what}: support is not [0, 4M+1]")
    _expect(all((d % 2 == 0) == (d <= 2 * M) for d in dims),
            f"{what}: support parity does not switch at 2M")


def check_local_model(want_M: int, result, what: str) -> None:
    weights, M, support = result
    _expect(M == want_M, f"{what}: M = {M}, expected {want_M}")
    check_weights(weights.d, M, what)
    _expect(support.M == M, f"{what}: support built for M = {support.M}")
    check_support(support.dims, M, what)


# ---------------------------------------------------------------------------
# the command line: one extractor per subcommand and format, each giving the
# facts that format carries; every fact must equal the expected one


def _group_text(text: str) -> tuple[int, tuple[int, ...], bool]:
    """'Z^2 + Z_3 + Z_6', 'Z', '0' or '?' to (free rank, factors, known)."""
    text = text.strip()
    if text == "?":
        return 0, (), False
    free, factors = 0, []
    for part in ([] if text == "0" else text.split(" + ")):
        if part == "Z":
            free = 1
        elif part.startswith("Z^"):
            free = int(part[2:])
        elif part.startswith("Z_"):
            factors.append(int(part[2:]))
        else:
            raise CheckError(f"unreadable group {text!r}")
    return free, tuple(factors), True


def _rows(fmt: str, out: str):
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return rows[0], rows[1:]
    if fmt == "json":
        return json.loads(out)
    return out.splitlines()


def _bool(text: str) -> bool:
    return {"True": True, "False": False, "true": True, "false": False,
            "yes": True, "no": False}[text]


def _match(pattern: str, line: str):
    m = re.fullmatch(pattern, line)
    if m is None:
        raise CheckError(f"line {line!r} does not match {pattern!r}")
    return m


def facts_table_levi(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        rows = [(r["k"], _parse_types(r["derived_type"]), r["codim"]) for r in data["rows"]]
        dims = {r["levi_dim"] + r["codim"] for r in data["rows"]}
        return {"rows": rows, "min_codim": data["min_codim"],
                "dim": dims.pop() if len(dims) == 1 else None}
    if fmt == "csv":
        header, body = data
        _expect(header == ["k", "derived_type", "codim"], f"CSV header {header}")
        return {"rows": [(int(k), _parse_types(t), int(c)) for k, t, c in body]}
    head = _match(r"Levi subalgebras of maximal parabolics of \w+ \(dim (\d+)\)", data[0])
    rows = [_match(r"  k=(\d+)  \[([\w+]+)\]  codim (\d+)", line).groups() for line in data[1:-1]]
    return {"dim": int(head[1]),
            "rows": [(int(k), _parse_types(t), int(c)) for k, t, c in rows],
            "min_codim": int(_match(r"  min codim: (\d+)", data[-1])[1])}


def facts_table_bds(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        rows = data["rows"]
        for r in rows:
            g = r["index_group"]
            _expect(g["known"] and g["free_rank"] == 0, f"index group {g} is not finite")
        return {"rows": [(r["k"], _parse_types(r["bds_type"]), r["codim"]) for r in rows],
                "marks": [(r["k"], r["mark"]) for r in rows],
                "index_orders": [(r["k"], math.prod(r["index_group"]["torsion"])) for r in rows],
                "min_codim": data["min_codim"]}
    if fmt == "csv":
        header, body = data
        _expect(header == ["k", "bds_type", "codim"], f"CSV header {header}")
        return {"rows": [(int(k), _parse_types(t), int(c)) for k, t, c in body]}
    rows = [_match(r"  k=(\d+)  mark (\d+)  \[([\w+]+)\]  codim (\d+)  index (.+)", line).groups()
            for line in data[1:-1]]
    last = data[-1]
    indices = []
    for k, _, _, _, g in rows:
        free, factors, known = _group_text(g)
        _expect(known and not free, f"index group {g} is not finite")
        indices.append((int(k), math.prod(factors)))
    return {"rows": [(int(k), _parse_types(t), int(c)) for k, _, t, c, _ in rows],
            "marks": [(int(k), int(m)) for k, m, _, _, _ in rows],
            "index_orders": indices,
            "min_codim": None if last == "  (none: all marks are 1)"
            else int(_match(r"  min codim: (\d+)", last)[1])}


def facts_roots(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        return {"positive_roots": data["positive_roots"], "dimension": data["dimension"],
                "marks": tuple(data["marks"])}
    if fmt == "csv":
        header, body = data
        _expect(header == ["type", "positive_roots", "dimension", "marks"], f"CSV header {header}")
        (_, pos, dim_g, marks), = body
        return {"positive_roots": int(pos), "dimension": int(dim_g),
                "marks": tuple(int(x) for x in marks.split())}
    return {"positive_roots": int(_match(r"  positive roots: (\d+)", data[1])[1]),
            "dimension": int(_match(r"  dimension: (\d+)", data[2])[1]),
            "marks": tuple(int(x) for x in
                           _match(r"  highest-root marks: \[([\d, ]+)\]", data[3])[1].split(", "))}


_CODIM_KEYS = ("r", "bad_lower", "red_lower", "c_pasbon_lower", "stable_k_max")


def facts_codim(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        return {"bounds": tuple(data[k] for k in _CODIM_KEYS), "lower_bound": data["lower_bound"]}
    if fmt == "csv":
        header, body = data
        _expect(header == ["group", *_CODIM_KEYS], f"CSV header {header}")
        (row,) = body
        return {"bounds": tuple(int(x) for x in row[1:])}
    r = int(_match(r"codimension bounds for .+, r=(\d+)", data[0])[1])
    nums = [int(_match(r"  [\w -]+: +(?:real )?(?:codim >=|k <=) (-?\d+)", line)[1])
            for line in data[1:5]]
    return {"bounds": (r, *nums)}


def facts_homotopy(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        v = data["value"]
        return {"value": (v["free_rank"], tuple(v["torsion"]), v["known"]),
                "validity": data["validity"]}
    if fmt == "csv":
        header, body = data
        _expect(header == ["group", "r", "k", "value", "validity"], f"CSV header {header}")
        (row,) = body
        return {"value": _group_text(row[3]), "validity": row[4]}
    return {"value": _group_text(_match(r"  value: +(.+)", data[1])[1]),
            "validity": _match(r"  validity: (\w+)", data[2])[1]}


def facts_ci(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        return {"ci": data["ci"]}
    if fmt == "csv":
        (row,) = data[1]
        return {"ci": _bool(row[1])}
    return {"ci": _bool(_match(r"CI\(.+\): (true|false)", data[0])[1])}


def facts_singular_locus(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        return {"verdict": data["verdict"]}
    if fmt == "csv":
        (row,) = data[1]
        return {"verdict": row[2]}
    return {"verdict": _match(r"  verdict: (\w+)", data[1])[1]}


def facts_local_model(fmt: str, out: str) -> dict:
    data = _rows(fmt, out)
    if fmt == "json":
        return {"weights": {int(n): v for n, v in data["weights"].items()},
                "singular": data["singular"], "M": data["M"],
                "support": data["homology_support"], "sphere_like": data["sphere_like"]}
    if fmt == "csv":
        (row,) = data[1]
        return {"singular": _bool(row[3]), "M": int(row[4])}
    weights = {}
    for line in data[1:-2]:
        n, v = _match(r"  d_(-?\d+) = (\d+)", line).groups()
        weights[int(n)] = int(v)
    tail = _match(r"  M = (\d+); link homology support \[([\d, ]*)\]; sphere-like: (yes|no)",
                  data[-1])
    return {"weights": weights,
            "singular": _bool(_match(r"  topological singularity: (yes|no)", data[-2])[1]),
            "M": int(tail[1]),
            "support": [int(x) for x in tail[2].split(", ")],
            "sphere_like": _bool(tail[3])}


FACTS = {
    "table-levi": facts_table_levi,
    "table-bds": facts_table_bds,
    "roots": facts_roots,
    "codim": facts_codim,
    "homotopy": facts_homotopy,
    "ci": facts_ci,
    "singular-locus": facts_singular_locus,
    "local-model": facts_local_model,
}


def check_cli(command: str, fmt: str, want: dict, code: int, out: str) -> None:
    """Check one `charvar <command> --format <fmt>` answer against ``want``."""
    _expect(code == 0, f"{command} --format {fmt}: exit code {code}")
    try:
        got = FACTS[command](fmt, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"{command} --format {fmt}: unreadable output ({exc!r})") from None
    what = f"{command} --format {fmt}"
    for key, value in got.items():
        if key == "value":
            check_group_value(value[0], value[1], value[2], want["value"], what)
        elif key == "weights":
            check_weights(value, want["M"], what)
        elif key == "support":
            check_support(value, want["M"], what)
        else:
            _expect(value == want[key], f"{what}: {key} = {value!r}, expected {want[key]!r}")
