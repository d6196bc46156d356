"""Command-line front end.

Subcommands emit the classification tables and answer per-group queries
in text, JSON, or CSV.  Exit codes: 0 success, 1 domain error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Any, Optional

from . import bounds, homotopy, localmodel, subalg
from .errors import CharvarError
from .groups import FgAbelianGroup, GroupDescriptor, is_ci, parse_group
from .rootsys import SimpleType, dimension, highest_root


def fga_to_json(a: FgAbelianGroup) -> dict[str, Any]:
    return {
        "free_rank": a.free_rank,
        "torsion": list(a.invariant_factors),
        "known": a.known,
    }


def fga_from_json(obj: dict[str, Any]) -> FgAbelianGroup:
    return FgAbelianGroup(
        free_rank=obj["free_rank"],
        invariant_factors=tuple(obj["torsion"]),
        known=obj["known"],
    )


def _type_list(types) -> str:
    return "+".join(str(t) for t in types) if types else "0"


def _database(args) -> Optional[homotopy.HomotopyDatabase]:
    path = getattr(args, "db", None) or os.environ.get("CHARVAR_DB")
    return homotopy.load_database(path) if path else None


def _emit(args, text_lines, json_obj, csv_header, csv_rows, out) -> None:
    if args.format == "json":
        json.dump(json_obj, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
    else:
        out.write("\n".join(text_lines) + "\n")


def _cmd_table_levi(args, out) -> None:
    t = SimpleType.parse(args.type)
    table = subalg.levi_table(t)
    lines = [f"Levi subalgebras of maximal parabolics of {t} (dim {dimension(t)})"]
    lines += [f"  k={rec.node}  [{_type_list(rec.derived_type)}]  codim {rec.codim}" for rec in table]
    lines.append(f"  min codim: {subalg.min_levi_codim(t)}")
    json_obj = {
        "type": str(t),
        "rows": [
            {"k": rec.node, "derived_type": [str(c) for c in rec.derived_type],
             "levi_dim": rec.levi_dim, "codim": rec.codim}
            for rec in table
        ],
        "min_codim": subalg.min_levi_codim(t),
    }
    rows = [(rec.node, _type_list(rec.derived_type), rec.codim) for rec in table]
    _emit(args, lines, json_obj, ("k", "derived_type", "codim"), rows, out)


def _cmd_table_bds(args, out) -> None:
    t = SimpleType.parse(args.type)
    table = subalg.bds_table(t)
    lines = [f"Maximal Borel-de Siebenthal subalgebras of {t}"]
    lines += [
        f"  k={rec.node}  mark {rec.mark}  [{_type_list(rec.bds_type)}]"
        f"  codim {rec.codim}  index {rec.index_group}"
        for rec in table
    ]
    mmin = subalg.min_bds_codim(t)
    lines.append("  (none: all marks are 1)" if mmin is None else f"  min codim: {mmin}")
    json_obj = {
        "type": str(t),
        "rows": [
            {"k": rec.node, "mark": rec.mark, "bds_type": [str(c) for c in rec.bds_type],
             "codim": rec.codim, "index_group": fga_to_json(rec.index_group)}
            for rec in table
        ],
        "min_codim": mmin,
    }
    rows = [(rec.node, _type_list(rec.bds_type), rec.codim) for rec in table]
    _emit(args, lines, json_obj, ("k", "bds_type", "codim"), rows, out)


def _cmd_codim(args, out) -> None:
    g = parse_group(args.group)
    rep = bounds.codim_report(g, args.free_rank)
    lines = [
        f"codimension bounds for {g}, r={rep.r}",
        f"  bad locus:       codim >= {rep.bad_lower}",
        f"  reducible locus: codim >= {rep.red_lower}",
        f"  non-good locus:  real codim >= {rep.c_pasbon_lower}",
        f"  stable range:    k <= {rep.stable_k_max}",
    ]
    json_obj = {
        "group": str(g), "r": rep.r, "lower_bound": True,
        "bad_lower": rep.bad_lower, "red_lower": rep.red_lower,
        "c_pasbon_lower": rep.c_pasbon_lower, "stable_k_max": rep.stable_k_max,
    }
    rows = [(str(g), rep.r, rep.bad_lower, rep.red_lower, rep.c_pasbon_lower, rep.stable_k_max)]
    _emit(args, lines, json_obj,
          ("group", "r", "bad_lower", "red_lower", "c_pasbon_lower", "stable_k_max"), rows, out)


def _cmd_homotopy(args, out) -> None:
    g = parse_group(args.group)
    res = homotopy.good_locus_homotopy(g, args.free_rank, args.degree, _database(args))
    lines = [
        f"pi_{args.degree} of the good locus for {g}, r={args.free_rank}",
        f"  value:    {res.value}",
        f"  validity: {res.validity.value}",
        f"  formula:  {res.formula_trace}",
    ]
    json_obj = {
        "group": str(g), "r": args.free_rank, "k": args.degree,
        "value": fga_to_json(res.value), "validity": res.validity.value,
        "formula_trace": res.formula_trace,
    }
    rows = [(str(g), args.free_rank, args.degree, str(res.value), res.validity.value)]
    _emit(args, lines, json_obj, ("group", "r", "k", "value", "validity"), rows, out)


def _cmd_ci(args, out) -> None:
    g = parse_group(args.group)
    verdict, witness = is_ci(g)
    lines = [f"CI({g}): {'true' if verdict else 'false'}", f"  {witness}"]
    json_obj = {"group": str(g), "ci": verdict, "witness": witness}
    _emit(args, lines, json_obj, ("group", "ci", "witness"),
          [(str(g), verdict, witness)], out)


def _cmd_singular_locus(args, out) -> None:
    g = parse_group(args.group)
    rep = bounds.classify_singular_locus(g, args.free_rank)
    lines = [f"singular locus of the rank-{args.free_rank} character variety of {g}",
             f"  verdict: {rep.verdict.value}"]
    lines += [f"  - {s}" for s in rep.statements]
    json_obj = {"group": str(g), "r": args.free_rank,
                "verdict": rep.verdict.value, "statements": list(rep.statements)}
    _emit(args, lines, json_obj, ("group", "r", "verdict", "statements"),
          [(str(g), args.free_rank, rep.verdict.value, "; ".join(rep.statements))], out)


def _cmd_local_model(args, out) -> None:
    t = SimpleType.parse(args.type)
    w = localmodel.parabolic_weights(t, args.node, args.free_rank)
    singular = localmodel.is_topologically_singular(w)
    m = w.positive_weight_total() - 1
    support = localmodel.homology_support(m)
    lines = [f"local model for {t}, node {args.node}, r={args.free_rank}"]
    lines += [f"  d_{n} = {w.d[n]}" for n in sorted(w.d)]
    lines.append(f"  topological singularity: {'yes' if singular else 'no'}")
    lines.append(f"  M = {m}; link homology support {sorted(support.dims)}"
                 f"; sphere-like: {'yes' if localmodel.is_sphere_like(m) else 'no'}")
    json_obj = {
        "type": str(t), "node": args.node, "r": args.free_rank,
        "weights": {str(n): w.d[n] for n in sorted(w.d)},
        "singular": singular, "M": m,
        "homology_support": sorted(support.dims),
        "sphere_like": localmodel.is_sphere_like(m),
    }
    rows = [(str(t), args.node, args.free_rank, singular, m)]
    _emit(args, lines, json_obj, ("type", "node", "r", "singular", "M"), rows, out)


def _cmd_roots(args, out) -> None:
    t = SimpleType.parse(args.type)
    dim = dimension(t)
    npos = (dim - t.rank) // 2
    theta = highest_root(t)
    lines = [
        f"root system {t}",
        f"  positive roots: {npos}",
        f"  dimension: {dim}",
        f"  highest-root marks: {list(theta)}",
    ]
    json_obj = {"type": str(t), "positive_roots": npos,
                "dimension": dim, "marks": list(theta)}
    _emit(args, lines, json_obj, ("type", "positive_roots", "dimension", "marks"),
          [(str(t), npos, dim, " ".join(map(str, theta)))], out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Exact Lie-theoretic tables and character-variety invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **needs):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if needs.get("type"):
            p.add_argument("type", help="simple type, e.g. E8 or B5")
        if needs.get("group"):
            p.add_argument("group", help="group spec, e.g. 'T^1 x A3[sc]'")
        if needs.get("r"):
            p.add_argument("-r", "--free-rank", type=int, required=True)
        if needs.get("k"):
            p.add_argument("-k", "--degree", type=int, required=True)
        if needs.get("node"):
            p.add_argument("-i", "--node", type=int, required=True)
        if needs.get("db"):
            p.add_argument("--db", help="homotopy database override (or CHARVAR_DB)")
        return p

    add("table-levi", _cmd_table_levi, type=True)
    add("table-bds", _cmd_table_bds, type=True)
    add("codim", _cmd_codim, group=True, r=True)
    add("homotopy", _cmd_homotopy, group=True, r=True, k=True, db=True)
    add("ci", _cmd_ci, group=True)
    add("singular-locus", _cmd_singular_locus, group=True, r=True)
    add("local-model", _cmd_local_model, type=True, node=True, r=True)
    add("roots", _cmd_roots, type=True)
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args, out)
    except CharvarError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
