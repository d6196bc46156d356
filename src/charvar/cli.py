"""Command-line front end.

Each subcommand computes one record (the classification tables or a
per-group answer) and a text layout; `_emit` writes the text, the record
as JSON, or its listed columns as CSV.  Exit codes: 0 success, 1 domain
error, 2 usage error.

Each call is one process, so each subcommand imports its own layers, and
`_emit` imports `json` or `csv` only for its format: `roots` loads
`rootsys` and `errors` alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any

from .errors import CharvarError
from .rootsys import SimpleType, dimension, highest_root

if TYPE_CHECKING:
    from .groups import FgAbelianGroup


def fga_to_json(a: FgAbelianGroup) -> dict[str, Any]:
    return {
        "free_rank": a.free_rank,
        "torsion": list(a.invariant_factors),
        "known": a.known,
    }


def _json_default(value):
    """The JSON form of what a record holds beyond plain data: groups as
    objects, types as labels."""
    if isinstance(value, SimpleType):
        return str(value)
    from .groups import FgAbelianGroup

    if isinstance(value, FgAbelianGroup):
        return fga_to_json(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _cell(value):
    """One CSV cell, also used for the text tables' type lists.  csv writes
    scalars (groups included) with str."""
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, SimpleType) for v in value):
            return "+".join(map(str, value)) or "0"
        return ("; " if isinstance(value[0], str) else " ").join(map(str, value))
    return value


# JSON is written about this many characters at a time, not token by token.
_WRITE_SIZE = 1 << 20


def _emit(fmt, lines, record, columns, out) -> None:
    """Render one command: the text layout, the record as JSON, or the
    listed columns as CSV with one row per table row."""
    if fmt == "json":
        import json

        chunks, size = [], 0
        for chunk in json.JSONEncoder(indent=2, default=_json_default).iterencode(record):
            chunks.append(chunk)
            size += len(chunk)
            if size >= _WRITE_SIZE:
                out.write("".join(chunks))
                chunks, size = [], 0
        out.write("".join(chunks) + "\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(row[c]) for c in columns] for row in record.get("rows", [record]))
    else:
        out.write("\n".join(lines) + "\n")


def _cmd_table_levi(t, args):
    from . import subalg

    rows = [{"k": rec.node, "derived_type": rec.derived_type,
             "levi_dim": rec.levi_dim, "codim": rec.codim}
            for rec in subalg.levi_table(t)]
    record = {"type": t, "rows": rows, "min_codim": min(row["codim"] for row in rows)}
    lines = [f"Levi subalgebras of maximal parabolics of {t} (dim {dimension(t)})"]
    lines += [f"  k={row['k']}  [{_cell(row['derived_type'])}]  codim {row['codim']}"
              for row in rows]
    lines.append(f"  min codim: {record['min_codim']}")
    return lines, record, ("k", "derived_type", "codim")


def _cmd_table_bds(t, args):
    from . import subalg

    rows = [{"k": rec.node, "mark": rec.mark, "bds_type": rec.bds_type,
             "codim": rec.codim, "index_group": rec.index_group}
            for rec in subalg.bds_table(t)]
    mmin = min((row["codim"] for row in rows), default=None)
    record = {"type": t, "rows": rows, "min_codim": mmin}
    lines = [f"Maximal Borel-de Siebenthal subalgebras of {t}"]
    lines += [f"  k={row['k']}  mark {row['mark']}  [{_cell(row['bds_type'])}]"
              f"  codim {row['codim']}  index {row['index_group']}"
              for row in rows]
    lines.append("  (none: all marks are 1)" if mmin is None else f"  min codim: {mmin}")
    return lines, record, ("k", "bds_type", "codim")


def _cmd_codim(g, args):
    from . import bounds

    rep = bounds.codim_report(g, args.free_rank)
    record = {
        "group": str(g), "r": rep.r, "lower_bound": True,
        "bad_lower": rep.bad_lower, "red_lower": rep.red_lower,
        "c_pasbon_lower": rep.c_pasbon_lower, "stable_k_max": rep.stable_k_max,
    }
    lines = [
        f"codimension bounds for {g}, r={rep.r}",
        f"  bad locus:       codim >= {rep.bad_lower}",
        f"  reducible locus: codim >= {rep.red_lower}",
        f"  non-good locus:  real codim >= {rep.c_pasbon_lower}",
        f"  stable range:    k <= {rep.stable_k_max}",
    ]
    return lines, record, ("group", "r", "bad_lower", "red_lower", "c_pasbon_lower", "stable_k_max")


def _cmd_homotopy(g, args):
    from . import homotopy

    path = args.db or os.environ.get("CHARVAR_DB")
    db = homotopy.load_database(path) if path else None
    res = homotopy.good_locus_homotopy(g, args.free_rank, args.degree, db)
    record = {"group": str(g), "r": args.free_rank, "k": args.degree, "value": res.value,
              "validity": res.validity.value, "formula_trace": res.formula_trace}
    lines = [
        f"pi_{args.degree} of the good locus for {g}, r={args.free_rank}",
        f"  value:    {res.value}",
        f"  validity: {res.validity.value}",
        f"  formula:  {res.formula_trace}",
    ]
    return lines, record, ("group", "r", "k", "value", "validity")


def _cmd_ci(g, args):
    from .groups import is_ci

    verdict, witness = is_ci(g)
    lines = [f"CI({g}): {'true' if verdict else 'false'}", f"  {witness}"]
    return lines, {"group": str(g), "ci": verdict, "witness": witness}, ("group", "ci", "witness")


def _cmd_singular_locus(g, args):
    from . import bounds

    rep = bounds.classify_singular_locus(g, args.free_rank)
    record = {"group": str(g), "r": args.free_rank,
              "verdict": rep.verdict.value, "statements": rep.statements}
    lines = [f"singular locus of the rank-{args.free_rank} character variety of {g}",
             f"  verdict: {rep.verdict.value}"]
    lines += [f"  - {s}" for s in rep.statements]
    return lines, record, ("group", "r", "verdict", "statements")


def _cmd_local_model(t, args):
    from . import localmodel

    w = localmodel.parabolic_weights(t, args.node, args.free_rank)
    singular = localmodel.is_topologically_singular(w)
    m = w.positive_weight_total() - 1
    support = list(localmodel.homology_support(m).dims)
    sphere_like = localmodel.is_sphere_like(m)
    weights = {n: w.d[n] for n in sorted(w.d)}
    record = {"type": t, "node": args.node, "r": args.free_rank, "weights": weights,
              "singular": singular, "M": m, "homology_support": support,
              "sphere_like": sphere_like}
    lines = [f"local model for {t}, node {args.node}, r={args.free_rank}"]
    lines += [f"  d_{n} = {d}" for n, d in weights.items()]
    lines.append(f"  topological singularity: {'yes' if singular else 'no'}")
    lines.append(f"  M = {m}; link homology support {support}"
                 f"; sphere-like: {'yes' if sphere_like else 'no'}")
    return lines, record, ("type", "node", "r", "singular", "M")


def _cmd_roots(t, args):
    dim = dimension(t)
    record = {"type": t, "positive_roots": (dim - t.rank) // 2,
              "dimension": dim, "marks": highest_root(t)}
    lines = [
        f"root system {t}",
        f"  positive roots: {record['positive_roots']}",
        f"  dimension: {dim}",
        f"  highest-root marks: {list(record['marks'])}",
    ]
    return lines, record, ("type", "positive_roots", "dimension", "marks")


def _parse_group(spec):
    from .groups import parse_group

    return parse_group(spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Exact Lie-theoretic tables and character-variety invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand's positional is a simple type or a group spec, read once
    subjects = {"type": (SimpleType.parse, "simple type, e.g. E8 or B5"),
                "group": (_parse_group, "group spec, e.g. 'T^1 x A3[sc]'")}

    def add(name, func, subject, **needs):
        parse, example = subjects[subject]
        p = sub.add_parser(name)
        p.set_defaults(func=func, parse=parse)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("subject", metavar=subject, help=example)
        if needs.get("r"):
            p.add_argument("-r", "--free-rank", type=int, required=True)
        if needs.get("k"):
            p.add_argument("-k", "--degree", type=int, required=True)
        if needs.get("node"):
            p.add_argument("-i", "--node", type=int, required=True)
        if needs.get("db"):
            p.add_argument("--db", help="homotopy database override (or CHARVAR_DB)")

    add("table-levi", _cmd_table_levi, "type")
    add("table-bds", _cmd_table_bds, "type")
    add("codim", _cmd_codim, "group", r=True)
    add("homotopy", _cmd_homotopy, "group", r=True, k=True, db=True)
    add("ci", _cmd_ci, "group")
    add("singular-locus", _cmd_singular_locus, "group", r=True)
    add("local-model", _cmd_local_model, "type", node=True, r=True)
    add("roots", _cmd_roots, "type")
    return parser


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # a usage error on stderr, or --help on sys.stdout
            if sys.stdout is not None:  # None when started with stdout closed
                sys.stdout.flush()
            return int(exc.code or 0)
        rendered = args.func(args.parse(args.subject), args)
        if out is None:  # the process started with stdout closed
            raise CharvarError("stdout is closed")
        _emit(args.format, *rendered, out)
        out.flush()
    except (CharvarError, OSError) as exc:
        if err is not None:  # None when started with stderr closed
            try:
                print(f"error: {exc}", file=err, flush=True)
            except OSError:  # stderr is unwritable too: the exit code alone reports it
                pass
        return 1
    return 0


def main() -> None:
    """The `charvar` entry point: one call, one process.

    `run` has flushed the output, or reported the write or flush that
    failed (a closed pipe, a full device) as an `error:` line and exit 1,
    by the exit code alone where stderr is closed or unwritable too, so
    the process ends at once with `os._exit`, skipping interpreter
    teardown, which frees every object and module for nothing (mypy's
    `util.hard_exit` does the same).  Under a tracer or profiler
    (coverage, `python -m cProfile`) it takes the normal exit, where they
    write their results.  An `error:` line that stderr refused stays in
    its buffer, and the normal exit's flush would fail on it again and
    exit 120, so stderr is closed first, which drops it.
    """
    code = run(sys.argv[1:])
    if sys.gettrace() is None and sys.getprofile() is None:
        os._exit(code)
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            try:
                sys.stderr.close()  # closes even when its own flush fails
            except OSError:
                pass
    sys.exit(code)


if __name__ == "__main__":
    main()
