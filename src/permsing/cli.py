"""Command-line front end.

Subcommands: classify, dim, strata, sup, table, and the oracle group
(as-count, verify, tame).  Each handler returns one `Record` of typed values
(ExtHalf, tuples, bools, ints, None): the text lines, the JSON document and
the CSV table.  `_render` alone writes the requested format, through the two
value formatters `_text` and `_json`.  Output is deterministic: -oo renders
as "-inf" in text/CSV and as null with a "finite" flag in JSON; half-integers
render as reduced fractions, never floats.  The sizes that drive the work are
capped.  Exit codes: 0 success, 2 invalid input, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

from .classify import classify
from .halfint import ExtHalf
from .oracle import (
    as_class_count,
    tame_totally_ramified_count,
    verify_dimension_growth,
)
from .perm import PermutationGroup, group_from_name
from .strata import (
    dim_connected,
    enumerate_strata,
    global_sup,
    refined_stratum_sup,
    stratum_dim_sum,
)

MAX_SUP_N = 100_000  # worst_partition has about n entries
# classify --n: the order cap bounds the chain build and the element walk that
# the non-free bound falls back to; at n = 64, classify of C2^17 on 32 point pairs
# walks in 1.2-1.4 s, and a build takes a few ms (2-vCPU Intel Xeon, Python 3.11)
MAX_DEGREE = 64
MAX_STRATA_SIZE = 32  # strata --n + --d: the shape count grows exponentially
MAX_TABLE_CELLS = 100_000  # table --max-n * (--max-d + 1)


class Record(NamedTuple):
    """One command's result in every format it offers.

    `lines` is the text output; `doc` the JSON document; `columns` and `rows`
    the CSV table, whose None cells render as `none`.  `lines` may be a lazy
    iterable, so that only the requested format is formatted.
    """

    lines: Iterable[str]
    doc: object = None
    columns: Sequence[str] = ()
    rows: Iterable[Sequence] = ()
    none: str = "-"


def _text(value, none: str = "-") -> str:
    """Text and CSV form of a typed value."""
    if value is None:
        return none
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, ExtHalf):
        return value.as_text()
    if isinstance(value, tuple):
        return "(" + ",".join(map(str, value)) + ")"
    return str(value)


def _json(value):
    """JSON form of a typed value: its as_json() if it has one, tuples as lists."""
    if hasattr(value, "as_json"):
        return value.as_json()
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    return value


def _render(record: Record, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        json.dump(_json(record.doc), out, sort_keys=True, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(record.columns)
        writer.writerows([_text(v, record.none) for v in row] for row in record.rows)
    else:
        out.writelines(line + "\n" for line in record.lines)


def _check_at_most(value: int, limit: int, what: str, command: str) -> None:
    if value > limit:
        raise ValueError(f"{what} must be at most {limit} for {command}, got {value}")


def _cmd_classify(args) -> Record:
    _check_at_most(args.n, MAX_DEGREE, "--n", "classify")
    if args.group is not None:
        group = PermutationGroup.from_text(args.group, args.n)
    else:
        group = group_from_name(args.group_name, args.n)
    report = classify(group, args.p)
    gor = report.gorenstein
    keys = ("has_transposition", "canonical", "pair_klt", "pair_lc", "stringy_dim_bound")
    lines = [
        f"n = {report.n}, p = {report.p}, group order {report.group_order}",
        *(f"{key} = {_text(getattr(report, key))}" for key in keys),
        "gorenstein: "
        f"kx_index_divides={gor.kx_index_divides} "
        f"boundary_coefficient={_text(gor.boundary_coefficient, 'absent')} "
        f"b_cartier_index_divides={_text(gor.b_cartier_index_divides, 'absent')} "
        f"branch_components={gor.branch_component_count}",
        f"nonfree_locus_dim_bound = {report.nonfree_locus_dim_bound}",
        "trace:",
        *(f"  [{entry.anchor}] {entry.detail}" for entry in report.trace),
    ]
    return Record(lines, report)


def _cmd_dim(args) -> Record:
    value = dim_connected(args.n, args.d, args.p)
    return Record([_text(value)], {"n": args.n, "d": args.d, "p": args.p, "dim": value})


def _cmd_strata(args) -> Record:
    if args.no_transposition and args.p is None:
        raise ValueError("--no-transposition requires --p")
    _check_at_most(args.n + args.d, MAX_STRATA_SIZE, "--n + --d", "strata")
    shapes = sorted(
        enumerate_strata(args.n, args.d), key=lambda s: s.sort_key(), reverse=True
    )
    columns = ["nu", "delta"]
    if args.p is not None:
        columns += ["dim", "dim_minus_v"]
    if args.no_transposition:
        columns.append("partition_sup")
    rows = []
    for shape in shapes:
        row: tuple = (shape.nu, shape.delta)
        if args.p is not None:
            dim = stratum_dim_sum(shape, args.p)
            row += (dim, dim - ExtHalf.half(args.d))
        if args.no_transposition:
            trivial = all(v == 1 for v in shape.nu)
            row += (None if trivial else refined_stratum_sup(shape.nu, args.p, True),)
        rows.append(row)
    labels = [{"dim_minus_v": "dim-v"}.get(c, c) for c in columns]
    lines = (
        (" ".join(f"{label}={_text(v)}" for label, v in zip(labels, row)) for row in rows)
        if rows
        else ["(no strata)"]
    )
    doc = {
        "n": args.n,
        "d": args.d,
        "p": args.p,
        "transposition_free": args.no_transposition,
        "strata": [dict(zip(columns, row)) for row in rows],
    }
    return Record(lines, doc, columns, rows)


def _cmd_sup(args) -> Record:
    _check_at_most(args.n, MAX_SUP_N, "--n", "sup")
    result = global_sup(args.n, args.p, transposition_free=args.no_transposition)
    fields = {
        "sup": result.sup,
        "limit_minus_infinity": result.limit_minus_infinity,
        "worst_partition": result.worst_partition or None,
    }
    lines = [f"{key} = {_text(value, 'none')}" for key, value in fields.items()]
    doc = {"n": args.n, "p": args.p, "transposition_free": args.no_transposition, **fields}
    return Record(lines, doc)


def _cmd_table(args) -> Record:
    # the loop over n runs even when the d range is empty
    cells = max(args.max_n, 0) * max(args.max_d + 1, 1)
    _check_at_most(cells, MAX_TABLE_CELLS, "--max-n * (--max-d + 1)", "table")
    rows = []
    for n in range(1, args.max_n + 1):
        for d in range(0, args.max_d + 1):
            dim = dim_connected(n, d, args.p)
            rows.append((n, d, dim, dim - ExtHalf.half(d)))
    lines = chain(
        [f"{'n':>3} {'d':>3} {'dim':>6} {'dim-v':>7}"],
        (f"{n:>3} {d:>3} {_text(dim):>6} {_text(excess):>7}" for n, d, dim, excess in rows),
    )
    return Record(lines, None, ("n", "d", "dim", "dim_minus_v"), rows)


def _cmd_oracle_as_count(args) -> Record:
    count = as_class_count(args.p, args.q, args.jump)
    columns, row = ("p", "q", "jump", "count"), (args.p, args.q, args.jump, count)
    return Record([str(count)], dict(zip(columns, row)), columns, [row])


def _cmd_oracle_verify(args) -> Record:
    try:
        qs = [int(tok) for tok in args.q.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--q must be a comma-separated list of integers: {args.q!r}")
    if not qs:
        raise ValueError("--q must name at least one prime power")
    check = verify_dimension_growth(args.p, args.n, args.d, qs)
    rows = [
        (q, count, m, check.predicted, check.ok)
        for q, count, m in zip(qs, check.counts, check.measured_exponents)
    ]
    lines = [
        f"predicted = {_text(check.predicted)}",
        *(f"q={q}: count={count} measured={_text(m, '?')}" for q, count, m, _, _ in rows),
        f"ok = {_text(check.ok)}",
    ]
    doc = {
        "p": args.p,
        "n": args.n,
        "d": args.d,
        "qs": qs,
        "predicted": check.predicted,
        "counts": check.counts,
        "measured": check.measured_exponents,
        "ok": check.ok,
    }
    return Record(lines, doc, ("q", "count", "measured", "predicted", "ok"), rows, "?")


def _cmd_oracle_tame(args) -> Record:
    count = tame_totally_ramified_count(args.q, args.n)
    return Record([str(count)], {"q": args.q, "n": args.n, "count": count})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsing",
        description="Classify quotient singularities of permutation actions "
        "and query the underlying exact dimension formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="certify a quotient singularity")
    p_classify.set_defaults(handler=_cmd_classify)
    p_classify.add_argument("--n", type=int, required=True, help="ambient degree")
    p_classify.add_argument("--p", type=int, required=True, help="characteristic (0 or prime)")
    grp = p_classify.add_mutually_exclusive_group(required=True)
    grp.add_argument("--group", help='generators in cycle notation, e.g. "(1 2);(1 2 3)"')
    grp.add_argument(
        "--group-name", help="preset: Sm, Am, cyclic:k, klein4, trivial"
    )
    p_classify.add_argument("--format", choices=["text", "json"], default="json")

    p_dim = sub.add_parser("dim", help="dimension of the connected-cover locus")
    p_dim.set_defaults(handler=_cmd_dim)
    p_dim.add_argument("--n", type=int, required=True)
    p_dim.add_argument("--d", type=int, required=True)
    p_dim.add_argument("--p", type=int, required=True)
    p_dim.add_argument("--format", choices=["text", "json"], default="text")

    p_strata = sub.add_parser("strata", help="enumerate stratum shapes (nu, delta)")
    p_strata.set_defaults(handler=_cmd_strata)
    p_strata.add_argument("--n", type=int, required=True)
    p_strata.add_argument("--d", type=int, required=True)
    p_strata.add_argument("--p", type=int, default=None)
    p_strata.add_argument(
        "--no-transposition",
        action="store_true",
        help="also show the per-partition transposition-free bound (needs --p)",
    )
    p_strata.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_sup = sub.add_parser("sup", help="supremum of dim - d/2 over non-trivial strata")
    p_sup.set_defaults(handler=_cmd_sup)
    p_sup.add_argument("--n", type=int, required=True)
    p_sup.add_argument("--p", type=int, required=True)
    p_sup.add_argument("--no-transposition", action="store_true")
    p_sup.add_argument("--format", choices=["text", "json"], default="text")

    p_table = sub.add_parser("table", help="dimension table over a range of (n, d)")
    p_table.set_defaults(handler=_cmd_table)
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--max-d", type=int, required=True)
    p_table.add_argument("--p", type=int, required=True)
    p_table.add_argument(
        "--csv", action="store_const", dest="format", const="csv", default="text"
    )

    p_oracle = sub.add_parser("oracle", help="brute-force finite-field oracles")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_count = oracle_sub.add_parser("as-count", help="Artin-Schreier class count")
    p_count.set_defaults(handler=_cmd_oracle_as_count)
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--q", type=int, required=True)
    p_count.add_argument("--jump", type=int, required=True)
    p_count.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_verify = oracle_sub.add_parser(
        "verify", help="compare class counts against the predicted dimension"
    )
    p_verify.set_defaults(handler=_cmd_oracle_verify)
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--q", required=True, help="comma-separated list, e.g. 2,4")
    p_verify.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_tame = oracle_sub.add_parser("tame", help="tame totally ramified extension count")
    p_tame.set_defaults(handler=_cmd_oracle_tame)
    p_tame.add_argument("--q", type=int, required=True)
    p_tame.add_argument("--n", type=int, required=True)
    p_tame.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def run(argv: list[str], out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:  # argparse writes usage errors and --help itself, so point it at out and err
        with redirect_stdout(out), redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _render(args.handler(args), args.format, out)
    except ValueError as exc:  # CycleParseError included
        err.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # internal fault
        err.write(f"internal error: {exc!r}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
