"""Command-line front end.

Subcommands: classify, dim, strata, sup, table, and the oracle group
(as-count, verify, tame).  Output is deterministic; -oo renders as "-inf" in
text/CSV and as null with a "finite" flag in JSON; half-integers render as
reduced fractions, never floats.  Exit codes: 0 success, 2 invalid input,
1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Optional, TextIO

from .classify import classify
from .halfint import ExtHalf
from .oracle import (
    as_class_count,
    tame_totally_ramified_count,
    verify_dimension_growth,
)
from .perm import CycleParseError, PermutationGroup, group_from_name
from .strata import (
    dim_connected,
    enumerate_strata,
    global_sup,
    refined_stratum_sup,
    stratum_dim_sum,
)

MAX_SUP_N = 100_000


def _half(d: int) -> ExtHalf:
    return ExtHalf(Fraction(d, 2))


def _dump_json(obj, out: TextIO) -> None:
    json.dump(obj, out, sort_keys=True, indent=2)
    out.write("\n")


def _tuple_text(values) -> str:
    return "(" + ",".join(map(str, values)) + ")"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsing",
        description="Classify quotient singularities of permutation actions "
        "and query the underlying exact dimension formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="certify a quotient singularity")
    p_classify.add_argument("--n", type=int, required=True, help="ambient degree")
    p_classify.add_argument("--p", type=int, required=True, help="characteristic (0 or prime)")
    grp = p_classify.add_mutually_exclusive_group(required=True)
    grp.add_argument("--group", help='generators in cycle notation, e.g. "(1 2);(1 2 3)"')
    grp.add_argument(
        "--group-name", help="preset: Sm, Am, cyclic:k, klein4, trivial"
    )
    p_classify.add_argument("--format", choices=["text", "json"], default="json")

    p_dim = sub.add_parser("dim", help="dimension of the connected-cover locus")
    p_dim.add_argument("--n", type=int, required=True)
    p_dim.add_argument("--d", type=int, required=True)
    p_dim.add_argument("--p", type=int, required=True)
    p_dim.add_argument("--format", choices=["text", "json"], default="text")

    p_strata = sub.add_parser("strata", help="enumerate stratum shapes (nu, delta)")
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
    p_sup.add_argument("--n", type=int, required=True)
    p_sup.add_argument("--p", type=int, required=True)
    p_sup.add_argument("--no-transposition", action="store_true")
    p_sup.add_argument("--format", choices=["text", "json"], default="text")

    p_table = sub.add_parser("table", help="dimension table over a range of (n, d)")
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--max-d", type=int, required=True)
    p_table.add_argument("--p", type=int, required=True)
    p_table.add_argument("--csv", action="store_true")

    p_oracle = sub.add_parser("oracle", help="brute-force finite-field oracles")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_count = oracle_sub.add_parser("as-count", help="Artin-Schreier class count")
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--q", type=int, required=True)
    p_count.add_argument("--jump", type=int, required=True)
    p_count.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_verify = oracle_sub.add_parser(
        "verify", help="compare class counts against the predicted dimension"
    )
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--q", required=True, help="comma-separated list, e.g. 2,4")
    p_verify.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_tame = oracle_sub.add_parser("tame", help="tame totally ramified extension count")
    p_tame.add_argument("--q", type=int, required=True)
    p_tame.add_argument("--n", type=int, required=True)
    p_tame.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _cmd_classify(args, out: TextIO) -> int:
    if args.group is not None:
        group = PermutationGroup.from_text(args.group, args.n)
    else:
        group = group_from_name(args.group_name, args.n)
    report = classify(group, args.p)
    if args.format == "json":
        _dump_json(report.as_json(), out)
        return 0
    gor = report.gorenstein
    coeff = gor.boundary_coefficient
    out.write(f"n = {report.n}, p = {report.p}, group order {report.group_order}\n")
    out.write(f"has_transposition = {str(report.has_transposition).lower()}\n")
    out.write(f"canonical = {report.canonical}\n")
    out.write(f"pair_klt = {report.pair_klt}\n")
    out.write(f"pair_lc = {report.pair_lc}\n")
    out.write(f"stringy_dim_bound = {report.stringy_dim_bound.as_text()}\n")
    out.write(
        "gorenstein: "
        f"kx_index_divides={gor.kx_index_divides} "
        f"boundary_coefficient={coeff if coeff is not None else 'absent'} "
        f"b_cartier_index_divides={gor.b_cartier_index_divides if gor.b_cartier_index_divides is not None else 'absent'} "
        f"branch_components={gor.branch_component_count}\n"
    )
    out.write(f"nonfree_locus_dim_bound = {report.nonfree_locus_dim_bound}\n")
    out.write("trace:\n")
    for entry in report.trace:
        out.write(f"  [{entry.anchor}] {entry.detail}\n")
    return 0


def _cmd_dim(args, out: TextIO) -> int:
    value = dim_connected(args.n, args.d, args.p)
    if args.format == "json":
        _dump_json(
            {"n": args.n, "d": args.d, "p": args.p, "dim": value.as_json()}, out
        )
    else:
        out.write(value.as_text() + "\n")
    return 0


def _strata_rows(args) -> list[dict]:
    shapes = sorted(
        enumerate_strata(args.n, args.d), key=lambda s: s.sort_key(), reverse=True
    )
    rows = []
    for shape in shapes:
        row: dict = {"nu": shape.nu, "delta": shape.delta}
        if args.p is not None:
            dim = stratum_dim_sum(shape, args.p)
            row["dim"] = dim
            row["dim_minus_v"] = dim - _half(args.d)
        if args.no_transposition:
            if all(v == 1 for v in shape.nu):
                row["partition_sup"] = None
            else:
                row["partition_sup"] = refined_stratum_sup(shape.nu, args.p, True)
        rows.append(row)
    return rows


def _cmd_strata(args, out: TextIO) -> int:
    if args.no_transposition and args.p is None:
        raise ValueError("--no-transposition requires --p")
    rows = _strata_rows(args)
    if args.format == "json":
        payload = {
            "n": args.n,
            "d": args.d,
            "p": args.p,
            "transposition_free": args.no_transposition,
            "strata": [
                {
                    "nu": list(r["nu"]),
                    "delta": list(r["delta"]),
                    **(
                        {
                            "dim": r["dim"].as_json(),
                            "dim_minus_v": r["dim_minus_v"].as_json(),
                        }
                        if "dim" in r
                        else {}
                    ),
                    **(
                        {
                            "partition_sup": r["partition_sup"].as_json()
                            if r["partition_sup"] is not None
                            else None
                        }
                        if "partition_sup" in r
                        else {}
                    ),
                }
                for r in rows
            ],
        }
        _dump_json(payload, out)
        return 0
    header = ["nu", "delta"]
    if args.p is not None:
        header += ["dim", "dim_minus_v"]
    if args.no_transposition:
        header.append("partition_sup")
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            cells = [_tuple_text(r["nu"]), _tuple_text(r["delta"])]
            if "dim" in r:
                cells += [r["dim"].as_text(), r["dim_minus_v"].as_text()]
            if "partition_sup" in r:
                sup = r["partition_sup"]
                cells.append(sup.as_text() if sup is not None else "-")
            writer.writerow(cells)
        return 0
    for r in rows:
        line = f"nu={_tuple_text(r['nu'])} delta={_tuple_text(r['delta'])}"
        if "dim" in r:
            line += f" dim={r['dim'].as_text()} dim-v={r['dim_minus_v'].as_text()}"
        if "partition_sup" in r:
            sup = r["partition_sup"]
            line += f" partition_sup={sup.as_text() if sup is not None else '-'}"
        out.write(line + "\n")
    if not rows:
        out.write("(no strata)\n")
    return 0


def _cmd_sup(args, out: TextIO) -> int:
    if args.n > MAX_SUP_N:
        # worst_partition has about n entries
        raise ValueError(f"--n must be at most {MAX_SUP_N} for sup, got {args.n}")
    result = global_sup(args.n, args.p, transposition_free=args.no_transposition)
    if args.format == "json":
        _dump_json(
            {
                "n": args.n,
                "p": args.p,
                "transposition_free": args.no_transposition,
                "sup": result.sup.as_json(),
                "limit_minus_infinity": result.limit_minus_infinity,
                "worst_partition": list(result.worst_partition)
                if result.worst_partition
                else None,
            },
            out,
        )
        return 0
    out.write(f"sup = {result.sup.as_text()}\n")
    out.write(f"limit_minus_infinity = {str(result.limit_minus_infinity).lower()}\n")
    worst = (
        _tuple_text(result.worst_partition) if result.worst_partition else "none"
    )
    out.write(f"worst_partition = {worst}\n")
    return 0


def _cmd_table(args, out: TextIO) -> int:
    rows = []
    for n in range(1, args.max_n + 1):
        for d in range(0, args.max_d + 1):
            dim = dim_connected(n, d, args.p)
            rows.append((n, d, dim, dim - _half(d)))
    if args.csv:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "d", "dim", "dim_minus_v"])
        for n, d, dim, excess in rows:
            writer.writerow([n, d, dim.as_text(), excess.as_text()])
    else:
        out.write(f"{'n':>3} {'d':>3} {'dim':>6} {'dim-v':>7}\n")
        for n, d, dim, excess in rows:
            out.write(f"{n:>3} {d:>3} {dim.as_text():>6} {excess.as_text():>7}\n")
    return 0


def _cmd_oracle_as_count(args, out: TextIO) -> int:
    count = as_class_count(args.p, args.q, args.jump)
    if args.format == "json":
        _dump_json({"p": args.p, "q": args.q, "jump": args.jump, "count": count}, out)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["p", "q", "jump", "count"])
        writer.writerow([args.p, args.q, args.jump, count])
    else:
        out.write(f"{count}\n")
    return 0


def _cmd_oracle_verify(args, out: TextIO) -> int:
    try:
        qs = [int(tok) for tok in args.q.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--q must be a comma-separated list of integers: {args.q!r}")
    if not qs:
        raise ValueError("--q must name at least one prime power")
    check = verify_dimension_growth(args.p, args.n, args.d, qs)
    if args.format == "json":
        _dump_json(
            {
                "p": args.p,
                "n": args.n,
                "d": args.d,
                "qs": qs,
                "predicted": check.predicted.as_json(),
                "counts": list(check.counts),
                "measured": [
                    m.as_json() if m is not None else None
                    for m in check.measured_exponents
                ],
                "ok": check.ok,
            },
            out,
        )
        return 0
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["q", "count", "measured", "predicted", "ok"])
        for q, count, m in zip(qs, check.counts, check.measured_exponents):
            measured = m.as_text() if m is not None else "?"
            writer.writerow(
                [q, count, measured, check.predicted.as_text(), str(check.ok).lower()]
            )
        return 0
    out.write(f"predicted = {check.predicted.as_text()}\n")
    for q, count, m in zip(qs, check.counts, check.measured_exponents):
        measured = m.as_text() if m is not None else "?"
        out.write(f"q={q}: count={count} measured={measured}\n")
    out.write(f"ok = {str(check.ok).lower()}\n")
    return 0


def _cmd_oracle_tame(args, out: TextIO) -> int:
    count = tame_totally_ramified_count(args.q, args.n)
    if args.format == "json":
        _dump_json({"q": args.q, "n": args.n, "count": count}, out)
    else:
        out.write(f"{count}\n")
    return 0


def run(argv: list[str], out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "classify":
            return _cmd_classify(args, out)
        if args.command == "dim":
            return _cmd_dim(args, out)
        if args.command == "strata":
            return _cmd_strata(args, out)
        if args.command == "sup":
            return _cmd_sup(args, out)
        if args.command == "table":
            return _cmd_table(args, out)
        if args.command == "oracle":
            if args.oracle_command == "as-count":
                return _cmd_oracle_as_count(args, out)
            if args.oracle_command == "verify":
                return _cmd_oracle_verify(args, out)
            if args.oracle_command == "tame":
                return _cmd_oracle_tame(args, out)
        err.write(f"error: unknown command {args.command!r}\n")
        return 2
    except (ValueError, CycleParseError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # internal fault
        err.write(f"internal error: {exc!r}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
