"""Independent output checker.

Each op's output is checked against facts computed here, without calling
the program: group orders and memberships come from sympy.combinatorics,
suprema and oracle counts from the closed forms, stratum-shape counts from a
generating-function count, and classification JSON from the shipped schema.
There are no byte-level golden outputs, so trace detail text may change
without counting as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from sympy.combinatorics import Permutation, PermutationGroup

NEG_INF = float("-inf")
SCHEMA = Path(__file__).resolve().parents[1] / "src/permsing/schemas" / "classification_report.schema.json"


def _sympy_group(gens, n: int) -> PermutationGroup:
    perms = [Permutation([[x - 1 for x in c] for c in g], size=n) for g in gens]
    return PermutationGroup(perms or [Permutation(list(range(n)))])


def is_full_group(gens, n: int, target: str) -> bool:
    """True when the generators give S_n (target "S") or A_n (target "A")."""
    full = math.factorial(n)
    return _sympy_group(gens, n).order() == (full if target == "S" else full // 2)


@lru_cache(maxsize=None)
def _group_facts(n: int, key: str):
    gens = json.loads(key)
    group = _sympy_group(gens, n)
    pairs = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if group.contains(Permutation(i, j, size=n))
    }
    # G-orbits on the transpositions: conjugating (i j) by g gives (g(i) g(j))
    orbits, seen = 0, set()
    for start in pairs:
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        stack = [start]
        while stack:
            i, j = stack.pop()
            for g in group.generators:
                img = tuple(sorted((g(i), g(j))))
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return int(group.order()), bool(pairs), orbits


def group_facts(gens, n: int):
    """(order, has a transposition, number of G-orbits of transpositions)."""
    return _group_facts(n, json.dumps(gens))


@lru_cache(maxsize=None)
def stratum_shape_count(n: int, d: int) -> int:
    """Number of stratum shapes (nu, delta) of degree n and exponent d.

    A shape is a multiset of pieces (a, b): a piece of degree a >= 2 carries
    an exponent b >= 1, and the rest of n is made of degree-1 pieces with
    exponent 0.  So the count is the number of multisets of pieces (a, b)
    with sum of a at most n and sum of b equal to d.
    """
    ways = [[0] * (d + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for a in range(2, n + 1):
        for b in range(1, d + 1):
            for total_a in range(a, n + 1):
                for total_b in range(b, d + 1):
                    ways[total_a][total_b] += ways[total_a - a][total_b - b]
    return sum(ways[m][d] for m in range(n + 1))


def dim_connected(n: int, d: int, p: int):
    """The five-case dimension formula for connected covers, -inf when empty."""
    if p == 0 or n % p:
        return Fraction(0) if d == n - 1 else NEG_INF
    e = d - n + 1
    if e < 0 or e % p == 0:
        return NEG_INF
    return Fraction(-(-e // p))


def expected_sup(n: int, p: int, tf: bool):
    """Closed forms of the supremum of dim - d/2 over non-trivial strata."""
    if tf:
        return Fraction(-1) if n >= (2 if p == 2 else 3) else NEG_INF
    if n < 2:
        return NEG_INF
    return Fraction(0) if p == 2 else Fraction(-1, 2)


def expected_as_count(p: int, q: int, jump: int) -> int:
    """(q - 1) * q^(#{i <= jump : p does not divide i} - 1)."""
    return (q - 1) * q ** (sum(1 for i in range(1, jump + 1) if i % p) - 1)


def expected_verify(p: int, n: int, d: int, qs):
    """(predicted dimension, expected class counts) of `oracle verify`."""
    if (p, n) == (2, 2):
        jump, dim = d - 1, dim_connected(2, d, 2)
    else:
        jump = d // 2 - 1
        dim = Fraction(jump - jump // 3) if jump % 3 else NEG_INF
    counts = [expected_as_count(p, q, jump) if jump >= 1 and jump % p else 0 for q in qs]
    return dim, counts


def _half(text: str):
    text = text.strip()
    return NEG_INF if text == "-inf" else Fraction(text)


def _ext_json(obj):
    if not obj["finite"]:
        return NEG_INF
    return Fraction(obj["value"]["num"], obj["value"]["den"])


def _tuple(x):
    """A partition from JSON ([4, 2]) or from text ("(4,2)")."""
    if isinstance(x, list):
        return tuple(x)
    return tuple(int(v) for v in x.strip("()").split(",") if v)


@lru_cache(maxsize=1)
def _validator():
    import jsonschema

    schema = json.loads(SCHEMA.read_text())
    return jsonschema.Draft7Validator(schema)


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _check_classify(spec, out: str):
    n, p = spec["n"], spec["p"]
    order, has_t, components = group_facts(spec["gens"], n)
    if spec["format"] == "json":
        report = json.loads(out)
        errors = sorted(_validator().iter_errors(report), key=str)
        _expect(not errors, f"schema: {errors[0].message if errors else ''}")
        got = {
            "n": report["n"],
            "p": report["p"],
            "order": report["group_order"],
            "has_t": report["has_transposition"],
            "canonical": report["canonical"],
            "klt": report["pair_klt"],
            "lc": report["pair_lc"],
            "components": report["gorenstein"]["branch_component_count"],
        }
    else:
        head = re.search(r"^n = (\d+), p = (\d+), group order (\d+)$", out, re.M)
        names = "has_transposition|canonical|pair_klt|pair_lc"
        fields = dict(re.findall(rf"^({names}) = (\S+)$", out, re.M))
        comps = re.search(r"branch_components=(\d+)", out)
        _expect(head and comps and len(fields) == 4, "text report is missing a field")
        got = {
            "n": int(head.group(1)),
            "p": int(head.group(2)),
            "order": int(head.group(3)),
            "has_t": fields["has_transposition"] == "true",
            "canonical": fields["canonical"],
            "klt": fields["pair_klt"],
            "lc": fields["pair_lc"],
            "components": int(comps.group(1)),
        }
    want = {
        "n": n,
        "p": p,
        "order": order,
        "has_t": has_t,
        "canonical": "CERTIFIED",
        "klt": "FALSE" if p == 2 and has_t else "TRUE",
        "lc": "TRUE",
        "components": components,
    }
    for key, value in want.items():
        _expect(got[key] == value, f"{key}: got {got[key]!r}, want {value!r}")


def _check_sup(spec, out: str):
    n, p = spec["n"], spec["p"]
    if spec["format"] == "json":
        obj = json.loads(out)
        sup, limit = _ext_json(obj["sup"]), obj["limit_minus_infinity"]
        worst = tuple(obj["worst_partition"]) if obj["worst_partition"] else None
    else:
        lines = dict(line.split(" = ", 1) for line in out.splitlines())
        sup, limit = _half(lines["sup"]), lines["limit_minus_infinity"] == "true"
        worst = None if lines["worst_partition"] == "none" else _tuple(lines["worst_partition"])
    _expect(sup == expected_sup(n, p, spec["tf"]), f"sup: got {sup}")
    _expect(limit == (p != 2 or n < 2), f"limit_minus_infinity: got {limit}")
    if n == 1:
        _expect(worst is None, "worst_partition for n = 1")
    else:
        _expect(
            worst is not None and sum(worst) == n and max(worst) > 1
            and list(worst) == sorted(worst, reverse=True),
            f"worst_partition: got {worst}",
        )


def _value(x):
    """A half-integer or -inf, from text ("-3/2", "-inf") or from JSON."""
    return _ext_json(x) if isinstance(x, dict) else _half(x)


def _strata_rows(spec, out: str):
    if spec["format"] == "json":
        records = json.loads(out)["strata"]
    elif spec["format"] == "csv":
        records = list(csv.DictReader(io.StringIO(out)))
    elif out.strip() == "(no strata)":
        records = []
    else:
        records = [dict(kv.split("=", 1) for kv in line.split()) for line in out.splitlines()]
        for r in records:
            if "dim-v" in r:
                r["dim_minus_v"] = r.pop("dim-v")
    rows = []
    for r in records:
        sup = r.get("partition_sup", "-")
        rows.append({
            "nu": _tuple(r["nu"]),
            "delta": _tuple(r["delta"]),
            "dim": _value(r["dim"]) if "dim" in r else None,
            "dim_minus_v": _value(r["dim_minus_v"]) if "dim_minus_v" in r else None,
            "has_sup": "partition_sup" in r,
            "partition_sup": None if sup in ("-", None) else _value(sup),
        })
    return rows


def _check_strata(spec, out: str):
    n, d, p = spec["n"], spec["d"], spec["p"]
    rows = _strata_rows(spec, out)
    want = stratum_shape_count(n, d)
    _expect(len(rows) == want, f"shape count: got {len(rows)}, want {want}")
    _expect(len({(r["nu"], r["delta"]) for r in rows}) == len(rows), "repeated shape")
    for r in rows:
        nu, delta = r["nu"], r["delta"]
        _expect(sum(nu) == n and sum(delta) == d, f"shape {nu} {delta} has the wrong size")
        if p is not None:
            dim = sum((dim_connected(a, b, p) for a, b in zip(nu, delta)), Fraction(0))
            _expect(r["dim"] == dim, f"dim of {nu} {delta}: got {r['dim']}, want {dim}")
            _expect(r["dim_minus_v"] == dim - Fraction(d, 2), f"dim - v of {nu} {delta}")
        if spec["tf"]:
            sup = r["partition_sup"]
            _expect(r["has_sup"], "partition_sup column missing")
            if max(nu) == 1:
                _expect(sup is None, "partition_sup on the trivial partition")
            else:
                # the key inequality: dim - d/2 <= -1 on every transposition-free stratum
                _expect(sup is not None and sup <= -1, f"partition_sup of {nu}: {sup}")


def _check_dim(spec, out: str):
    got = _half(out)
    want = dim_connected(spec["n"], spec["d"], spec["p"])
    _expect(got == want, f"dim: got {got}, want {want}")


def _check_table(spec, out: str):
    if spec["csv"]:
        cells = list(csv.reader(io.StringIO(out)))[1:]
    else:
        cells = [line.split() for line in out.splitlines()[1:]]
    want_rows = spec["max_n"] * (spec["max_d"] + 1)
    _expect(len(cells) == want_rows, f"table rows: got {len(cells)}, want {want_rows}")
    for row in cells:
        n, d, dim, excess = int(row[0]), int(row[1]), _half(row[2]), _half(row[3])
        want = dim_connected(n, d, spec["p"])
        _expect(dim == want and excess == want - Fraction(d, 2), f"table row {row}")


def _single_count(spec, out: str) -> int:
    fmt = spec.get("format", "text")
    if fmt == "json":
        return json.loads(out)["count"]
    if fmt == "csv":
        return int(list(csv.reader(io.StringIO(out)))[1][-1])
    return int(out)


def _check_as_count(spec, out: str):
    got = _single_count(spec, out)
    want = expected_as_count(spec["p"], spec["q"], spec["jump"])
    _expect(got == want, f"count: got {got}, want {want}")


def _check_tame(spec, out: str):
    got = _single_count(spec, out)
    _expect(got == spec["n"], f"count: got {got}, want {spec['n']}")


def _check_verify(spec, out: str):
    dim, counts = expected_verify(spec["p"], spec["n"], spec["d"], spec["qs"])
    fmt = spec["format"]
    if fmt == "json":
        obj = json.loads(out)
        got_dim, got_counts, ok = _ext_json(obj["predicted"]), obj["counts"], obj["ok"]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        got_counts = [int(r[1]) for r in rows]
        got_dim, ok = _half(rows[0][3]), all(r[4] == "true" for r in rows)
    else:
        got_dim = _half(re.search(r"^predicted = (\S+)$", out, re.M).group(1))
        got_counts = [int(c) for c in re.findall(r"^q=\d+: count=(\d+)", out, re.M)]
        ok = re.search(r"^ok = (\S+)$", out, re.M).group(1) == "true"
    _expect(got_dim == dim, f"predicted: got {got_dim}, want {dim}")
    _expect(list(got_counts) == counts, f"counts: got {got_counts}, want {counts}")
    _expect(ok is True, "ok is not true")


CHECKERS = {
    "classify": _check_classify,
    "sup": _check_sup,
    "strata": _check_strata,
    "dim": _check_dim,
    "table": _check_table,
    "as-count": _check_as_count,
    "verify": _check_verify,
    "tame": _check_tame,
}


def check(spec, rc, out: str, err: str):
    """None when the op's result is correct, else the reason it failed."""
    if spec["kind"] == "invalid":
        if rc != 2:
            return f"exit code {rc}, want 2"
        if not any(line.startswith("error:") for line in err.splitlines()):
            return "no error: line on stderr"
        return None
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    try:
        CHECKERS[spec["kind"]](spec, out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"
    return None
