"""Byte identity of the CLI: every argv in a fixed list must give the same
exit code, stdout and stderr as when `tests/data/cli_golden.json` was written.

The file stores one sha256 per argv.  A deliberate output change regenerates
it with `PYTHONPATH=src python tests/test_cli_golden.py` and names the change
in CHANGES.md.  Argparse's own usage errors are left out: their wrapping
follows the terminal width.
"""

import hashlib
import io
import json
from pathlib import Path

from permsing import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CHARACTERISTICS = ("0", "2", "3", "5")

# (degree, generators): the 7- and 8-point groups of test_group_invariants.py
GROUPS = (
    (8, "(1 2);(1 2 3 4);(5 6);(5 6 7 8)"),
    (8, "(1 2);(1 2 3 4);(5 6);(5 6 7 8);(1 5)(2 6)(3 7)(4 8)"),
    (8, "(1 2);(1 3)(2 4);(1 3 5 7)(2 4 6 8)"),
    (8, "(1 2);(1 2 3);(4 5);(4 5 6 7 8)"),
    (8, "(1 2 3);(2 3 4);(5 6 7);(6 7 8)"),
    (8, "(1 2)(3 4)(5 6)(7 8);(2 3 5 4 7 8 6)"),
    (7, "(1 2 3 4 5 6 7);(2 4 3 7 5 6)"),
    (7, "(1 2 3 4 5 6 7);(1 2)(3 6)"),
)

LONG_CYCLE = "(" + " ".join(map(str, range(1, 65))) + ")"


def classify_argv(n, p, fmt, *group):
    return ["classify", "--n", str(n), "--p", p, *group, "--format", fmt]


def argvs() -> list[list[str]]:
    """The fixed invocation list, about 900 argv."""
    presets = [(f"S{m}", m) for m in range(1, 9)]
    presets += [(f"A{m}", m) for m in range(1, 10)]
    presets += [(f"cyclic:{k}", k) for k in range(2, 9)]
    presets += [("klein4", 4), ("trivial", 1)]
    out = [
        classify_argv(n, p, fmt, "--group-name", name)
        for name, m in presets
        for n in (m, m + 2)
        for p in CHARACTERISTICS
        for fmt in ("text", "json")
    ]
    out += [
        classify_argv(n, p, fmt, "--group", text)
        for n, text in GROUPS
        for p in CHARACTERISTICS
        for fmt in ("text", "json")
    ]
    # over the order cap
    out += [
        classify_argv(n, "2", "text", "--group-name", name)
        for name, n in (("S9", 9), ("A10", 10), ("S10", 10), ("S9", 64), ("A10", 64))
    ]
    out += [classify_argv(64, p, "json", "--group", "(1 2);" + LONG_CYCLE) for p in ("2", "3")]
    # malformed, out-of-range and otherwise invalid input
    bad_groups = (
        "(1 5)", "(0 1)", "(1 2)(2 3)", "(1 2", "1 2", "()", "(1 2);(3 x)", "(1 2))",
        "(1,,2)", "", ";", "(1 2);", "(2)", "(1  2 , 3)(4)",
    )
    out += [classify_argv(4, "3", "text", "--group", text) for text in bad_groups]
    out += [
        classify_argv(n, p, "text", "--group-name", name)
        for name, n, p in (
            ("S5", 4, "2"), ("D4", 4, "2"), ("klein4", 3, "2"), ("cyclic:0", 3, "2"),
            ("A0", 3, "2"), ("S3", 3, "4"), ("S3", 3, "-3"), ("S2", 65, "2"), ("S2", 0, "2"),
            ("cyclic:5", 4, "2"), ("trivial", 64, "7"),
        )
    ]
    # the formula commands in every format they offer
    for fmt in ("text", "json"):
        out += [
            ["dim", "--n", str(n), "--d", str(d), "--p", p, "--format", fmt]
            for n in (1, 2, 3, 4, 6)
            for d in (0, 1, 3, 4, 9)
            for p in CHARACTERISTICS
        ]
        out += [
            ["sup", "--n", str(n), "--p", p, *flag, "--format", fmt]
            for n in (1, 2, 3, 4, 7, 40)
            for p in CHARACTERISTICS
            for flag in ((), ("--no-transposition",))
        ]
        out += [["oracle", "tame", "--q", q, "--n", n, "--format", fmt]
                for q, n in (("7", "3"), ("5", "2"), ("4", "3"), ("6", "2"), ("3", "0"))]
    for fmt in ("text", "json", "csv"):
        out += [
            ["strata", "--n", str(n), "--d", str(d), *opts, "--format", fmt]
            for n, d in ((2, 1), (3, 2), (4, 2), (4, 4))
            for opts in ((), ("--p", "2"), ("--p", "3", "--no-transposition"))
        ]
        out += [["oracle", "as-count", "--p", p, "--q", q, "--jump", j, "--format", fmt]
                for p, q, j in (("2", "2", "3"), ("2", "4", "3"), ("3", "3", "2"), ("2", "3", "1"))]
        out += [["oracle", "verify", "--p", p, "--n", n, "--d", d, "--q", q, "--format", fmt]
                for p, n, d, q in (("2", "2", "4", "2,4"), ("3", "3", "4", "3"), ("2", "2", "3", "x"))]
    out += [
        ["table", "--max-n", n, "--max-d", d, "--p", p, *csv]
        for n, d in (("4", "6"), ("2", "0"), ("0", "3"))
        for p in ("0", "2", "3")
        for csv in ((), ("--csv",))
    ]
    out += [
        ["strata", "--n", "2", "--d", "1", "--no-transposition"],
        ["strata", "--n", "20", "--d", "20"],
        ["sup", "--n", "100001", "--p", "2"],
        ["table", "--max-n", "1000", "--max-d", "1000", "--p", "2"],
        ["dim", "--n", "2", "--d", "1", "--p", "4"],
    ]
    return out


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_output_matches_golden_hashes():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == argvs(), "argv list changed; regenerate"
    for entry in golden:
        assert digest(entry["argv"]) == entry["sha256"], f"output differs for {entry['argv']}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    entries = [{"argv": argv, "sha256": digest(argv)} for argv in argvs()]
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"wrote {len(entries)} hashes to {GOLDEN}")
