"""Property tests of the CLI over random argv from the subcommand grammar.

Sizes are drawn both small (inside every cap, and cheap enough to run many
examples) and at or far beyond the caps.  Whatever the input, the exit code is
0 or 2 (1 would be an internal fault), a rejection writes nothing to stdout,
every JSON output parses, and classify's JSON validates against the shipped
schema.
"""

import io
import json
from importlib import resources

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from permsing import cli

SCHEMA = json.loads(
    (resources.files("permsing") / "schemas" / "classification_report.schema.json").read_text()
)

BEYOND = [33, 65, 100_001, 10**9, 10**18]
CHARACTERISTICS = st.sampled_from(
    [0, 2, 3, 5, 7, 11, 999_999_999_989, 4, 1, -3, 10**12 + 39, 2**61 - 1]
)
BAD_FIELDS = [0, 1, 6, 243, 10**9 + 7]


def sizes(small):
    """Mostly 1..small; otherwise non-positive, or at or far beyond the caps."""
    return st.integers(-1, small + len(BEYOND)).map(
        lambda k: k if k <= small else BEYOND[k - small - 1]
    )


def num(strategy):
    return strategy.map(str)


def formats(*choices):
    """A --format flag from `choices`, an invalid one, or none at all."""
    return st.sampled_from([["--format", c] for c in choices] + [["--format", "xml"], []])


def flag(name):
    return st.sampled_from([[], [name]])


def cycles(max_entry):
    """";"-separated products of cycles, some malformed (repeated entries)."""
    cycle = st.lists(st.integers(1, max_entry), min_size=1, max_size=4)
    perm = st.lists(cycle, max_size=2).map(
        lambda cs: "".join("(" + " ".join(map(str, c)) + ")" for c in cs)
    )
    return st.lists(perm, min_size=1, max_size=3).map(";".join)


PRESETS = st.one_of(
    st.builds("{}{}".format, st.sampled_from("SA"), st.integers(1, 6) | st.sampled_from([0, 10, 100])),
    st.builds("cyclic:{}".format, st.integers(0, 8)),
    st.sampled_from(["klein4", "trivial", "D4", ""]),
)

CLASSIFY = st.tuples(
    st.just(["classify"]),
    st.tuples(st.just("--n"), num(sizes(8))),
    st.tuples(st.just("--p"), num(CHARACTERISTICS)),
    st.one_of(
        st.tuples(st.just("--group-name"), PRESETS),
        st.tuples(st.just("--group"), cycles(5)),
    ),
    formats("text", "json"),
)
DIM = st.tuples(
    st.just(["dim"]),
    st.tuples(st.just("--n"), num(sizes(8))),
    st.tuples(st.just("--d"), num(sizes(12))),
    st.tuples(st.just("--p"), num(CHARACTERISTICS)),
    formats("text", "json"),
)
STRATA = st.tuples(
    st.just(["strata"]),
    st.tuples(st.just("--n"), num(sizes(8))),
    st.tuples(st.just("--d"), num(sizes(8))),
    st.one_of(st.just(()), st.tuples(st.just("--p"), num(CHARACTERISTICS))),
    flag("--no-transposition"),
    formats("text", "json", "csv"),
)
SUP = st.tuples(
    st.just(["sup"]),
    st.tuples(st.just("--n"), num(sizes(30))),
    st.tuples(st.just("--p"), num(CHARACTERISTICS)),
    flag("--no-transposition"),
    formats("text", "json"),
)
TABLE = st.tuples(
    st.just(["table"]),
    st.tuples(st.just("--max-n"), num(sizes(6))),
    st.tuples(st.just("--max-d"), num(sizes(10))),
    st.tuples(st.just("--p"), num(CHARACTERISTICS)),
    flag("--csv"),
)
# (p, q, jump or degree): mostly within desk scale, otherwise out of range
AS_COUNT = st.tuples(
    st.just(["oracle", "as-count"]),
    st.one_of(
        st.tuples(st.sampled_from([2, 3]), st.sampled_from([2, 3, 4, 8, 9]), st.integers(1, 4)),
        st.tuples(st.sampled_from([2, 5, -1]), st.sampled_from(BAD_FIELDS), st.sampled_from([-1, 0, 10, 10**9])),
    ).map(lambda pqj: ("--p", str(pqj[0]), "--q", str(pqj[1]), "--jump", str(pqj[2]))),
    formats("text", "json", "csv"),
)
VERIFY = st.tuples(
    st.just(["oracle", "verify"]),
    st.one_of(
        st.tuples(st.just(2), st.just(2), st.integers(2, 6), st.sampled_from(["2", "4", "2,4"])),
        st.tuples(st.just(3), st.just(3), st.sampled_from([4, 6]), st.sampled_from(["3", "9", "3,9"])),
        st.tuples(
            st.sampled_from([2, 3, 5]),
            st.sampled_from([-1, 1, 4, 10**9]),
            st.sampled_from([-1, 0, 10**9]),
            st.lists(st.sampled_from([str(q) for q in BAD_FIELDS] + ["x", ""]), max_size=3).map(",".join),
        ),
    ).map(lambda pndq: ("--p", str(pndq[0]), "--n", str(pndq[1]), "--d", str(pndq[2]), "--q", pndq[3])),
    formats("text", "json", "csv"),
)
TAME = st.tuples(
    st.just(["oracle", "tame"]),
    st.one_of(
        st.tuples(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(1, 5)),
        st.tuples(st.sampled_from(BAD_FIELDS), st.sampled_from([-1, 0, 10, 10**9])),
    ).map(lambda qn: ("--q", str(qn[0]), "--n", str(qn[1]))),
    formats("text", "json"),
)
ARGV = st.one_of(CLASSIFY, DIM, STRATA, SUP, TABLE, AS_COUNT, VERIFY, TAME).map(
    lambda parts: [token for part in parts for token in part]
)


@settings(max_examples=400, deadline=None)
@given(ARGV)
def test_random_argv_exits_0_or_2_and_json_parses(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("usage:", "error:"))
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if argv[0] == "classify" and fmt in ("json", None):
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)
    elif fmt == "json":
        json.loads(out.getvalue())
