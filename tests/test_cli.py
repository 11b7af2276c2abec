"""CLI behavior: output formats, determinism, schema conformance, exit codes."""

import csv
import io
import json
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from permsing import cli, oracle, primes


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def load_schema():
    text = (
        resources.files("permsing") / "schemas" / "classification_report.schema.json"
    ).read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# dim

def test_dim_text_examples():
    code, out, _ = run_cli(["dim", "--n", "2", "--d", "4", "--p", "2"])
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(["dim", "--n", "1", "--d", "0", "--p", "3"])
    assert code == 0 and out == "0\n"
    code, out, _ = run_cli(["dim", "--n", "2", "--d", "3", "--p", "5"])
    assert code == 0 and out == "-inf\n"


def test_dim_json():
    code, out, _ = run_cli(["dim", "--n", "2", "--d", "1", "--p", "0", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {
        "n": 2,
        "d": 1,
        "p": 0,
        "dim": {"finite": True, "value": {"num": 0, "den": 1}},
    }


# ---------------------------------------------------------------------------
# classify

def test_classify_json_known_case():
    # JSON is the default format for classify
    code, out, _ = run_cli(["classify", "--n", "2", "--p", "2", "--group", "(1 2)"])
    assert code == 0
    data = json.loads(out)
    assert data["canonical"] == "CERTIFIED"
    assert data["pair_klt"] == "FALSE"
    assert data["pair_lc"] == "TRUE"


def test_classify_json_validates_against_shipped_schema():
    schema = load_schema()
    for args in [
        ["classify", "--n", "2", "--p", "2", "--group", "(1 2)", "--format", "json"],
        ["classify", "--n", "4", "--p", "2", "--group-name", "A4", "--format", "json"],
        ["classify", "--n", "1", "--p", "0", "--group-name", "trivial", "--format", "json"],
        ["classify", "--n", "4", "--p", "3", "--group-name", "klein4", "--format", "json"],
        ["classify", "--n", "5", "--p", "5", "--group-name", "S5", "--format", "json"],
    ]:
        code, out, _ = run_cli(args)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_classify_text_contains_trace():
    code, out, _ = run_cli(
        ["classify", "--n", "3", "--p", "3", "--group-name", "cyclic:3", "--format", "text"]
    )
    assert code == 0
    assert "canonical = CERTIFIED" in out
    assert "pair_klt = TRUE" in out
    assert "trace:" in out
    assert "[rule:" in out


def test_classify_group_name_and_group_are_exclusive():
    code, _, _ = run_cli(
        ["classify", "--n", "2", "--p", "2", "--group", "(1 2)", "--group-name", "S2"]
    )
    assert code == 2
    code, _, _ = run_cli(["classify", "--n", "2", "--p", "2"])
    assert code == 2


def test_classify_every_trace_anchor_nonempty():
    code, out, _ = run_cli(
        ["classify", "--n", "4", "--p", "2", "--group-name", "S4", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["trace"]
    assert all(entry["anchor"] for entry in data["trace"])


# ---------------------------------------------------------------------------
# strata / sup / table

def test_strata_text():
    code, out, _ = run_cli(["strata", "--n", "3", "--d", "2"])
    assert code == 0
    assert out.splitlines() == ["nu=(3) delta=(2)", "nu=(2,1) delta=(2,0)"]


def test_strata_with_dimensions_and_refinement():
    code, out, _ = run_cli(
        ["strata", "--n", "4", "--d", "2", "--p", "0", "--no-transposition", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_nu = {row["nu"]: row for row in rows}
    assert by_nu["(2,1,1)"]["partition_sup"] == "-inf"  # forces a transposition
    assert by_nu["(2,1,1)"]["dim"] == "-inf"  # tame part 2 needs delta = 1
    assert by_nu["(2,2)"]["dim"] == "0" and by_nu["(2,2)"]["dim_minus_v"] == "-1"
    assert by_nu["(2,2)"]["partition_sup"] == "-1"
    assert by_nu["(3,1)"]["dim"] == "0"


def test_strata_no_transposition_requires_p():
    code, _, err = run_cli(["strata", "--n", "3", "--d", "2", "--no-transposition"])
    assert code == 2
    assert "requires --p" in err


def test_sup_text_and_json():
    code, out, _ = run_cli(["sup", "--n", "2", "--p", "2"])
    assert code == 0
    assert "sup = 0" in out and "limit_minus_infinity = false" in out
    code, out, _ = run_cli(["sup", "--n", "4", "--p", "2", "--no-transposition", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["sup"] == {"finite": True, "value": {"num": -1, "den": 1}}
    assert data["limit_minus_infinity"] is False


def test_sup_beyond_max_degree_exits_2(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("global_sup must not run for an out-of-range --n")

    monkeypatch.setattr(cli, "global_sup", unreachable)
    code, out, err = run_cli(["sup", "--n", "1000000000", "--p", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at most 100000" in err


@pytest.mark.parametrize(
    "argv, costly, limit",
    [
        (["classify", "--n", "1000000000", "--p", "2", "--group-name", "trivial"],
         (cli, "group_from_name"), "at most 64"),
        (["classify", "--n", "65", "--p", "2", "--group", "(1 2)"],
         (cli.PermutationGroup, "from_text"), "at most 64"),
        (["strata", "--n", "20", "--d", "13", "--p", "2", "--format", "json"],
         (cli, "enumerate_strata"), "at most 32"),
        (["table", "--max-n", "100001", "--max-d", "0", "--p", "2", "--csv"],
         (cli, "dim_connected"), "at most 100000"),
        (["table", "--max-n", "1000000000", "--max-d", "-5", "--p", "2"],
         (cli, "dim_connected"), "at most 100000"),
        (["dim", "--n", "2", "--d", "1", "--p", str(2**61 - 1)],
         (primes, "is_prime"), "at most 1000000000000"),
        (["oracle", "tame", "--q", "1000000007", "--n", "2"],
         (oracle, "factor_prime_power"), "q must be <= 81"),
    ],
    ids=["classify-name", "classify-group", "strata", "table", "table-empty-d", "dim-p", "tame-q"],
)
def test_size_beyond_cap_exits_2(monkeypatch, argv, costly, limit):
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{costly[1]} must not run for an out-of-range input")

    monkeypatch.setattr(*costly, unreachable)
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and limit in err


def test_sizes_at_cap_run():
    code, out, _ = run_cli(["classify", "--n", "64", "--p", "2", "--group-name", "klein4"])
    assert code == 0 and json.loads(out)["n"] == 64
    code, out, _ = run_cli(["strata", "--n", "1", "--d", "31"])
    assert code == 0 and out == "(no strata)\n"
    code, out, _ = run_cli(["table", "--max-n", "100000", "--max-d", "-1", "--p", "2", "--csv"])
    assert code == 0 and out == "n,d,dim,dim_minus_v\n"


def test_table_csv_reparses_with_nonpositive_excess():
    code, out, _ = run_cli(["table", "--max-n", "4", "--max-d", "12", "--p", "2", "--csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4 * 13
    for row in rows:
        if row["dim"] == "-inf":
            assert row["dim_minus_v"] == "-inf"
            continue
        excess = Fraction(row["dim_minus_v"])
        assert excess <= 0
        assert Fraction(row["dim"]) - Fraction(int(row["d"]), 2) == excess


# ---------------------------------------------------------------------------
# oracle subcommands

def test_oracle_as_count():
    code, out, _ = run_cli(["oracle", "as-count", "--p", "2", "--q", "4", "--jump", "3"])
    assert code == 0 and out == "12\n"
    code, out, _ = run_cli(
        ["oracle", "as-count", "--p", "3", "--q", "3", "--jump", "1", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == ["p,q,jump,count", "3,3,1,2"]


def test_oracle_verify():
    code, out, _ = run_cli(
        ["oracle", "verify", "--p", "2", "--n", "2", "--d", "4", "--q", "2,4"]
    )
    assert code == 0
    assert "predicted = 2" in out
    assert "q=2: count=2 measured=2" in out
    assert "q=4: count=12 measured=2" in out
    assert "ok = true" in out


def test_oracle_verify_json():
    code, out, _ = run_cli(
        ["oracle", "verify", "--p", "3", "--n", "3", "--d", "4", "--q", "3", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["counts"] == [2]
    assert data["predicted"] == {"finite": True, "value": {"num": 1, "den": 1}}


def test_oracle_tame():
    code, out, _ = run_cli(["oracle", "tame", "--q", "5", "--n", "2"])
    assert code == 0 and out == "2\n"


# ---------------------------------------------------------------------------
# exit codes and determinism

def test_unknown_command_exits_2():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_argparse_writes_to_the_callers_streams(capsys):
    code, out, err = run_cli(["dim", "--n", "x", "--d", "1", "--p", "2"])
    assert code == 2 and out == ""
    assert err.startswith("usage: permsing dim") and "invalid int value: 'x'" in err
    code, out, err = run_cli(["--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: permsing")
    assert capsys.readouterr() == ("", "")


def test_invalid_characteristic_exits_2():
    code, _, err = run_cli(["dim", "--n", "2", "--d", "1", "--p", "6"])
    assert code == 2
    assert "error" in err


def test_malformed_group_exits_2():
    code, _, err = run_cli(["classify", "--n", "2", "--p", "2", "--group", "(1 5)"])
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(["classify", "--n", "2", "--p", "2", "--group", "(1 2"])
    assert code == 2


def test_bad_oracle_q_list_exits_2():
    code, _, _ = run_cli(["oracle", "verify", "--p", "2", "--n", "2", "--d", "4", "--q", "2,x"])
    assert code == 2
    code, _, _ = run_cli(["oracle", "verify", "--p", "2", "--n", "2", "--d", "4", "--q", ""])
    assert code == 2


def test_oracle_verify_counts_each_distinct_q_once(monkeypatch):
    calls = []
    count = oracle.as_class_count

    def counted(p, q, jump):
        calls.append(q)
        return count(p, q, jump)

    monkeypatch.setattr(oracle, "as_class_count", counted)
    argv = ["oracle", "verify", "--p", "2", "--n", "2", "--d", "6", "--q"]
    start = time.perf_counter()
    code, out, _ = run_cli(argv + [",".join(["8", "2"] * 500)])
    elapsed = time.perf_counter() - start
    assert code == 0 and calls == [8, 2]
    assert out.splitlines()[1:3] == ["q=8: count=448 measured=3", "q=2: count=4 measured=3"]
    assert len(out.splitlines()) == 1002
    assert elapsed < 2.0


def test_oracle_beyond_desk_scale_exits_2():
    code, _, err = run_cli(["oracle", "verify", "--p", "2", "--n", "2", "--d", "12", "--q", "2"])
    assert code == 2 and "error" in err
    code, _, err = run_cli(["oracle", "as-count", "--p", "2", "--q", "64", "--jump", "9"])
    assert code == 2 and "desk scale" in err


def test_byte_identical_reruns():
    for argv in [
        ["classify", "--n", "4", "--p", "2", "--group-name", "S4", "--format", "json"],
        ["table", "--max-n", "3", "--max-d", "8", "--p", "3", "--csv"],
        ["strata", "--n", "5", "--d", "4", "--p", "2", "--format", "json"],
        ["sup", "--n", "6", "--p", "3", "--no-transposition"],
    ]:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0
