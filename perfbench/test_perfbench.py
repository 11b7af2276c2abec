"""Self-tests of the benchmark: seeded generation, the checker, the tracer."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(argv):
    import permsing.cli

    out, err = io.StringIO(), io.StringIO()
    rc = permsing.cli.run(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    first = workloads.generate(workload, 7, blocks=2)
    assert first == workloads.generate(workload, 7, blocks=2)
    assert first != workloads.generate(workload, 8, blocks=2)


def test_checker_accepts_program_output():
    for workload in workloads.WORKLOADS:
        for op in workloads.generate(workload, 3, blocks=1)[0]:
            if op["spec"].get("n", 0) > 16 or op["spec"]["kind"] in ("as-count", "verify", "tame"):
                continue  # keep the test fast; the oracles are covered below
            assert checks.check(op["spec"], *_run(op["argv"])) is None, op["argv"]


def test_flipped_verdict_fails():
    op = workloads.classify_op(4, 2, "json", name="S4")
    rc, out, err = _run(op["argv"])
    assert checks.check(op["spec"], rc, out, err) is None
    for key, value in [("canonical", "NOT_CERTIFIED"), ("pair_klt", "TRUE"), ("pair_lc", "UNKNOWN")]:
        report = json.loads(out)
        report[key] = value
        assert checks.check(op["spec"], rc, json.dumps(report), err) is not None, key


def test_off_by_one_count_fails():
    op = workloads.classify_op(4, 3, "text", name="S4")
    rc, out, err = _run(op["argv"])
    assert checks.check(op["spec"], rc, out, err) is None
    assert checks.check(op["spec"], rc, out.replace("group order 24", "group order 25"), err)
    assert checks.check(op["spec"], rc, out.replace("branch_components=1", "branch_components=2"), err)
    count = workloads.as_count_op(2, 4, 5, "text")
    assert checks.check(count["spec"], 0, "48\n", "") is None
    assert checks.check(count["spec"], 0, "49\n", "") is not None
    tame = workloads.tame_op(5, 3, "json")
    assert checks.check(tame["spec"], 0, json.dumps({"q": 5, "n": 3, "count": 4}), "") is not None
    strata = workloads.strata_op(4, 3, 2, "text")
    rc, out, err = _run(strata["argv"])
    assert checks.check(strata["spec"], rc, out, err) is None
    assert checks.check(strata["spec"], rc, "\n".join(out.splitlines()[1:]) + "\n", err)


def test_exit_code_one_fails():
    count = workloads.as_count_op(2, 4, 5, "text")
    assert checks.check(count["spec"], 1, "48\n", "") is not None
    bad = workloads.invalid_op(["classify", "--n", "4", "--p", "4", "--group-name", "A4"], "p = 4")
    assert checks.check(bad["spec"], 2, "", "error: characteristic must be 0 or prime\n") is None
    assert checks.check(bad["spec"], 1, "", "error: characteristic must be 0 or prime\n") is not None
    assert checks.check(bad["spec"], 2, "", "Traceback\n") is not None


def test_shape_count_matches_enumeration():
    from permsing import enumerate_strata

    for n in range(1, 7):
        for d in range(0, 8):
            assert checks.stratum_shape_count(n, d) == len(enumerate_strata(n, d)), (n, d)


def test_tracer_uninstall_restores_every_module():
    import permsing.cli

    def snapshot():
        seen = {}
        for name, mod in sys.modules.items():
            if name == "permsing" or name.startswith("permsing."):
                for attr, value in vars(mod).items():
                    seen[(name, attr)] = value
                    if isinstance(value, type) and value.__module__.startswith("permsing"):
                        for cattr, cvalue in vars(value).items():
                            seen[(name, attr, cattr)] = cvalue
        return seen

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert snapshot() != before
        _run(["classify", "--n", "4", "--p", "2", "--group-name", "S4"])
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert "cli.run" in names and len(names) > 1
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    count = len(tracer.spans)
    _run(["classify", "--n", "4", "--p", "2", "--group-name", "S4"])
    assert len(tracer.spans) == count
