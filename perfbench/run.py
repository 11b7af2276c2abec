"""permsing benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload large_groups --seed 1 --seconds 25 --trace 0

Workloads (workloads.py generates their argv from the seed):

* large_groups    - classify at n = 7..8; the perm layer does most of the work;
* wide_degree     - small groups at n = 14..24 and the sup/strata listings;
                    strata.global_sup does most of the work;
* oracle_validate - the finite-field oracles (as-count, verify, tame);
* cli_cold        - one fresh `python -m permsing` per op, about 10% invalid.

The load is a closed loop with one client and one op in flight.  For the
first three workloads an op is one `permsing.cli.run(argv)` call in a
long-lived worker process; for cli_cold it is one fresh process.  Every
output is checked outside the timed region by checks.py; an op fails on a
wrong exit code, a crash or output that fails its check.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 it carries the per-layer metrics: the run first does the blocks
untraced for half the time, then the same blocks under the tracer, and
reports per-layer numbers per op of the traced phase.  Each run writes a
results file under perfbench/results/ with provenance, the generated argv,
the per-op values and the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from tracing import SPANS_MARK, layer_totals
from worker import run_blocks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
PY = sys.executable
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPS = 12
PROCESS_REPS = 5
WORKER_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 60
REF_CLI = {
    "CLI classify S8": ["classify", "--n", "8", "--p", "2", "--group-name", "S8"],
    "CLI classify A4": ["classify", "--n", "4", "--p", "2", "--group-name", "A4"],
}
KNOWN_DEFECT_PROBES = {
    # |A9| = 181440 is under the 200000 order cap, yet A9 is rejected
    "classify A9": ["classify", "--n", "9", "--p", "2", "--group-name", "A9"],
}
KNOWN_DEFECTS_NOT_RUN = {
    "classify --n 1000000000": "would allocate a 10^9-entry identity tuple",
    "table --max-n/--max-d and strata --n/--d": "unbounded sizes",
}

E2E_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (unit, span name, field of tracing.layer_totals); the
# times and counts are per op of the traced phase
LAYER_METRICS = {
    "perm.parse_ms": ("ms/op", "perm.parse", "ns"),
    "perm.parse_calls": ("count/op", "perm.parse", "calls"),
    "perm.build_ms": ("ms/op", "perm.build", "ns"),
    "perm.build_calls": ("count/op", "perm.build", "calls"),
    "perm.group_order_sum": ("count/op", "perm.build", "order"),
    "perm.has_transposition_ms": ("ms/op", "perm.has_transposition", "ns"),
    "perm.gorenstein_ms": ("ms/op", "perm.gorenstein", "ns"),
    "perm.branch_components_ms": ("ms/op", "perm.branch_components", "ns"),
    "classify.classify_ms": ("ms/op", "classify.classify", "ns"),
    "classify.self_ms": ("ms/op", "classify.classify", "self_ns"),
    "classify.certify_tf_calls": ("count/op", "classify.certify_tf", "calls"),
    "strata.global_sup_ms": ("ms/op", "strata.global_sup", "ns"),
    "strata.global_sup_calls": ("count/op", "strata.global_sup", "calls"),
    "strata.partitions_scanned": ("count/op", "strata.global_sup", "partitions"),
    "strata.enumerate_strata_ms": ("ms/op", "strata.enumerate_strata", "ns"),
    "strata.shapes_listed": ("count/op", "strata.enumerate_strata", "shapes"),
    "gf.field_build_ms": ("ms/op", "gf.field_build", "ns"),
    "gf.field_build_calls": ("count/op", "gf.field_build", "calls"),
    "gf.field_elements_sum": ("count/op", "gf.field_build", "q"),
    "oracle.as_quotient_build_ms": ("ms/op", "oracle.as_quotient_build", "ns"),
    "oracle.enumerate_ms": ("ms/op", "oracle.enumerate", "ns"),
    "oracle.parts_enumerated": ("count/op", "oracle.enumerate", "parts"),
    "oracle.tame_ms": ("ms/op", "oracle.tame", "ns"),
    "cli.run_ms": ("ms/op", "cli.run", "ns"),
    "cli.self_ms": ("ms/op", "cli.run", "self_ns"),
    "cli.output_bytes": ("B/op", None, None),
    "process.interpreter_ms": ("ms", None, None),
    "process.import_ms": ("ms", None, None),
    "process.command_ms": ("ms", None, None),
    "trace.overhead_pct": ("%", None, None),
}
# the shares the workload design predicts, checked on every traced run
DESIGN = {
    "large_groups": [("perm_plus_classify_self", ">", 0.5)],
    "wide_degree": [("perm_plus_classify_self", "<", 0.1), ("global_sup", ">", 0.5)],
    "oracle_validate": [("oracle_plus_gf", ">", 0.8)],
    "cli_cold": [("interpreter_plus_import_of_p50", ">", 0.5)],
}


def _env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class BenchError(Exception):
    pass


def _worker(request, on_record):
    """Run worker.py on one request, handing each JSON line it prints to on_record."""
    proc = subprocess.Popen(
        [PY, str(ROOT / "perfbench" / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(request))
        proc.stdin.close()
        for line in proc.stdout:
            on_record(json.loads(line))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker ({request['mode']}) exited with code {code}")


def _child(cmd):
    """Run one process; returns (exit code, stdout, stderr, seconds, peak RSS in kB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - t0
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out.decode(), err[0].decode(), elapsed, usage.ru_maxrss


def measure_setup(warm=True):
    """Import time of permsing in fresh workers, SETUP_REPS samples.  A run
    takes half before and half after its ops, to sample the machine twice."""
    samples = []
    if warm:
        _worker({"mode": "setup"}, lambda r: None)  # writes the bytecode caches first
    for _ in range(SETUP_REPS // 2):
        _worker({"mode": "setup"}, lambda r: samples.append(r["import_s"]))
    return samples


def _probe_process(samples):
    samples["bare_ms"].append(_child([PY, "-c", "pass"])[3] * 1000)
    samples["import_wall_ms"].append(_child([PY, "-c", "import permsing.cli"])[3] * 1000)


def measure_process():
    """Bare interpreter start and `import permsing.cli`, wall time from outside."""
    samples = {"bare_ms": [], "import_wall_ms": []}
    for _ in range(PROCESS_REPS):
        _probe_process(samples)
    return samples


class Recorder:
    """Op records.  Each distinct output is kept once and checked once, so a
    long run that repeats its blocks holds and checks only a few outputs."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.records = []
        self._outputs = {}

    def add(self, phase, b, slot, rc, seconds, out, err):
        key = (b % len(self.blocks), slot, rc, out, err)
        self.records.append({"phase": phase, "block": b, "slot": slot, "rc": rc, "s": seconds,
                             "out_bytes": len(out.encode()),
                             "output": self._outputs.setdefault(key, len(self._outputs))})

    def check(self):
        """Fill in each record's failure (None when correct); returns the failures."""
        from checks import check

        verdicts = {idx: check(self.blocks[b][slot]["spec"], rc, out, err)
                    for (b, slot, rc, out, err), idx in self._outputs.items()}
        failures = []
        for r in self.records:
            r["failure"] = verdicts[r.pop("output")]
            if r["failure"]:
                argv = self.blocks[r["block"] % len(self.blocks)][r["slot"]]["argv"]
                failures.append({"argv": argv, "reason": r["failure"]})
        return failures


def _argv_blocks(blocks):
    return [[op["argv"] for op in block] for block in blocks]


def run_in_process(blocks, seconds, trace):
    """Ops in one long-lived worker.  Returns (recorder, end record)."""
    rec, end = Recorder(blocks), {}
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f".ops-{os.getpid()}.jsonl"
    request = {"mode": "ops", "blocks": _argv_blocks(blocks), "seconds": seconds,
               "min_ops": MIN_OPS, "trace": bool(trace), "records_path": str(path)}
    try:
        _worker(request, end.update)
        last = {}
        with open(path) as fh:
            for line in fh:
                r = json.loads(line)
                key = (r["block"] % len(blocks), r["slot"])
                if "out" in r:
                    last[key] = (r["out"], r["err"])
                rec.add(r["phase"], r["block"], r["slot"], r["rc"], r["s"], *last[key])
    finally:
        path.unlink(missing_ok=True)
    return rec, end


def run_cold(blocks, seconds, trace):
    """One fresh process per op.  Returns (recorder, end record)."""
    rec, spans, peak = Recorder(blocks), [], [0]

    def one(phase):
        def run_one(b, slot, argv):
            if phase == 0:
                cmd = [PY, "-m", "permsing", *argv]
            else:
                cmd = [PY, str(ROOT / "perfbench" / "tracing.py"), *argv]
            rc, out, err, elapsed, rss = _child(cmd)
            peak[0] = max(peak[0], rss)
            head, mark, payload = err.rpartition("\n" + SPANS_MARK)
            if mark:  # a traced child that got as far as writing its spans
                err, base = head, len(spans)
                for span in json.loads(payload):
                    span[3] = span[3] + base if span[3] >= 0 else -1
                    span[4] = (b, slot)
                    spans.append(span)
            rec.add(phase, b, slot, rc, elapsed, out, err)
        return run_one

    if not trace:
        run_blocks(_argv_blocks(blocks), one(0), seconds=seconds, min_ops=MIN_OPS)
        return rec, {"peak_rss_kb": peak[0]}
    # interpreter start and import are probed between the untraced blocks,
    # so that they see the machine as the ops do
    process = {"bare_ms": [], "import_wall_ms": []}
    done = run_blocks(_argv_blocks(blocks), one(0), seconds=seconds / 2, min_ops=len(blocks[0]),
                      after_block=lambda: _probe_process(process))
    run_blocks(_argv_blocks(blocks), one(1), n_blocks=done)
    return rec, {"spans": spans, "missing": [], "process": process}


def run_refs():
    """Baseline reference rows and known-defect probes, each run once."""
    found = {}
    _worker({"mode": "refs", "probes": KNOWN_DEFECT_PROBES}, found.update)
    refs = found["refs"]
    refs["bare interpreter start"] = {"ms": _child([PY, "-c", "pass"])[3] * 1000}
    for name, argv in REF_CLI.items():
        rc, _, _, elapsed, _ = _child([PY, "-m", "permsing", *argv])
        refs[name] = {"ms": elapsed * 1000, "rc": rc}
    return refs, {"probed": found["probes"], "named_not_run": KNOWN_DEFECTS_NOT_RUN}


def quantile(values, q):
    """Quantile by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args):
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        # measured by --trace 1 runs only
        "trace_overhead_pct": None,
    }


def end_to_end(records, setup, end):
    times = [r["s"] for r in records]
    correct = sum(1 for r in records if not r["failure"])
    return {
        "throughput_ops_s": correct / sum(times),
        "latency_p50_ms": statistics.median(times) * 1000,
        "latency_p90_ms": quantile(times, 0.9) * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": end["peak_rss_kb"] / 1024,
    }


def per_layer(records, end, process, workload):
    untraced = [r for r in records if r["phase"] == 0]
    traced = [r for r in records if r["phase"] == 1]
    n = len(traced)
    totals = layer_totals(end["spans"])
    metrics = {}
    for name, (_, span, field) in LAYER_METRICS.items():
        if span is not None:
            value = totals.get(span, {}).get(field, 0)
            metrics[name] = value / n / (1e6 if field in ("ns", "self_ns") else 1)
    metrics["cli.output_bytes"] = sum(r["out_bytes"] for r in traced) / n
    interp = statistics.median(process["bare_ms"])
    imp = statistics.median(process["import_wall_ms"]) - interp
    p50 = statistics.median(r["s"] for r in untraced) * 1000
    metrics["process.interpreter_ms"] = interp
    metrics["process.import_ms"] = imp
    metrics["process.command_ms"] = p50 - (interp + imp if workload == "cli_cold" else 0)
    untraced_thr = len(untraced) / sum(r["s"] for r in untraced)
    traced_thr = n / sum(r["s"] for r in traced)
    metrics["trace.overhead_pct"] = (1 - traced_thr / untraced_thr) * 100

    run_ns = totals.get("cli.run", {}).get("ns", 0) or 1
    layer_self = {}
    for span, entry in totals.items():
        layer = span.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + entry["self_ns"]
    classify_self = totals.get("classify.classify", {}).get("self_ns", 0)
    shares = {
        "perm_plus_classify_self": (layer_self.get("perm", 0) + classify_self) / run_ns,
        "global_sup": totals.get("strata.global_sup", {}).get("ns", 0) / run_ns,
        "oracle_plus_gf": (layer_self.get("oracle", 0) + layer_self.get("gf", 0)) / run_ns,
        "interpreter_plus_import_of_p50": (interp + imp) / p50,
    }
    design = []
    for share, op, bound in DESIGN[workload]:
        ok = shares[share] > bound if op == ">" else shares[share] < bound
        design.append({"share": share, "expect": f"{op} {bound}", "value": shares[share],
                       "met": ok})
    layer_self_ms = {k: v / n / 1e6 for k, v in sorted(layer_self.items())}
    return metrics, {"layer_self_ms_per_op": layer_self_ms, "shares": shares, "design_checks": design}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "permsing" / "__init__.py").is_file():
        print(f"error: no permsing sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    t_start = perf_counter()
    blocks = workloads.generate(args.workload, args.seed)
    t_generated = perf_counter()
    setup = measure_setup()
    runner = run_cold if args.workload == "cli_cold" else run_in_process
    rec, end = runner(blocks, args.seconds, args.trace)
    setup += measure_setup(warm=False)
    t_ran = perf_counter()
    failures = rec.check()
    records = rec.records
    t_checked = perf_counter()

    result = {
        "provenance": provenance(args),
        "argv": _argv_blocks(blocks),
        "setup_s_samples": setup,
        "ops": records,
        "attempted": len(records),
        "failed": len(failures),
        "error_rate": len(failures) / len(records),
        "failures": failures[:20],
        "bench_seconds": {"generate": t_generated - t_start, "run": t_ran - t_generated,
                          "check": t_checked - t_ran},
    }
    if args.trace:
        process = end.get("process") or measure_process()
        metrics, layers = per_layer(records, end, process, args.workload)
        refs, defects = run_refs()
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        result["provenance"]["trace_overhead_pct"] = metrics["trace.overhead_pct"]
        result.update(process=process, per_layer=metrics, **layers, missing_trace_targets=end["missing"],
                      reference_points=refs, known_defects=defects)
    else:
        metrics = end_to_end(records, setup, end)
        units = E2E_UNITS
        result["end_to_end"] = metrics
    result["medians"] = {
        "latency_ms": statistics.median(r["s"] for r in records) * 1000,
        "setup_s": statistics.median(setup),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {len(records)}  trace {args.trace}  "
          f"results {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(f"  {'error_rate':32s} {result['error_rate']:14.6f} ratio ({len(failures)} of {len(records)})")
    if args.trace:
        for check in layers["design_checks"]:
            print(f"  design: {check['share']} = {check['value']:.3f} (expect {check['expect']}): "
                  f"{'met' if check['met'] else 'MISSED'}")
    for failure in failures[:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
