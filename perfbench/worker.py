"""Long-lived worker: runs ops in-process with `permsing.cli.run`.

It reads one JSON request on stdin and answers with JSON lines on stdout.
Modes:

* "setup": import permsing.cli and report how long the import took;
* "ops": run the blocks of argv in a closed loop, one op in flight, and
  write one record per op to the file the request names; with "trace",
  first run an untraced phase, then the same blocks again under the tracer;
* "refs": time the baseline reference calls once each and probe the known
  defects.

The worker imports permsing from the checkout's `src` and nothing from the
benchmark's checker, so its peak resident memory is the program's.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def run_blocks(blocks, run_one, *, seconds=None, min_ops=0, n_blocks=None, after_block=None):
    """Run whole blocks in order until `n_blocks` are done or, without it,
    until `seconds` have passed and at least `min_ops` ops have run.
    `after_block` runs between blocks, outside the op timings.
    Returns the number of blocks run."""
    start, ops, b = perf_counter(), 0, 0
    while True:
        for slot, argv in enumerate(blocks[b % len(blocks)]):
            run_one(b, slot, argv)
            ops += 1
        if after_block is not None:
            after_block()
        b += 1
        if n_blocks is not None:
            if b >= n_blocks:
                return b
        elif perf_counter() - start >= seconds and ops >= min_ops:
            return b


def _import_cli():
    t0 = perf_counter()
    import permsing.cli

    elapsed = perf_counter() - t0
    source = Path(permsing.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"permsing was imported from {source}, not from the checkout")
    return permsing.cli, elapsed


def _ops(request):
    cli, _ = _import_cli()
    blocks = request["blocks"]
    # Records go to a file, not a pipe, so that the parent stays idle while
    # ops run; an output already written for the same op is not repeated.
    log = open(request["records_path"], "w")
    written = {}

    def run_one(phase):
        def one(b, slot, argv):
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                rc = cli.run(argv, out=out, err=err)
            except Exception:  # a crash is recorded as a failed op
                rc = None
                err.write(traceback.format_exc())
            elapsed = perf_counter() - t0
            record = {"phase": phase, "block": b, "slot": slot, "rc": rc, "s": elapsed}
            output = (rc, out.getvalue(), err.getvalue())
            key = (b % len(blocks), slot)
            if written.get(key) != hash(output):
                written[key] = hash(output)
                record.update(out=output[1], err=output[2])
            log.write(json.dumps(record) + "\n")
        return one

    seconds = request["seconds"]
    with log:
        if not request["trace"]:
            run_blocks(blocks, run_one(0), seconds=seconds, min_ops=request["min_ops"])
            emit({"type": "end", "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return
        from tracing import Tracer

        done = run_blocks(blocks, run_one(0), seconds=seconds / 2, min_ops=len(blocks[0]))
        tracer = Tracer()
        traced = run_one(1)

        def one(b, slot, argv):
            tracer.op = (b, slot)
            traced(b, slot, argv)

        tracer.install()
        try:
            run_blocks(blocks, one, n_blocks=done)
        finally:
            tracer.uninstall()
    emit({"type": "end", "spans": tracer.spans, "missing": tracer.missing})


def _timed(call):
    t0 = perf_counter()
    try:
        value = call()
    except Exception as exc:  # the API moved; record it and go on
        return {"error": repr(exc)}
    return {"ms": (perf_counter() - t0) * 1000, "result": repr(value)[:200]}


def _refs(request):
    cli, _ = _import_cli()
    import permsing

    refs = {
        "classify(S8, p=2)": lambda: permsing.classify(permsing.group_from_name("S8", 8), 2).canonical,
        "global_sup(40, 2, True)": lambda: permsing.global_sup(40, 2, True).sup,
        "as_class_count(2, 4, 9)": lambda: permsing.as_class_count(2, 4, 9),
        "as_class_count(3, 9, 5)": lambda: permsing.as_class_count(3, 9, 5),
    }
    emit({"type": "refs", "refs": {name: _timed(call) for name, call in refs.items()}})
    probes = {}
    for name, argv in request["probes"].items():
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        rc = cli.run(argv, out=out, err=err)
        probes[name] = {"argv": argv, "rc": rc, "ms": (perf_counter() - t0) * 1000,
                        "stderr": err.getvalue().strip()[:300], "stdout_bytes": len(out.getvalue())}
    emit({"type": "probes", "probes": probes})


def main():
    request = json.loads(sys.stdin.read())
    mode = request["mode"]
    if mode == "setup":
        emit({"type": "setup", "import_s": _import_cli()[1]})
    elif mode == "ops":
        _ops(request)
    elif mode == "refs":
        _refs(request)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
