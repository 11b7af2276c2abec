"""Span tracing from outside the program.

`Tracer.install()` replaces public functions of the permsing modules with
wrappers that record a span per call; `uninstall()` puts the originals back.
A span is [name, start_ns, end_ns, parent index, op id, attrs], kept in
memory and handed over when the run ends.  A target the program no longer
has is skipped and listed in `missing`, so the benchmark keeps running when
a layer is refactored.

Run as a script, this module is the traced form of `python -m permsing`:
it installs the tracer, runs one CLI invocation and appends the spans to
stderr after a marker line.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

SPANS_MARK = "PERFBENCH-SPANS "


def _order(span, args, kwargs, result):
    span[5]["order"] = result.order


@functools.lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def _partitions(span, args, kwargs, result):
    # computed, not counted: global_sup scans every partition of n
    span[5]["partitions"] = partition_count(args[0] if args else kwargs["n"])


def _shapes(span, args, kwargs, result):
    span[5]["shapes"] = len(result)


def _field_size(span, args, kwargs, result):
    span[5]["q"] = args[0].q


def _parts(span, args, kwargs, result):
    span[5]["parts"] = args[0].q ** (args[1] if len(args) > 1 else kwargs["jump"])


# (module, attribute or Class.attribute, span name, counter)
TARGETS = [
    ("permsing.cli", "run", "cli.run", None),
    ("permsing.perm", "parse_permutation", "perm.parse", None),
    ("permsing.perm", "group_from_name", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.from_text", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.from_generators", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.symmetric", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.alternating", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.cyclic", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.klein_four", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.trivial", "perm.build", _order),
    ("permsing.perm", "PermutationGroup.has_transposition", "perm.has_transposition", None),
    ("permsing.perm", "gorenstein_report", "perm.gorenstein", None),
    ("permsing.perm", "branch_components", "perm.branch_components", None),
    ("permsing.classify", "classify", "classify.classify", None),
    ("permsing.classify", "certify_canonical_no_transposition", "classify.certify_tf", None),
    ("permsing.strata", "global_sup", "strata.global_sup", _partitions),
    ("permsing.strata", "enumerate_strata", "strata.enumerate_strata", _shapes),
    ("permsing.gf", "GF.__init__", "gf.field_build", _field_size),
    ("permsing.oracle", "ASQuotient.__init__", "oracle.as_quotient_build", None),
    ("permsing.oracle", "ASQuotient.count_classes_exact_pole", "oracle.enumerate", _parts),
    ("permsing.oracle", "ASQuotient.count_classes_reduced_order", "oracle.enumerate", _parts),
    ("permsing.oracle", "tame_totally_ramified_count", "oracle.tame", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                try:
                    counter(span, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # the program changed shape; the count is left out
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for module_name, path, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, counter)))
                elif isinstance(raw, property):
                    wrapped = self._wrap(raw.fget, name, counter)
                    self._patch(cls, attr, property(wrapped, raw.fset, raw.fdel, raw.__doc__))
                elif callable(raw):
                    self._patch(cls, attr, self._wrap(raw, name, counter))
                else:
                    self.missing.append(f"{module_name}.{path}")
                continue
            original = getattr(module, path, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, name, counter)
            # rebind every `from .x import f` copy inside the package too
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "permsing" or mod_name.startswith("permsing."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def layer_totals(spans):
    """Per span name: outermost time, self time, calls and summed counters (ns)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    totals: dict[str, dict] = {}
    for idx, span in enumerate(spans):
        name, dur = span[0], span[2] - span[1]
        entry = totals.setdefault(name, {"ns": 0, "self_ns": 0, "calls": 0})
        entry["self_ns"] += dur - child_ns[idx]
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # outermost span of its name: count it once
            entry["ns"] += dur
            entry["calls"] += 1
            for key, value in span[5].items():
                entry[key] = entry.get(key, 0) + value
    return totals


def _main(argv):
    import permsing.cli

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code = permsing.cli.run(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write("\n" + SPANS_MARK + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
