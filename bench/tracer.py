"""Out-of-program tracing of kummerlat, one span per call of a public function.

The tracer wraps every public function and public method of every
kummerlat module at every place it is bound: module attributes (which
covers ``from .x import f`` bindings and ``linalg.f`` lookups alike)
and class attributes. Each call made while the tracer is enabled
records a span (name, start, end, parent span, operation id) in flat
arrays; self time is derived from the spans when the run ends.

Element-level helpers are counted, not spanned: a span per call of
``linalg.pair_with`` alone would mean millions of spans per operation,
and the span would cost more than the call.
"""

import gzip
import importlib
import inspect
import json
import pkgutil
from array import array
from collections import Counter
from time import perf_counter_ns

# Scalar and vector helpers called once per matrix entry, group element or
# candidate vector; their time stays in the caller's self time.
COUNT_ONLY = frozenset({
    "linalg.pair_with",
    "linalg.dot",
    "linalg.frac_mod",
    "linalg.lcm_all",
    "linalg.xgcd",
    "linalg.is_zero_row",
})


def _observers(differ):
    """Per-function hooks that turn a return value into extra counts."""

    def disc(counts, result):
        if result.profile is not None:
            counts["lattice.discriminant_form.profiled_elements"] += result.order

    def found(name):
        def hook(counts, result):
            counts[name + ".found"] += result is not None
        return hook

    def vectors(counts, result):
        counts["isometry.short_vectors.vectors"] += len(result)

    def genus(counts, result):
        counts["isometry.genus_equal.differ"] += result == differ

    return {
        "lattice.discriminant_form": disc,
        "isometry.find_isometry": found("isometry.find_isometry"),
        "isometry.find_hodge_isometry": found("isometry.find_hodge_isometry"),
        "isometry.short_vectors": vectors,
        "isometry.genus_equal": genus,
    }


class Tracer:
    """Span recorder for one process; install() patches, uninstall() restores."""

    def __init__(self, package):
        self.package = package
        self.modules = [
            importlib.import_module(package.__name__ + "." + info.name)
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.enabled = False
        self.op_id = -1
        self.names = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.stack = []
        self.counts = Counter()
        self.patches = []
        self.observers = _observers(importlib.import_module(package.__name__ + ".isometry").DIFFER)

    def _public_functions(self):
        """{function: traced name} over module functions and class methods."""
        found = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    found[obj] = short + "." + name
                elif inspect.isclass(obj):
                    for mname, method in vars(obj).items():
                        if not mname.startswith("_") and inspect.isfunction(method):
                            found[method] = short + "." + mname
        if len(set(found.values())) != len(found):
            raise RuntimeError("two public functions share a traced name")
        return found

    def _wrap(self, func, name):
        if name in COUNT_ONLY:
            counts = self.counts
            key = name + ".calls"

            def counted(*args, **kwargs):
                if self.enabled:
                    counts[key] += 1
                return func(*args, **kwargs)

            return counted

        nid = len(self.names)
        self.names.append(name)
        observe = self.observers.get(name)

        def spanned(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_op.append(self.op_id)
            self.span_end.append(0)
            self.stack.append(idx)
            self.span_start.append(perf_counter_ns())
            try:
                result = func(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter_ns()
                self.stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return spanned

    def install(self):
        wrappers = {f: self._wrap(f, name) for f, name in self._public_functions().items()}
        owners = [self.package] + self.modules
        owners += [obj for mod in self.modules for obj in vars(mod).values()
                   if inspect.isclass(obj) and obj.__module__.startswith(self.package.__name__)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(owner, attr, wrappers[value])
                    self.patches.append((owner, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self.patches):
            setattr(owner, attr, value)
        self.patches.clear()

    def layer_totals(self):
        """{name: {"calls": n, "self_s": s}} from the recorded spans."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        for i in range(len(starts)):
            dur = ends[i] - starts[i]
            calls[names[i]] += 1
            self_ns[names[i]] += dur
            if parents[i] >= 0:
                self_ns[names[parents[i]]] -= dur
        return {
            name: {"calls": calls[i], "self_s": self_ns[i] / 1e9}
            for i, name in enumerate(self.names) if calls[i]
        }

    def write(self, path):
        """Dump every span and count as gzipped JSON."""
        doc = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [list(s) for s in zip(self.span_name, self.span_start, self.span_end,
                                            self.span_parent, self.span_op)],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
