"""kummerlat benchmark: three workloads, checked verdicts, a traced per-module run.

Run from the repository root:

    python3 bench/run.py --workload example43|tequiv|classify \
        --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next operation starts when the
previous one has returned, and no threads are started. The seed makes
the inputs; the program receives only the generated inputs.

A run sets up once (import of kummerlat from ./src, input generation,
spec files), then runs whole passes of the workload while the longest
pass so far still fits in ``--seconds`` of busy time; no operation
starts after twice that wall time, and an interval timer stops any
operation that runs past its workload's ``limit_s`` (a failure). Every
operation's verdict is checked against the known answer after its timer
stops (see workloads.py).
``--trace 0`` also times SETUPS more set-ups, each in a child process,
spread over the measured phase, and reports their median as ``setup_s``.
End-to-end times are reference seconds (clock.py): wall time scaled by
the speed of the core while the operation ran, as a reference loop
measures it, so that load from other tenants of the host cancels out.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run measures half the time untraced, then runs
the very same operations again with every public kummerlat function
wrapped (tracer.py); it prints calls and self time of every function
called, the last line carries the per-layer metrics of the traced half
and ``trace.overhead_ratio``, and all spans are written to
``.bench_out/trace-<workload>-<seed>.json.gz``.

The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts operations that raised,
hit their limit or missed their known answer; ``ops_per_s`` counts only
the others. ``correct`` is false when any operation's output was
unsound (a false refutation or verification, a witness that does not
re-check, or report bytes that differ from the golden digest), or when
more operations failed than the workload's ``max_failed_share`` allows.
A verdict left undecided where the known answer expects one (such as a
definite conjugate pair without a witness) is a failure, not unsound.
The per-layer metric names and units are read from BENCHMARK.json.
"""

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter

from clock import Clock
from tracer import Tracer
from workloads import WORKLOADS, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MODULES = ("lattice", "linalg", "hodge", "brauer", "isometry", "kummer",
           "construction", "specdoc", "cli", "report")
SETUPS = 9
TAIL_BEYOND = 10


def per_layer_metrics():
    """(name, unit) of the per-layer metrics, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def fresh_import():
    """Import kummerlat and its modules anew, as a new process would."""
    for name in [m for m in sys.modules if m == "kummerlat" or m.startswith("kummerlat.")]:
        del sys.modules[name]
    package = importlib.import_module("kummerlat")
    mods = {m: importlib.import_module("kummerlat." + m) for m in MODULES}
    return types.SimpleNamespace(package=package, **mods)


def set_up(workload_cls, seed, workdir):
    """Import kummerlat and build the workload's inputs; return the workload."""
    return workload_cls(fresh_import(), random.Random(seed), workdir)


class SetupSampler:
    """Times SETUPS set-ups, each in a child process, spread over a run.

    A child is a new interpreter with its own string-hash seed and memory
    layout, which move the time of a set-up by up to a third from one
    process to the next; it times its own set-up, so the interpreter's
    start is not counted. The samples are taken every span / SETUPS
    seconds of busy time, so that their median sees the host at the same
    moments as the operations do, not in one burst.
    """

    def __init__(self, args, workdir, span):
        self.args, self.workdir = args, workdir
        self.every = span / SETUPS
        self.times = []

    def due(self, busy):
        return len(self.times) < SETUPS and busy >= len(self.times) * self.every

    def sample(self):
        child_dir = tempfile.mkdtemp(prefix="setup-%d-" % len(self.times), dir=self.workdir)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--seconds", "0", "--setup-child", child_dir],
            capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(out.stdout.split()[-1]))

    def median(self):
        while len(self.times) < SETUPS:
            self.sample()
        return statistics.median(self.times)


class OperationTimeout(BaseException):
    """Raised into a running operation by the interval timer.

    A BaseException, so that the library's ``except Exception`` handlers
    cannot absorb it.
    """


def _expire(signum, frame):
    raise OperationTimeout()


class Record:
    """Latencies and outcomes of the operations of one measured phase."""

    def __init__(self, pool):
        self.pool = pool
        self.items = []
        self.latencies = []
        self.passes = []
        self.outcomes = []


def measure(workload, clock, budget, guard, tracer=None, replay=None, setups=None):
    """Run whole passes while another one fits in budget seconds of busy time.

    Busy time is the sum of the operations' latencies, in clock's
    reference seconds, so the number of passes does not follow the speed
    of the host. A pass starts only when the longest pass so far would
    still end within budget; the first pass always runs. No operation
    starts after guard wall seconds, the set-ups that setups takes
    between operations not counted. With replay, run exactly the items
    of that Record.
    """
    rec = Record(workload.pool)
    if replay is not None:
        schedule = list(zip(replay.passes, replay.items))
    else:
        schedule = ((p, item) for p in range(10 ** 9)
                    for item in workload.pool[p % len(workload.pool)])
    start = time.perf_counter()
    busy, current, pass_start, longest = 0.0, None, 0.0, 0.0
    for pass_no, item in schedule:
        if pass_no != current:
            longest = max(longest, busy - pass_start)
            if replay is None and current is not None and busy + longest > budget:
                break
            current, pass_start = pass_no, busy
        if time.perf_counter() - start >= guard:
            break
        if setups is not None and setups.due(busy):
            paused = time.perf_counter()
            setups.sample()
            start += time.perf_counter() - paused
        if tracer is not None:
            tracer.op_id = len(rec.items)
            tracer.enabled = True
        token = clock.begin()
        signal.setitimer(signal.ITIMER_REAL, workload.limit_s)
        try:
            result, error = workload.run(item), None
        except OperationTimeout:
            result, error = None, "exceeded the %d s operation limit" % workload.limit_s
        except Exception as exc:  # a raising operation is a failure, not a crash
            result, error = None, "raised %s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = clock.seconds(token)
        busy += latency
        if tracer is not None:
            tracer.enabled = False
        if error is not None:
            outcome = Outcome(False, error, False)
        else:
            try:
                outcome = workload.check(item, result)
            except Exception as exc:  # unreadable output is a wrong output
                outcome = Outcome(False, "check raised %s: %s" % (type(exc).__name__, exc), True)
        rec.items.append(item)
        rec.passes.append(pass_no)
        rec.latencies.append(latency)
        rec.outcomes.append(outcome)
    return rec


def ops_per_s(rec):
    """Operations that passed their check per busy second, over the complete passes.

    Busy time is the sum of the latencies of all these operations, the
    failed ones included; the untimed checks are left out. Only when no
    pass completed do the cut ops count instead.
    """
    size = Counter(rec.passes)
    complete = [i for i, p in enumerate(rec.passes)
                if size[p] == len(rec.pool[p % len(rec.pool)])] or range(len(rec.passes))
    passed = sum(rec.outcomes[i].failure is None for i in complete)
    return passed / sum(rec.latencies[i] for i in complete)


def tail(latencies):
    """(value, label): highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], "max (fewer than %d samples)" % (TAIL_BEYOND + 1)
    return ordered[n - TAIL_BEYOND - 1], "p%.1f" % (100.0 * (n - TAIL_BEYOND) / n)


def end_to_end(rec, setup_s):
    value, label = tail(rec.latencies)
    attempted = len(rec.latencies)
    decided = sum(o.decided for o in rec.outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(rec), "1/s"),
        "latency_p50_s": (statistics.median(rec.latencies), "s"),
        "latency_tail_s": (value, "s"),
        "decided_share": (decided / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "latency_tail_s": "%s of %d samples" % (label, attempted),
        "setup_s": "median of %d set-ups in child processes" % SETUPS,
        "ops_per_s": "%d passes" % len(set(rec.passes)),
    }
    return metrics, notes


def layers(tracer, traced, untraced):
    """The per-layer metrics of BENCHMARK.json from the traced replay.

    A name ending in .calls or .self_s is the total over the spans of
    that function; the others are counts kept by the tracer's observers.
    """
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return counts[num] / calls(den) if calls(den) else 0.0

    values = {
        "linalg.pair_with.calls": counts["linalg.pair_with.calls"],
        "lattice.discriminant_form.profiled_elements":
            counts["lattice.discriminant_form.profiled_elements"],
        "isometry.find_isometry.found_ratio":
            ratio("isometry.find_isometry.found", "isometry.find_isometry"),
        "isometry.find_hodge_isometry.found_ratio":
            ratio("isometry.find_hodge_isometry.found", "isometry.find_hodge_isometry"),
        "isometry.short_vectors.vectors": counts["isometry.short_vectors.vectors"],
        "isometry.genus_equal.differ_ratio":
            ratio("isometry.genus_equal.differ", "isometry.genus_equal"),
        "trace.operations": len(traced.latencies),
        "trace.overhead_ratio": ops_per_s(traced) / ops_per_s(untraced),
    }
    metrics = {}
    for name, unit in per_layer_metrics():
        if name in values:
            value = values[name]
        elif name.endswith(".self_s"):
            value = totals.get(name[:-len(".self_s")], {}).get("self_s", 0.0)
        else:
            value = calls(name[:-len(".calls")])
        metrics[name] = (value, unit)
    return metrics, totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kummerlat", "__init__.py")):
        sys.stderr.write("error: no kummerlat package under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    clock = Clock()
    clock.start()
    if args.setup_child:
        token = clock.begin()
        set_up(WORKLOADS[args.workload], args.seed, args.setup_child)
        print(clock.seconds(token))
        clock.stop()
        return 0
    signal.signal(signal.SIGALRM, _expire)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = set_up(WORKLOADS[args.workload], args.seed, workdir)
        print("workload %s seed %d seconds %g trace %d" % (
            args.workload, args.seed, args.seconds, args.trace))
        guard = 2 * args.seconds
        if args.trace:
            untraced = measure(workload, clock, args.seconds / 2, guard)
            tracer = Tracer(workload.km.package)
            tracer.install()
            try:
                traced = measure(workload, clock, None, guard, tracer=tracer, replay=untraced)
            finally:
                tracer.uninstall()
            path = os.path.join(OUT, "trace-%s-%d.json.gz" % (args.workload, args.seed))
            tracer.write(path)
            print("spans %d written to %s" % (len(tracer.span_start), os.path.relpath(path, ROOT)))
            (metrics, totals), notes = layers(tracer, traced, untraced), {}
            for name, total in sorted(totals.items()):
                print("function %-40s calls %9d self_s %.6g" % (name, total["calls"], total["self_s"]))
            outcomes = untraced.outcomes + traced.outcomes
        else:
            setups = SetupSampler(args, workdir, args.seconds)
            rec = measure(workload, clock, args.seconds, guard, setups=setups)
            metrics, notes = end_to_end(rec, setups.median())
            outcomes = rec.outcomes
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [o.failure for o in outcomes if o.failure is not None]
    print("failed_share %.6g (%d of %d operations)" % (
        len(failures) / len(outcomes), len(failures), len(outcomes)))
    for reason in sorted(set(failures)):
        print("failure x%d: %s" % (failures.count(reason), reason))
    for name, (value, unit) in metrics.items():
        print("%-45s %.6g %s%s" % (name, value, unit,
                                  "  (%s)" % notes[name] if name in notes else ""))
    ceiling = workload.max_failed_share * len(outcomes)
    if len(failures) > ceiling:
        print("more failed operations than the workload allows (%g)" % ceiling)
    print(json.dumps({
        "correct": not any(o.unsound for o in outcomes) and len(failures) <= ceiling,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
