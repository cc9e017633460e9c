"""woundcheck benchmark: closed-loop workloads, one client, one thread.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seconds 40        # every workload, both modes

The seed fixes one list of ops per workload.  A run makes passes over
that list, each after SETUPS fresh set-ups (import, corpus construction,
instance generation, warm-up), until ``--seconds`` have passed; a pass
stops when the time is up.  ``setup_s`` is the median set-up.  After the
first pass, an op whose first time is at most BAND times the first
pass's 90th percentile runs REPEAT times a pass.  An op's latency is its
best run.  Each op runs under the workload's time limit; an op that hits
it counts as undecided, enters the latency sample at its measured time
and is not run again.  Every answer is checked after its op, outside the
timed region.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics.  With ``--trace 1`` it carries the per-layer metrics
of exactly one traced pass, whatever ``--seconds`` says, so that counts
and self times are the work of one pass and not of as many passes as fit;
its spans go to ``.perfbench_out/``.  A human summary (provenance,
timed-out and failed instances) goes to stderr.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3   # set-ups before each pass
BAND = 2.0
REPEAT = 8
# a traced op runs under this multiple of the workload's limit, so the
# tracing overhead does not turn a finished op into a time-out
TRACE_SLACK = 10

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("decided_ratio", "1"), ("peak_rss_mb", "MB"))
STAGES = ("absent_variable", "equal_exponent", "relaxation", "search")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeds the time limit."""


_armed = False   # True only while an op runs under the timer


def _on_alarm(signum, frame):
    # a signal that lands once the op is over is dropped, not raised in
    # the untimed code that follows
    if _armed:
        raise OpTimeout()


def load_library():
    """Import woundcheck afresh from ``src/`` and return its modules."""
    for name in [m for m in sys.modules if m == "woundcheck" or m.startswith("woundcheck.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {"package": importlib.import_module("woundcheck")}
    for name in tracing.LAYERS + ("corpus",):
        try:
            mods[name] = importlib.import_module(f"woundcheck.{name}")
        except ImportError:
            mods[name] = None
    return SimpleNamespace(**mods)


def set_up(name, seed):
    """Import the library afresh, build the workload and its op list, and
    warm up; returns (seconds taken, workload, ops)."""
    t0 = perf_counter()
    wl = workloads.WORKLOADS[name](load_library(), seed)
    ops = wl.ops()
    wl.warm_up()
    elapsed = perf_counter() - t0
    gc.collect()
    gc.freeze()
    return elapsed, wl, ops


class Record:
    __slots__ = ("label", "elapsed", "status", "decided", "detail")

    def __init__(self, op, elapsed, status, decided=False, detail=""):
        self.label = op.label
        self.elapsed = elapsed
        self.status = status      # "ok" | "timeout" | "error" | "wrong"
        self.decided = decided
        self.detail = detail


def run_op(op, limit_s, tracer=None):
    """Time one op under the limit, then check its answer untimed."""
    global _armed
    gc.collect()
    depth = tracer.begin(op.kind) if tracer else 0
    status, result = "ok", None
    t0 = perf_counter()
    try:
        try:
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            result = op.run()
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0
    except OpTimeout:
        status, elapsed = "timeout", perf_counter() - t0
    except Exception as exc:  # a crashing op is a failure, not a crashed run
        status, result = "error", f"{type(exc).__name__}: {exc}"
    if tracer:
        tracer.end(depth)
        tracer.active = False
    try:
        if status == "error":
            return Record(op, elapsed, status, detail=result)
        if status == "timeout":
            return Record(op, elapsed, status)
        try:
            decided, ok, detail = op.check(result)
        except Exception as exc:
            decided, ok, detail = False, False, f"check raised {type(exc).__name__}: {exc}"
        return Record(op, elapsed, "ok" if ok else "wrong", decided and ok, detail)
    finally:
        if tracer:
            tracer.active = True


def measure(name, seed, seconds):
    """Passes over the seeded op list, each after SETUPS fresh set-ups,
    until ``seconds`` have passed since the start; a pass stops when the
    time is up, the first pass runs to the end.

    The first pass runs every op once, in seeded order.  An op that hit
    the time limit is not run again: its first time stands.  Later passes
    are shuffled; in them an op whose first time is at most BAND times the
    first pass's 90th percentile runs REPEAT times, every other op once.
    The machine this was tuned on runs up to twice as slow for stretches
    of a second or more, so an op's best time is steady only when it
    comes from many runs spread over the whole run; the repeats spend the
    run on the ops that set the percentiles (in ``hom`` the 50-90 ms
    solves around the 90th percentile) rather than on the few slow ones
    above them, which weigh only in ``ops_per_s``.
    Returns the set-up times and, per op, its Records."""
    start = perf_counter()
    setups, runs, order = [], None, []
    shuffle = random.Random(seed).shuffle
    while runs is None or perf_counter() - start < seconds:
        for _ in range(SETUPS):
            wl = ops = None
            gc.unfreeze()   # let the previous set-up's library go
            gc.collect()
            setup_s, wl, ops = set_up(name, seed)
            setups.append(setup_s)
        if runs is None:
            runs = [[run_op(op, wl.limit_s)] for op in ops]
            first = [rs[0] for rs in runs]
            band = BAND * quantile([r.elapsed for r in first], 0.9)
            finished = [i for i, r in enumerate(first) if r.status != "timeout"]
            order = finished + [i for i in finished if first[i].elapsed <= band] * (REPEAT - 1)
            continue
        shuffle(order)
        for i in order:
            if perf_counter() - start >= seconds:
                break
            runs[i].append(run_op(ops[i], wl.limit_s))
    return setups, runs


def quantile(values, q):
    """The q-quantile by linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(setups, runs):
    """Each op's latency is its best run: the shared machine this was
    tuned on slows down by up to half for seconds at a time, and the
    minimum over runs spread across the whole run filters that out.

    ``ops_per_s`` is the ops that completed (did not hit the time limit)
    over the summed best times of all ops, time-outs at their measured
    time: a slow op that starts to finish under the limit raises it."""
    best = [min(r.elapsed for r in rs) * 1000.0 for rs in runs]
    completed = sum(rs[0].status != "timeout" for rs in runs)
    decided = [any(r.decided for r in rs) for rs in runs]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / (sum(best) / 1000.0),
        "latency_p50_ms": quantile(best, 0.5),
        "latency_p90_ms": quantile(best, 0.9),
        "decided_ratio": sum(decided) / len(decided),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(t, overhead_s, overhead_ratio):
    """The per-layer metrics named in BENCHMARK.json, from one tracer."""
    c = t.counters.get
    calls, self_s = t.calls, t.self_s
    mul_calls = calls("fqpoly.mul")
    arith = sum(calls(k) for k in tracing.FIELD_ARITH)
    m = {
        "gfq.calls": (t.layer_calls("gfq"), "count"),
        "gfq.self_s": (t.layer_self_s("gfq"), "s"),
        "fqpoly.mul.calls": (mul_calls, "count"),
        "fqpoly.mul.mean_len": (c("fqpoly.mul.operand_len", 0) / (2 * mul_calls)
                                if mul_calls else 0.0, "coeffs"),
        "fqpoly.divmod.calls": (calls("fqpoly.divmod_"), "count"),
        "fqpoly.gcd.calls": (calls("fqpoly.gcd"), "count"),
        "fqpoly.self_s": (t.layer_self_s("fqpoly"), "s"),
        "field.normalize.calls": (calls("field.FieldElem.__init__"), "count"),
        "field.arith.calls": (arith, "count"),
        "field.den_ratio": (c("field.arith.with_den", 0) / arith if arith else 0.0, "1"),
        "field.self_s": (t.layer_self_s("field"), "s"),
        "ppoly.reduce_mod.calls": (calls("ppoly.reduce_mod"), "count"),
        "ppoly.reduce_mod.steps": (c("ppoly.reduce_mod.steps", 0), "count"),
        "ppoly.compose.calls": (calls("ppoly.PPoly.compose"), "count"),
        "ppoly.self_s": (t.layer_self_s("ppoly"), "s"),
        "polyring.normal_form.calls": (calls("polyring.normal_form"), "count"),
        "polyring.normal_form.self_s": (self_s("polyring.normal_form"), "s"),
        "polyring.substitute.calls": (calls("polyring.Poly.substitute"), "count"),
        "polyring.self_s": (t.layer_self_s("polyring"), "s"),
        "params.mul.calls": (calls("params.ParamElem.__mul__")
                             + calls("params.ParamElem.__rmul__"), "count"),
        "params.self_s": (t.layer_self_s("params"), "s"),
        "zerocert.decide.calls": (calls("zerocert.decide_no_nontrivial_zero"), "count"),
        "zerocert.decide.self_s": (self_s("zerocert.decide_no_nontrivial_zero"), "s"),
        "zerocert.unknown": (c("zerocert.unknown", 0), "count"),
        "zerocert.exhaustive_search.self_s": (self_s("zerocert.exhaustive_poly_search"), "s"),
        "oracle.calls": (calls("oracle.random_point_oracle"), "count"),
        "oracle.trials": (c("oracle.trials", 0), "count"),
        "oracle.refuted": (c("oracle.refuted", 0), "count"),
        "oracle.self_s": (t.layer_self_s("oracle"), "s"),
        "groups.classify.self_s": (self_s("groups.classify"), "s"),
        "groups.check_group_axioms.self_s": (self_s("groups.check_group_axioms"), "s"),
        "groups.self_s": (t.layer_self_s("groups"), "s"),
        "homs.derive.self_s": (self_s("homs.derive_hom_constraints"), "s"),
        "homs.solve.self_s": (self_s("homs.solve_homs_bounded"), "s"),
        "homs.solutions": (c("homs.solutions", 0), "count"),
        "homs.canonical_form.calls": (calls("homs.canonical_form"), "count"),
        "homs.verify_hom.calls": (calls("homs.verify_hom"), "count"),
        "homs.self_s": (t.layer_self_s("homs"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }
    for stage in STAGES:
        m[f"zerocert.stage.{stage}"] = (c(f"zerocert.stage.{stage}", 0), "count")
    return m


def provenance():
    import numpy

    commit = "unknown"
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    return {"commit": commit, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def summarize(name, records, extra=""):
    """Counts and the timed-out and failed instances, to stderr."""
    timed_out = [r for r in records if r.status == "timeout"]
    bad = [r for r in records if r.status in ("error", "wrong")]
    n = len(records)
    print(f"# {name}: {n} ops run, {sum(r.decided for r in records)} decided, "
          f"{len(timed_out)} timed out, {len(bad)} failed "
          f"(failed_ratio counting time-outs: {(len(timed_out) + len(bad)) / n:.4f}){extra}",
          file=sys.stderr)
    for label in sorted({r.label for r in timed_out}):
        print(f"#   timed out: {label}", file=sys.stderr)
    for r in bad:
        print(f"#   FAILED ({r.status}: {r.detail}): {r.label}", file=sys.stderr)


def trace_pass(ops, limit_s, lib):
    """Run ``ops`` once under a fresh tracer; returns (tracer, Records)."""
    t = tracing.Tracer()
    t.install(vars(lib))
    try:
        records = [run_op(op, limit_s * TRACE_SLACK, tracer=t) for op in ops]
    finally:
        t.uninstall()
    return t, records


def traced_run(name, seed, prov):
    """One untraced pass, then one traced pass over the ops that finished
    in it.  An op cut off by the time limit is left out of the traced
    pass: how far it got, and so every count it adds, depends on the
    speed of the machine.  The overhead is the traced-minus-untraced time
    of the ops that finished in both passes."""
    _, wl, ops = set_up(name, seed)
    plain = [run_op(op, wl.limit_s) for op in ops]
    finished = [i for i, r in enumerate(plain) if r.status != "timeout"]
    t, traced = trace_pass([ops[i] for i in finished], wl.limit_s, wl.lib)
    both = [(plain[i].elapsed, r.elapsed) for i, r in zip(finished, traced)
            if plain[i].status == r.status == "ok"]
    base = sum(a for a, _ in both)
    overhead = sum(b for _, b in both) - base
    metrics = per_layer(t, overhead, overhead / base if base else 0.0)
    records = [r for r in plain if r.status == "timeout"] + traced
    summarize(name, records, extra=f"; {len(ops) - len(finished)} timed-out ops not traced; "
                                     f"tracing overhead {overhead:.3f}s on "
                                     f"{base:.3f}s of untraced op time")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "workload": name, "seed": seed,
                   "functions": {k: {"calls": s.calls, "self_s": s.self_s}
                                 for k, s in sorted(t.stats.items()) if s.calls},
                   "counters": t.counters, "dropped_spans": t.dropped_spans,
                   "spans": t.spans}, fh)
    print(f"# spans written to {path}", file=sys.stderr)
    return records, metrics


def run_once(name, seed, seconds, trace):
    import numpy  # noqa: F401  (a dependency: keep its import out of set-up)

    signal.signal(signal.SIGALRM, _on_alarm)
    prov = provenance()
    print("# provenance: " + json.dumps(prov, sort_keys=True), file=sys.stderr)
    if trace:
        records, metrics = traced_run(name, seed, prov)
    else:
        setups, runs = measure(name, seed, seconds)
        records = [r for rs in runs for r in rs]
        values = end_to_end(setups, runs)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}
        summarize(name, records, extra=f" over {len(runs)} ops, {len(setups)} set-ups")
    failed = sum(r.status in ("error", "wrong") for r in records)
    print(json.dumps({"correct": not any(r.status == "wrong" for r in records),
                      "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(seed, seconds):
    """Every workload untraced and traced, each in its own process."""
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"== {name} ({'per-layer, traced' if trace else 'end-to-end'}): "
                  f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"   {key:36s} {m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload in both modes")
    args = ap.parse_args(argv)
    if not (SRC / "woundcheck").is_dir():
        print(f"error: no woundcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required without --all")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
