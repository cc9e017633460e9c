"""The benchmark's own tests: run with ``python3 -m pytest perfbench -q``.

They check that inputs depend on the seed only, that tracing changes no
verdict, that a traced pass repeats its counts exactly, that the time
limit cuts an op off, that a run sets up several times and repeats no
op once its time is up, that the tracer also rebinds names imported with
``from ... import``, and that the benchmark refuses to report without the
package sources.
"""

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# kinds that finish in milliseconds, so traced and untraced runs both finish
FAST = {
    "decide": lambda kind: kind.startswith(("equal", "corpus Wa", "corpus Va", "corpus U",
                                            "corpus twisted", "mixed p=2 e=1")),
    "hom": lambda kind: kind.endswith("p=2 fq") or kind.endswith("p=3 fq"),
    "identities": lambda kind: kind.startswith(("reduce", "check-extension gabber p=3",
                                                "verify-iso split p=3", "identity gabber.commutator",
                                                "verify-hom frobenius^1 U p=2")),
}


def _fast_ops(name, seed=5):
    lib = run.load_library()
    wl = workloads.WORKLOADS[name](lib, seed)
    return lib, wl, [op for op in wl.ops() if FAST[name](op.kind)]


def test_inputs_depend_on_the_seed_only():
    for name in workloads.WORKLOADS:
        labels = []
        for seed in (3, 3, 4):
            lib = run.load_library()
            labels.append([op.label for op in workloads.WORKLOADS[name](lib, seed).ops()])
        assert labels[0] == labels[1], name
        assert labels[0] != labels[2], name


def test_tracing_changes_no_answer():
    for name in workloads.WORKLOADS:
        lib, wl, ops = _fast_ops(name)
        assert len(ops) >= 10, name
        plain = [op.run() for op in ops]
        t = tracing.Tracer()
        t.install(vars(lib))
        try:
            traced = [op.run() for op in ops]
        finally:
            t.uninstall()
        assert traced == plain, name
        for op, result in zip(ops, traced):
            decided, ok, detail = op.check(result)
            assert ok, (op.label, detail)
        assert t.layer_calls("field") > 0 and t.layer_calls("fqpoly") > 0
        assert sum(t.calls(k) for k in tracing.FIELD_ARITH) > 0, name
        layer = {"decide": "zerocert", "hom": "homs", "identities": "polyring"}[name]
        assert t.layer_calls(layer) > 0, name


def test_traced_passes_give_the_same_counts():
    """Counts are the work of one pass: a second traced pass over the same
    warm ops repeats every count of the first."""
    for name in workloads.WORKLOADS:
        lib, wl, ops = _fast_ops(name)
        for op in ops:
            op.run()
        signal.signal(signal.SIGALRM, run._on_alarm)
        counts = []
        for _ in range(2):
            t, records = run.trace_pass(ops, wl.limit_s, lib)
            assert all(r.status == "ok" for r in records), name
            metrics = run.per_layer(t, 0.0, 0.0)
            counts.append(({k: v for k, (v, unit) in metrics.items() if unit == "count"},
                           {k: s.calls for k, s in t.stats.items()}, dict(t.counters)))
        assert counts[0] == counts[1], name
        assert sum(counts[0][0].values()) > 0, name


def test_time_limit_cuts_an_op_and_drops_a_late_signal():
    signal.signal(signal.SIGALRM, run._on_alarm)
    slow = workloads.Op("slow", "slow", lambda: time.sleep(2), lambda r: (True, True, ""))
    rec = run.run_op(slow, 0.05)
    assert rec.status == "timeout" and 0.05 <= rec.elapsed < 1.0
    fast = workloads.Op("fast", "fast", lambda: 1, lambda r: (True, r == 1, ""))
    rec = run.run_op(fast, 0.05)
    assert rec.status == "ok" and rec.decided
    # a signal that lands after the op is over must not raise
    run._on_alarm(signal.SIGALRM, None)


def test_measure_sets_up_several_times_and_stops_at_the_deadline():
    signal.signal(signal.SIGALRM, run._on_alarm)
    setups, runs = run.measure("identities", 1, 0)
    assert len(setups) == run.SETUPS and all(s > 0 for s in setups)
    assert all(len(rs) == 1 for rs in runs)


def test_imported_names_are_rebound_and_restored():
    lib = run.load_library()
    original = lib.homs.reduce_mod
    assert original is lib.ppoly.reduce_mod
    t = tracing.Tracer()
    t.install(vars(lib))
    try:
        assert lib.homs.reduce_mod is lib.ppoly.reduce_mod is not original
        assert lib.groups.decide_no_nontrivial_zero is lib.zerocert.decide_no_nontrivial_zero
        assert lib.groups.decide_no_nontrivial_zero.__wrapped__ is not None
        k = lib.corpus.base_field(3)
        lib.homs.verify_hom(lib.homs.relative_frobenius(lib.corpus.group_wa(k), 1))
        assert t.calls("ppoly.reduce_mod") == 1
    finally:
        t.uninstall()
    assert lib.homs.reduce_mod is original


def test_per_layer_reads_zero_for_functions_never_called():
    metrics = run.per_layer(tracing.Tracer(), 0.0, 0.0)
    assert all(v == 0 for v, _ in metrics.values())
    assert len(metrics) == len(set(metrics))


def test_refuses_to_report_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
