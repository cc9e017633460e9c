"""Start-up: a command imports only the modules it runs, before its clock
starts, and the package exports its names lazily."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import woundcheck

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"
WOUND = str(DEMOS / "wound_forms.txt")
HOMS = str(DEMOS / "hom_scheme.txt")
SPLIT = str(DEMOS / "splitting_tower.txt")

# every name the package exported when it imported its modules eagerly
EXPORTS = {
    "field": ["Field", "FieldElem", "FieldSpec"],
    "ppoly": ["PPoly", "ReductionTrace", "is_smooth", "reduce_mod", "to_relation"],
    "polyring": ["Poly", "Relation", "RelationSet", "is_identically_zero", "normal_form"],
    "params": ["ParamRing", "ParamElem"],
    "zerocert": ["ZeroDecision", "decide_no_nontrivial_zero", "exhaustive_poly_search"],
    "groups": ["AffineLine", "ClassificationReport", "CocycleExtension", "HypersurfaceGroup",
               "check_biadditive", "check_group_axioms", "check_lands_in", "classify",
               "is_commutative", "twist_group"],
    "homs": ["ConstraintSystem", "PPolyMap", "canonical_form", "derive_hom_constraints",
             "relative_frobenius", "solve_homs_bounded", "verify_hom", "verify_mutual_inverse"],
    "oracle": ["random_point_oracle"],
}

# runs the CLI in a fresh interpreter; prints the exit code, the modules
# imported after the clock started and the modules loaded at the end
_SCRIPT = """
import io, json, sys, time
real, started = time.perf_counter, []
def clock():
    if not started:
        started.append(set(sys.modules))
    return real()
time.perf_counter = clock
from woundcheck.cli import main
sys.stdout, out = io.StringIO(), sys.stdout
code = main(sys.argv[1:])
late = sorted(m for m in set(sys.modules) - started[0] if m.startswith("woundcheck"))
print(json.dumps([code, late, sorted(sys.modules)]), file=out)
"""


def _python(*args):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})


def _cli(argv):
    proc = _python("-c", _SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


UNUSED = {"woundcheck.homs", "woundcheck.oracle", "woundcheck.corpus", "dataclasses"}


@pytest.mark.parametrize("argv", [
    ["classify", WOUND, "Wa"],
    ["reduce", WOUND, "1*X^(p^3) + a*Y^(p^2)", "--group", "Va"],
    ["check-extension", WOUND, "Ua"],
    ["classify", HOMS, "Va"],
])
def test_a_command_on_groups_loads_no_hom_oracle_or_corpus(argv):
    code, late, loaded = _cli(argv)
    assert code == 0
    assert not late
    assert not UNUSED & set(loaded)


@pytest.mark.parametrize("argv", [
    ["verify-hom", HOMS, "phi_b", "--trials", "3"],
    ["derive", HOMS, "Va", "U"],
    ["solve", HOMS, "Va", "U"],
    ["twist", WOUND, "Wa", "1"],
    ["verify-iso", SPLIT, "split", "unsplit"],
    ["selftest-paper", "3", "--trials", "3"],
])
def test_a_command_imports_its_modules_before_its_clock_starts(argv):
    # elapsed_ms times the command, not the compile of the modules it runs
    code, late, _ = _cli(argv)
    assert code == 0
    assert not late


def test_the_listing_limit_still_ends_solve_as_an_input_error():
    proc = _python("-m", "woundcheck", "solve", HOMS, "Va", "Ga", "--domain", "deg2")
    assert proc.returncode == 3 and proc.stdout == ""
    error, elapsed = proc.stderr.splitlines()
    assert error == "error: listing 3^15 kernel points of 5 unknowns exceeds 10000000"
    assert elapsed.startswith("elapsed_ms: ")


def test_importing_the_package_loads_no_submodule():
    proc = _python("-c", "import sys, woundcheck; "
                         "print(sorted(m for m in sys.modules if m.startswith('woundcheck')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['woundcheck']\n"


def test_lazy_exports_are_the_module_objects():
    names = [name for names in EXPORTS.values() for name in names]
    assert set(names) <= set(dir(woundcheck))
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"woundcheck.{module}")
        for name in names:
            assert getattr(woundcheck, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        woundcheck.no_such_name
