import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from woundcheck.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"
WOUND = str(DEMOS / "wound_forms.txt")
HOMS = str(DEMOS / "hom_scheme.txt")
SPLIT = str(DEMOS / "splitting_tower.txt")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_classify_wa_certified():
    code, out, err = run(["classify", WOUND, "Wa"])
    assert code == 0
    assert "wound: certified" in out
    assert "certificate.rank: 2" in out
    assert "elapsed_ms" in err


def test_classify_split_line_refuted():
    code, out, _ = run(["classify", WOUND, "Line"])
    assert code == 1
    assert "wound: refuted" in out
    assert "witness: (1, 0)" in out


def test_classify_mixed_relaxation():
    code, out, _ = run(["classify", WOUND, "Mixed"])
    assert code == 0
    assert "wound: certified (relaxation)" in out


def test_classify_reports_are_byte_stable():
    _, out1, _ = run(["classify", WOUND, "Va"])
    _, out2, _ = run(["classify", WOUND, "Va"])
    assert out1 == out2


def test_reduce_group_divisor():
    code, out, _ = run(["reduce", WOUND, "1*X^(p^2) + a*Y^(p^2)", "--group", "Va"])
    assert code == 0
    assert "remainder: 1*X^(p^0)" in out
    assert "replay.exact: true" in out


def test_reduce_h_equals_f():
    code, out, _ = run(["reduce", WOUND,
                        "2*X^(p^0) + 1*X^(p^2) + a*Y^(p^2)", "--group", "Va"])
    assert code == 0
    assert "remainder: 0" in out


def test_verify_hom_phi_b():
    code, out, _ = run(["verify-hom", HOMS, "phi_b"])
    assert code == 0
    assert "verified: true" in out


def test_derive_byte_stable_and_contains_equations():
    code1, out1, _ = run(["derive", HOMS, "Va", "U"])
    code2, out2, _ = run(["derive", HOMS, "Va", "U"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "constraints: 7" in out1
    assert "constraint.X.0:" in out1 and "constraint.Y.4:" in out1


def test_solve_hom_vu():
    code, out, _ = run(["solve", HOMS, "Va", "U", "--domain", "deg1"])
    assert code == 0
    assert "solutions: 3" in out
    assert "completeness: complete within bound" in out


def test_check_extension_gabber():
    code, out, _ = run(["check-extension", WOUND, "Ua"])
    assert code == 0
    assert "axiom.associativity.h1: pass" in out
    assert "commutative: false" in out
    assert "alternating: true" in out


def test_twist_wa():
    code, out, _ = run(["twist", WOUND, "Wa", "1"])
    assert code == 0
    assert "wound: refuted" in out
    assert "witness: (2*a, 1)" in out
    assert "relative_frobenius.hom: true" in out


def test_verify_iso_splitting():
    code, out, _ = run(["verify-iso", SPLIT, "split", "unsplit"])
    assert code == 0
    assert "mutually_inverse: true" in out


def test_parse_error_exit_code():
    code, _, err = run(["classify", WOUND, "NoSuchGroup"])
    assert code == 3
    assert "error" in err


def test_selftest_p3():
    code, out, _ = run(["selftest-paper", "3"])
    assert code == 0, out
    assert "selftest: pass" in out
    assert "FAIL" not in out


def test_selftest_p5():
    code, out, _ = run(["selftest-paper", "5"])
    assert code == 0, out
    assert "selftest: pass" in out


def test_selftest_p2():
    code, out, _ = run(["selftest-paper", "2"])
    assert code == 0, out
    assert "b2.hom_under_W2_relation" in out
    assert "selftest: pass" in out


def test_derive_pivot_cap_over_bound_is_input_error():
    code, out, err = run(["derive", HOMS, "Va", "U", "--cap", "X=5"])
    assert code == 3 and out == ""
    assert err.startswith("error: pivot cap 'X=5' exceeds")


def test_solve_pivot_cap_over_bound_is_input_error():
    code, out, err = run(["solve", HOMS, "Va", "U", "--cap", "X=5"])
    assert code == 3 and out == ""
    assert err.startswith("error: pivot cap 'X=5' exceeds")


def test_solve_non_integer_cap_is_input_error():
    code, out, err = run(["solve", HOMS, "Va", "U", "--cap", "X=abc"])
    assert code == 3 and out == ""
    assert err.startswith("error: cap 'X=abc' is not")


def test_valid_cap_bounds_the_ansatz():
    code, out, _ = run(["derive", HOMS, "Va", "U", "--cap", "Y=1"])
    assert code == 0
    assert ("unknowns: c0_X_0, c0_X_1, c0_Y_0, c0_Y_1, c1_X_0, c1_X_1, c1_Y_0, c1_Y_1\n"
            "constraints: 5\n") in out
    code, out, _ = run(["solve", HOMS, "Va", "U", "--domain", "deg1", "--cap", "Y=1"])
    assert code == 0 and "solutions: 3\n" in out


def test_cap_for_unknown_variable_is_input_error():
    for cmd in ("derive", "solve"):
        code, out, err = run([cmd, HOMS, "Va", "U", "--cap", "Z=1"])
        assert code == 3 and out == "" and _one_error_line(err)
        assert err.startswith("error: cap for unknown variable 'Z'\n")


def test_solve_over_the_listing_limit_is_input_error():
    code, out, err = run(["solve", HOMS, "Va", "Ga", "--domain", "deg2"])
    assert code == 3 and out == "" and _one_error_line(err)
    assert err.startswith("error: listing 3^15 kernel points of 5 unknowns exceeds 10000000\n")


def test_classify_unknown_reports_the_search_bound(tmp_path):
    path = tmp_path / "w2.txt"
    path.write_text("field p=2 e=1 gen=a depth=0\n"
                    "group W2 vars=X,Y,Z pivot=X : "
                    "1*X^(p^0) + 1*X^(p^2) + a*Y^(p^1) + a^2*Z^(p^3)\n", encoding="utf-8")
    code, out, _ = run(["classify", str(path), "W2"])
    assert code == 2
    assert out.endswith("wound: unknown\nsearch.bound: 3\n")


def test_classify_over_a_prime_above_two_to_the_32(tmp_path):
    """Coefficient products overflow 64 bits; c = (-1 - a - ... - a^4)^2 is
    computed exactly, and (-c, 1) is the witness."""
    n = 4_294_967_310
    root = "(" + "+".join([str(n)] + [f"{n}*a^{i}" for i in range(1, 5)]) + ")"
    path = tmp_path / "large.txt"
    path.write_text("field p=4294967311 e=1 gen=a depth=0\n"
                    f"group G vars=X,Y pivot=X : 1*X^(p^0) + {root}*{root}*Y^(p^0)\n",
                    encoding="utf-8")
    code, out, err = run(["classify", str(path), "G"])
    assert code == 1 and "Traceback" not in err
    assert "defining: 1*X^(p^0) + (1+2*a+3*a^2+4*a^3+5*a^4+4*a^5+3*a^6+2*a^7+a^8)*Y^(p^0)\n" in out
    assert out.endswith("wound: refuted\nwitness: (4294967310+4294967309*a+4294967308*a^2"
                        "+4294967307*a^3+4294967306*a^4+4294967307*a^5+4294967308*a^6"
                        "+4294967309*a^7+4294967310*a^8, 1)\n")


def test_verify_iso_unknown_map_is_input_error():
    code, out, err = run(["verify-iso", SPLIT, "split", "nosuch"])
    assert code == 3 and out == "" and _one_error_line(err)
    assert err.startswith("error: unknown map 'nosuch'\n")


def test_reduce_without_a_divisor_is_input_error():
    code, out, err = run(["reduce", WOUND, "1*X^(p^2)"])
    assert code == 3 and out == "" and _one_error_line(err)
    assert err.startswith("error: reduce needs --group or all of --f/--pivot/--vars\n")


def test_ppoly_term_with_two_variables_is_input_error(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("field p=3 e=1 gen=a depth=0\n"
                    "group G vars=X,Y pivot=X : 1*X^(p^0) + 1*X^(p^0)*Y^(p^0)\n",
                    encoding="utf-8")
    code, out, err = run(["classify", str(path), "G"])
    assert code == 3 and out == "" and _one_error_line(err)
    assert err.startswith("error: line 2: two variables in one p-polynomial term\n")


def test_solve_line_source_is_input_error():
    code, out, err = run(["solve", HOMS, "Ga", "U"])
    assert code == 3 and out == ""
    assert err.startswith("error: use a split presentation")


def _one_error_line(err):
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    return len(errors) == 1 and "Traceback" not in err


def test_twist_negative_exponent_is_input_error():
    code, out, err = run(["twist", WOUND, "Wa", "-1"])
    assert code == 3 and out == "" and _one_error_line(err)


def test_non_positive_trials_are_input_errors():
    for trials in ("0", "-5"):
        for argv in (["verify-hom", HOMS, "phi_b"], ["selftest-paper", "3"]):
            code, out, err = run(argv + ["--trials", trials])
            assert code == 3 and out == "" and _one_error_line(err)


def test_verify_iso_of_maps_that_do_not_compose_is_input_error():
    code, out, err = run(["verify-iso", SPLIT, "split", "split"])
    assert code == 3 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("argv", [
    ["solve", HOMS, "Va", "Ga", "--domain", "deg9"],
    ["selftest-paper", "7"],
    ["classify", WOUND],
    ["verify-hom", HOMS, "phi_b", "--trials", "x"],
    ["classify", WOUND, "Wa", "--no-such-flag"],
    ["no-such-command"],
    [],
])
def test_usage_errors_are_input_errors(argv):
    """Exit 2 means unknown, so a command line argparse rejects exits 3
    with one `error:` line and no usage text."""
    code, out, err = run(argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_zero(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0


# the three shared flags and the commands that read them; any other
# command refuses them as usage errors
COMMAND_FLAGS = {
    "classify": {"--search-bound"}, "reduce": set(), "verify-hom": {"--trials", "--seed"},
    "derive": set(), "solve": set(), "check-extension": set(),
    "twist": {"--search-bound"}, "verify-iso": set(), "selftest-paper": {"--trials", "--seed"},
}


@pytest.mark.parametrize("argv", [
    ["reduce", WOUND, "1*X^(p^2)", "--group", "Va", "--trials", "5"],
    ["derive", HOMS, "Va", "U", "--max-enum", "5"],
    ["check-extension", WOUND, "Ua", "--search-bound", "1"],
    ["classify", WOUND, "Wa", "--seed", "1"],
    ["verify-iso", SPLIT, "split", "unsplit", "--trials", "5"],
    ["solve", HOMS, "Va", "U", "--seed", "1"],
    ["solve", HOMS, "Va", "U", "--max-enum", "5"],
])
def test_flag_the_command_does_not_read_is_a_usage_error(argv):
    code, out, err = run(argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", sorted(COMMAND_FLAGS))
def test_help_names_only_the_flags_of_its_command(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    shared = {flag for flags in COMMAND_FLAGS.values() for flag in flags}
    assert {flag for flag in shared if flag in out} == COMMAND_FLAGS[cmd]


@pytest.mark.parametrize("argv", [
    ["solve", HOMS, "Va", "Va", "--cap", "Y=-3"],
    ["derive", HOMS, "Va", "U", "--cap", "X=-1"],
])
def test_negative_cap_is_input_error(argv):
    code, out, err = run(argv)
    assert code == 3 and out == "" and _one_error_line(err)
    assert "error: cap " in err and "is negative" in err


RELATION = "relation pivot=d : 1*d^(p^2) + 2*d^(p^0) + a*e^(p^1)\n"


@pytest.mark.parametrize("replacement,line,message", [
    pytest.param(RELATION + RELATION, 7, "relation variable blocks overlap",
                 id="duplicated"),
    pytest.param("relation pivot=d : a*e^(p^1)\n", 6, "pivot does not occur in the relation",
                 id="pivot-absent"),
])
@pytest.mark.parametrize("argv", [["verify-hom", "phi_b"], ["derive", "Va", "U"]])
def test_refused_relation_is_input_error(tmp_path, replacement, line, message, argv):
    text = (DEMOS / "hom_scheme.txt").read_text(encoding="utf-8")
    assert RELATION in text
    path = tmp_path / "hom_scheme.txt"
    path.write_text(text.replace(RELATION, replacement), encoding="utf-8")
    code, out, err = run([argv[0], str(path)] + argv[1:])
    assert code == 3 and out == "" and _one_error_line(err)
    assert f"error: line {line}: {message}\n" in err


def test_verify_hom_oracle_unsupported_relation(tmp_path):
    path = tmp_path / "unsampled.txt"
    path.write_text("field p=3 e=1 gen=a depth=0\n"
                    "group G vars=X,Y pivot=X : "
                    "1*X^(p^0) + 1*X^(p^1) + a*Y^(p^0) + 1*Y^(p^1)\n"
                    "map id from=G to=G : X -> 1*X^(p^0) ; Y -> 1*Y^(p^0)\n", encoding="utf-8")
    code, out, err = run(["verify-hom", str(path), "id"])
    assert code == 0 and "Traceback" not in err
    assert out.endswith("verified: true\noracle.result: unsupported\n")


def test_literals_at_e2_are_fq_digit_codes(tmp_path):
    path = tmp_path / "f9.txt"
    head = "field p=3 e=2 gen=a depth=0\ngroup G vars=X,Y pivot=X : 1*X^(p^1) + "
    path.write_text(head + "4*Y^(p^1)\n", encoding="utf-8")
    _, out, _ = run(["classify", str(path), "G"])
    assert "defining: 1*X^(p^1) + 4*Y^(p^1)\n" in out
    path.write_text(head + "9*Y^(p^1)\n", encoding="utf-8")
    code, out, err = run(["classify", str(path), "G"])
    assert code == 3 and out == "" and _one_error_line(err)
    assert "error: line 2: literal 9" in err


def test_line_is_not_a_hypersurface_group():
    for argv in (["classify", WOUND, "Ga"], ["twist", WOUND, "Ga", "1"],
                 ["reduce", WOUND, "1*T^(p^1)", "--group", "Ga"]):
        code, out, err = run(argv)
        assert code == 3 and out == "" and _one_error_line(err)
        assert "error: Ga is the additive line" in err


def test_reduce_pivot_errors_are_input_errors():
    for pivot, f in (("Z", "1*X^(p^1)"), ("X", "1*Y^(p^1)")):
        code, out, err = run(["reduce", WOUND, "1*X^(p^2)", "--f", f,
                              "--pivot", pivot, "--vars", "X,Y"])
        assert code == 3 and out == "" and _one_error_line(err)


def _mixed_three_variables(tmp_path, p):
    """A smooth group whose principal part X^p + a Y^(p^2) + Z^p has a zero
    that the relaxation cannot rule out, so the witness search runs."""
    path = tmp_path / f"mixed{p}.txt"
    path.write_text(f"field p={p} e=1 gen=a depth=0\n"
                    "group M vars=X,Y,Z pivot=X : "
                    "1*X^(p^0) + 1*X^(p^1) + a*Y^(p^2) + 1*Z^(p^1)\n", encoding="utf-8")
    return str(path)


def test_negative_search_bound_is_input_error(tmp_path):
    mixed = _mixed_three_variables(tmp_path, 3)
    for argv in (["classify", WOUND, "Wa"], ["classify", mixed, "M"],
                 ["twist", WOUND, "Wa", "1"], ["twist", mixed, "M", "0"]):
        code, out, err = run(argv + ["--search-bound", "-1"])
        assert code == 3 and out == "" and _one_error_line(err)


def test_classify_three_variable_mixed_group_at_p11(tmp_path):
    code, out, err = run(["classify", _mixed_three_variables(tmp_path, 11), "M"])
    assert code == 1 and "Traceback" not in err
    assert out.endswith("wound: refuted\nwitness: (10*a^3, 0, a^3)\n")


def test_python_dash_m_runs_the_cli():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "woundcheck", "selftest-paper", "3"],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: pass" in proc.stdout


@pytest.mark.parametrize("field_line,group_line,argv", [
    # a tower of depth 17 makes every `a` a dense polynomial of degree 3^17
    ("field p=3 e=1 gen=a depth=17", "group G vars=X,Y pivot=X : 1*X^(p^1) + a*Y^(p^1)",
     ["classify"]),
    # a table-based F_q refuses q = 3^71
    ("field p=3 e=71 gen=a depth=0", "group G vars=X,Y pivot=X : 1*X^(p^1) + a*Y^(p^1)",
     ["classify"]),
    # mixed exponents: the polynomial search is dense in the degree p^61
    ("field p=3 e=1 gen=a depth=0", "group G vars=X,Y pivot=X : 1*X^(p^0) + a*Y^(p^61)",
     ["classify"]),
    # twisting by 99 spreads the coefficients to degree p^99
    ("field p=3 e=1 gen=a depth=0", "group G vars=X,Y pivot=X : 1*X^(p^1) + a*Y^(p^1)",
     ["twist", "99"]),
])
def test_oversized_field_or_exponent_is_input_error(tmp_path, field_line, group_line, argv):
    path = tmp_path / "big.txt"
    path.write_text(f"{field_line}\n{group_line}\n", encoding="utf-8")
    code, out, err = run([argv[0], str(path), "G"] + argv[1:])
    assert code == 3 and out == "" and _one_error_line(err)


# (demo file, command and its arguments after the file)
MUTATED_RUNS = [
    ("wound_forms.txt", ["classify", "Wa"]), ("wound_forms.txt", ["classify", "Mixed"]),
    ("wound_forms.txt", ["derive", "Va", "U"]), ("wound_forms.txt", ["check-extension", "Ua"]),
    ("hom_scheme.txt", ["classify", "W"]), ("hom_scheme.txt", ["derive", "Va", "U"]),
    ("hom_scheme.txt", ["verify-hom", "phi_b"]), ("splitting_tower.txt", ["classify", "Wa"]),
    ("splitting_tower.txt", ["verify-hom", "unsplit"]), ("fq_forms.txt", ["classify", "G"]),
]
MUTATION_CHARS = "0123456789aXYZTdep^()*+-/=:;,. \n#"


def _statement_positions(text):
    """Offsets of the characters outside comment lines."""
    out, pos = [], 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            out += range(pos, pos + len(line))
        pos += len(line)
    return out


@st.composite
def mutated_demos(draw):
    """A demo file with one character replaced, inserted or deleted outside
    its comments, and a command to run on it."""
    name, argv = draw(st.sampled_from(MUTATED_RUNS))
    text = (DEMOS / name).read_text(encoding="utf-8")
    i = draw(st.sampled_from(_statement_positions(text)))
    c = draw(st.sampled_from(MUTATION_CHARS))
    cut = draw(st.sampled_from((0, 1)))  # 0 inserts c, 1 replaces or deletes
    if cut and draw(st.booleans()):
        c = ""
    return name, argv, text[:i] + c + text[i + cut:]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(mutated_demos())
def test_mutated_demo_never_tracebacks(tmp_path_factory, case):
    name, argv, text = case
    path = tmp_path_factory.mktemp("mutated") / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run([argv[0], str(path)] + argv[1:])
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code == 3:
        assert out == "" and _one_error_line(err)


def _line_mutations(text):
    """(label, text) for each statement line of text deleted or duplicated."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip() and not line.startswith("#"):
            yield f"line {i + 1} deleted", "".join(lines[:i] + lines[i + 1:])
            yield f"line {i + 1} duplicated", "".join(lines[:i + 1] + lines[i:])


@pytest.mark.parametrize("name,argv", MUTATED_RUNS)
def test_line_mutated_demo_never_tracebacks(tmp_path, name, argv):
    """Every whole-line edit of the demo, beside the one-character edits above."""
    path = tmp_path / name
    for label, text in _line_mutations((DEMOS / name).read_text(encoding="utf-8")):
        path.write_text(text, encoding="utf-8")
        code, out, err = run([argv[0], str(path)] + argv[1:])
        assert code in (0, 1, 2, 3) and "Traceback" not in err, label
        if code == 3:
            assert out == "" and _one_error_line(err), label
