"""Frozen CLI reports: stdout plus a final ``exit: N`` line, byte for byte.

Each case runs one command in-process and compares with
``tests/golden/<name>.txt``.  The files were recorded before the term
accumulator, the polynomial reducer and the parser's term reader were
merged, so they pin that refactors keep every report unchanged.  To
record them again after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from test_cli import DEMOS, HOMS, SPLIT, WOUND, run

GOLDEN = Path(__file__).resolve().parent / "golden"
GROUPS = ("Va", "U", "W")


def _cases():
    cases = {}
    for g in ("Wa", "Va", "U", "Line", "Mixed"):
        cases[f"classify_{g}"] = ["classify", WOUND, g]
    for n in ("0", "1", "2"):
        cases[f"twist_Wa_{n}"] = ["twist", WOUND, "Wa", n]
    cases["twist_Mixed_1"] = ["twist", WOUND, "Mixed", "1"]
    cases["classify_fq_G"] = ["classify", str(DEMOS / "fq_forms.txt"), "G"]
    cases["check_extension_Ua"] = ["check-extension", WOUND, "Ua"]
    cases["reduce_group_Va"] = ["reduce", WOUND, "1*X^(p^3) + a*Y^(p^2) + 2*X^(p^1)",
                                "--group", "Va"]
    cases["reduce_f_pivot_vars"] = ["reduce", WOUND, "a*X^(p^3) + 1*Y^(p^2) + 1*X^(p^0)",
                                    "--f", "1*X^(p^1) + 2*X^(p^0) + a*Y^(p^1)",
                                    "--pivot", "X", "--vars", "X,Y"]
    cases["reduce_params_U"] = ["reduce", HOMS, "(d)*X^(p^2) + (e^3)*Y^(p^1)",
                                "--group", "U"]
    cases["verify_hom_phi_b"] = ["verify-hom", HOMS, "phi_b"]
    cases["verify_hom_split"] = ["verify-hom", SPLIT, "split"]
    cases["verify_iso_split_unsplit"] = ["verify-iso", SPLIT, "split", "unsplit"]
    for src in GROUPS:
        for tgt in GROUPS + ("Ga",):
            cases[f"derive_{src}_{tgt}"] = ["derive", HOMS, src, tgt]
            cases[f"solve_fq_{src}_{tgt}"] = ["solve", HOMS, src, tgt]
            if tgt != "Ga":  # each Ga target over deg1 lists 9^5 maps
                cases[f"solve_deg1_{src}_{tgt}"] = ["solve", HOMS, src, tgt,
                                                    "--domain", "deg1"]
    cases["solve_deg2_Va_U"] = ["solve", HOMS, "Va", "U", "--domain", "deg2"]
    for p in ("2", "3", "5", "7"):
        cases[f"selftest_{p}"] = ["selftest-paper", p]
    return cases


CASES = _cases()


def _report(argv):
    code, out, _ = run(argv)
    return f"{out}exit: {code}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = (GOLDEN / f"{name}.txt").read_bytes()
    assert _report(CASES[name]).encode("utf-8") == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_bytes(_report(argv).encode("utf-8"))
