import pytest

from woundcheck import corpus
from woundcheck.parser import ParseError, parse_ppoly, render_ppoly
from woundcheck.session import parse_session, render_extension, render_group, render_map

WOUND = """
field p=3 e=1 gen=a depth=0
group Wa vars=X,Y pivot=X : 1*X^(p^0) + 1*X^(p^1) + a*Y^(p^1)
group Va vars=X,Y pivot=X : 2*X^(p^0) + 1*X^(p^2) + a*Y^(p^2)
extension Ua center=Wa base=Va : h1 = 1*X*X'^3 + 2*X^3*X' ; h2 = 1*X*Y'^3 + 2*X'*Y^3
"""


def test_parse_basic_session():
    s = parse_session(WOUND)
    assert s.field.spec.p == 3
    assert set(s.groups) == {"Wa", "Va"}
    assert s.groups["Wa"].f == corpus.group_wa(s.field).f
    assert s.groups["Va"].pivot == 0
    ext = s.extensions["Ua"]
    assert ext.h == corpus.gabber_cocycle(s.field)


def test_group_render_roundtrip():
    s = parse_session(WOUND)
    for g in s.groups.values():
        line = render_group(g)
        s2 = parse_session(f"field p=3 e=1 gen=a depth=0\n{line}\n")
        assert s2.groups[g.name].f == g.f
        assert s2.groups[g.name].pivot == g.pivot


def test_extension_render_roundtrip():
    s = parse_session(WOUND)
    ext = s.extensions["Ua"]
    text = "field p=3 e=1 gen=a depth=0\n" + "\n".join(
        render_group(g) for g in s.groups.values()) + "\n" + render_extension(ext)
    s2 = parse_session(text)
    assert s2.extensions["Ua"].h == ext.h


def test_map_with_params_roundtrip():
    text = """
field p=3 e=1 gen=a depth=0
params d,e
relation pivot=d : 1*d^(p^2) + 2*d^(p^0) + a*e^(p^1)
group Va vars=X,Y pivot=X : 2*X^(p^0) + 1*X^(p^2) + a*Y^(p^2)
group U vars=X,Y pivot=X : 2*X^(p^0) + 1*X^(p^1) + a*Y^(p^1)
map phi from=Va to=U : X -> (d^3)*X^(p^0) + (d)*X^(p^1) ; Y -> (e)*X^(p^0) + (d)*Y^(p^1)
"""
    s = parse_session(text)
    m = s.maps["phi"]
    want = corpus.phi_b_map(s.field)
    assert [c.terms for c in m.coords] == [dict(c.terms) for c in want.coords]
    line = render_map(m).replace("map phi ", "map phi2 ", 1)
    s2 = parse_session(text + "\n" + line + "\n")
    assert s2.maps["phi2"].coords == m.coords


def test_depth_tower_session():
    text = """
field p=3 e=1 gen=a depth=1
group Wa vars=X,Y pivot=X : 1*X^(p^0) + 1*X^(p^1) + a*Y^(p^1)
map split from=Wa to=Ga : T -> 1*X^(p^0) + a^(1/p^1)*Y^(p^0)
"""
    s = parse_session(text)
    f, _ = corpus.wa_splitting_pair(corpus.base_field(3))
    assert s.maps["split"].coords == f.coords


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_session("group G vars=X pivot=X : 1*X^(p^0)\n")  # no field yet
    with pytest.raises(ParseError):
        parse_session("field p=4 e=1 gen=a depth=0\n")          # p not prime
    with pytest.raises(ParseError):
        parse_session(WOUND + "\ngroup Wa vars=X pivot=X : 1*X^(p^0)\n")  # dup name
    with pytest.raises(ParseError):
        parse_session("field p=3 e=1 gen=a depth=0\n"
                      "group G vars=X,Y pivot=Z : 1*X^(p^0)\n")  # bad pivot
    with pytest.raises(ParseError):
        parse_session("field p=3 e=1 gen=a depth=0\n"
                      "group G vars=X,Y pivot=Y : 1*X^(p^0)\n")  # pivot absent from f
    with pytest.raises(ParseError):
        parse_session("field p=3 e=1 gen=a depth=0\n"
                      "bogus statement\n")


def test_depth_guard_in_elements():
    with pytest.raises(ParseError):
        parse_session("field p=3 e=1 gen=a depth=0\n"
                      "group G vars=X,Y pivot=X : a^(1/p^1)*X^(p^0)\n")


def test_ppoly_parse_accepts_any_order_and_bare_vars():
    s = parse_session(WOUND)
    k = s.field
    f1 = parse_ppoly("a*Y^(p^1) + 1*X^(p^1) + 1*X^(p^0)", k, ("X", "Y"))
    f2 = parse_ppoly("X + X^(p^1) + a*Y^(p^1)", k, ("X", "Y"))
    assert f1 == f2 == s.groups["Wa"].f
    assert parse_ppoly(render_ppoly(f1, ("X", "Y")), k, ("X", "Y")) == f1


_HEADER_BASE = """field p=3 e=1 gen=a depth=0
params d
group G vars=X,Y pivot=X : 1*X^(p^0) + 1*X^(p^1) + a*Y^(p^1)
"""


@pytest.mark.parametrize("line", [
    "group H pivot=X : 1*X^(p^0)",                       # no vars=
    "group",                                             # nothing but the kind
    "extension E base=G : h1 = 0 ; h2 = 0",              # no center=
    "map m from=G : T -> 1*X^(p^0)",                     # no to=
    "relation : 1*d^(p^1) + 1*d^(p^0)",                  # no pivot=
])
def test_incomplete_statement_header_is_one_error_line(tmp_path, line):
    from test_cli import run
    path = tmp_path / "bad.txt"
    path.write_text(_HEADER_BASE + line + "\n", encoding="utf-8")
    code, out, err = run(["classify", str(path), "G"])
    assert code == 3 and out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: line 4: ")
    assert "Traceback" not in err


_PHI_B_Y = " ; Y -> (e)*X^(p^0) + (d)*Y^(p^1)"
_UA_H2 = " ; h2 = 1*X*Y'^3 + 2*X'*Y^3"


@pytest.mark.parametrize("demo,old,new,argv,message", [
    ("hom_scheme.txt", _PHI_B_Y, _PHI_B_Y + " ; Q -> 1*X^(p^0)", ["verify-hom", "phi_b"],
     "line 12: map coordinate 'Q' is not one of X, Y"),
    ("hom_scheme.txt", _PHI_B_Y, " ; Y -> 0 ; Y -> 1*X^(p^0)", ["verify-hom", "phi_b"],
     "line 12: map coordinate 'Y' is given twice"),
    ("hom_scheme.txt", _PHI_B_Y, "", ["verify-hom", "phi_b"],
     "line 12: missing map coordinate 'Y'"),
    ("wound_forms.txt", _UA_H2, _UA_H2 + " ; h3 = 0", ["check-extension", "Ua"],
     "line 11: extension component 'h3' is not one of h1, h2"),
    ("wound_forms.txt", _UA_H2, _UA_H2 + " ; h1 = 0", ["check-extension", "Ua"],
     "line 11: extension component 'h1' is given twice"),
    ("wound_forms.txt", _UA_H2, "", ["check-extension", "Ua"],
     "line 11: missing extension component 'h2'"),
], ids=["map-unknown", "map-twice", "map-missing", "ext-unknown", "ext-twice", "ext-missing"])
def test_statement_body_names_each_part_once(tmp_path, demo, old, new, argv, message):
    """A map coordinate or an extension component that the target lacks, or
    that is given twice, is refused rather than dropped or overridden."""
    from test_cli import DEMOS, run
    text = (DEMOS / demo).read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / demo
    path.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run([argv[0], str(path)] + argv[1:])
    assert code == 3 and out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert errors == [f"error: {message}"] and "Traceback" not in err


_VA_LINE = "group Va vars=X,Y pivot=X : 2*X^(p^0) + 1*X^(p^2) + a*Y^(p^2)\n"


@pytest.mark.parametrize("line", [
    "extension E center=Ga base=Va : h1 = X*X'^3",
    "extension E center=Va base=Ga : h1 = T*T'^3 ; h2 = T",
], ids=["center-Ga", "base-Ga"])
def test_extension_over_the_line_is_input_error(tmp_path, line):
    """An extension whose center or base is Ga is refused at its line, and
    by the CocycleExtension constructor itself."""
    from test_cli import run
    from woundcheck.groups import AffineLine, CocycleExtension
    path = tmp_path / "ext.txt"
    path.write_text("field p=3 e=1 gen=a depth=0\n" + _VA_LINE + line + "\n", encoding="utf-8")
    code, out, err = run(["check-extension", str(path), "E"])
    assert code == 3 and out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert errors == ["error: line 3: an extension's center and base must be "
                      "hypersurface groups, not Ga"]
    assert "Traceback" not in err
    va = parse_session("field p=3 e=1 gen=a depth=0\n" + _VA_LINE).groups["Va"]
    center, base = (AffineLine(), va) if "center=Ga" in line else (va, AffineLine())
    with pytest.raises(ValueError, match="not Ga"):
        CocycleExtension("E", center, base, ())


_PARAMS_HEAD = """field p=3 e=1 gen=a depth=0
params d,e
relation pivot=d : 1*d^(p^2) + 2*d^(p^0) + a*e^(p^1)
"""
_PARAMS_TAIL = """group Va vars=X,Y pivot=X : 2*X^(p^0) + 1*X^(p^2) + a*Y^(p^2)
group U vars=X,Y pivot=X : 2*X^(p^0) + 1*X^(p^1) + a*Y^(p^1)
"""


@pytest.mark.parametrize("second,map_line", [
    # the relation on d would silently apply to f
    ("params f,g", "map m from=Va to=U : X -> (f)*X^(p^0) ; Y -> 0"),
    # the error would name the map's line
    ("params f", "map m from=Va to=U : X -> (f)*X^(p^0) ; Y -> (f)*Y^(p^1)"),
], ids=["same-length", "shorter"])
def test_second_params_statement_is_input_error(tmp_path, second, map_line):
    from test_cli import run
    path = tmp_path / "params.txt"
    path.write_text(_PARAMS_HEAD + second + "\n" + _PARAMS_TAIL + map_line + "\n",
                    encoding="utf-8")
    code, out, err = run(["verify-hom", str(path), "m"])
    assert code == 3 and out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert errors == ["error: line 4: duplicate params statement"]
    assert "Traceback" not in err


def test_parsers_refuse_a_variable_named_twice():
    """Both term readers build {name: slot}; a repeated name would let the
    last slot win, so it is refused instead."""
    from woundcheck.parser import parse_poly
    k = parse_session(WOUND).field
    with pytest.raises(ParseError, match="variable 'X' is named twice"):
        parse_ppoly("X + Y^(p)", k, ("X", "Y", "X"))
    with pytest.raises(ParseError, match="variable \"X'\" is named twice"):
        parse_poly("X*X'", k, ("X", "X'", "X'", "X''"))


_TWICE_HEAD = "field p=3 e=1 gen=a depth=0\n"


@pytest.mark.parametrize("body,argv,message", [
    # principal part aX^p + Y^p is wound, but the last X slot used to win
    ("group G vars=X,Y,X pivot=Y : X + Y^(p) + a*X^(p)\n", ["classify", "G"],
     "line 2: variable 'X' is named twice"),
    # the empty name used to be a third variable, refuted by (0, 1, 0)
    ("group G vars=X,,Y pivot=X : X + X^(p) + a*Y^(p)\n", ["classify", "G"],
     "line 2: empty variable name"),
    # the base's X' used to be read as the primed copy of X
    ("group C vars=Z,W pivot=Z : Z + Z^(p) + a*W^(p)\n"
     "group B vars=X,X' pivot=X : X + X^(p) + a*X'^(p)\n"
     "extension E center=C base=B : h1 = X*X' ; h2 = 0\n", ["check-extension", "E"],
     "line 4: variable \"X'\" is named twice"),
], ids=["group-vars", "group-empty-name", "extension-base"])
def test_variable_named_twice_is_one_error_line(tmp_path, body, argv, message):
    from test_cli import run
    path = tmp_path / "twice.txt"
    path.write_text(_TWICE_HEAD + body, encoding="utf-8")
    code, out, err = run([argv[0], str(path)] + argv[1:])
    assert code == 3 and out == ""
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert errors == [f"error: {message}"] and "Traceback" not in err
