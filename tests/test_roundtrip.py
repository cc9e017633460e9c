"""parse(render(x)) == x for field elements, p-polynomials (over the field
and over a free parameter ring) and polynomials, over F_q(a^(1/p^m)) with
p in {2, 3, 5, 7}, e in {1, 2} and tower depth m in {0, 1, 2}."""

from hypothesis import given, settings
from hypothesis import strategies as st

from woundcheck.field import Field, FieldSpec
from woundcheck.params import ParamElem, ParamRing
from woundcheck.parser import (parse_element, parse_poly, parse_ppoly, render_elem,
                               render_poly, render_ppoly)
from woundcheck.polyring import Poly
from woundcheck.ppoly import PPoly

PROPERTY = settings(max_examples=100, deadline=None, database=None)
VARS = ("X", "Y", "Z")
PARAMS = ("d", "e")

fields = st.builds(lambda p, e, depth: Field(FieldSpec(p, e, "a", depth)),
                   st.sampled_from((2, 3, 5, 7)), st.integers(1, 2), st.integers(0, 2))


@st.composite
def elements(draw, field):
    def coeffs():
        return draw(st.lists(st.integers(0, field.spec.q - 1), max_size=3))
    den = coeffs()
    return field.elem(coeffs(), den if any(den) else (1,))


@st.composite
def field_and_elem(draw):
    field = draw(fields)
    return field, draw(elements(field))


@st.composite
def poly_over(draw, field, nvars, max_exp):
    monos = st.tuples(*[st.integers(0, max_exp)] * nvars)
    terms = draw(st.dictionaries(monos, elements(field), max_size=3))
    return Poly(field, nvars, terms)


@st.composite
def field_and_ppoly(draw, params):
    field = draw(fields)
    nvars = draw(st.integers(1, len(VARS)))
    if params:
        ring = ParamRing(field, PARAMS)
        coef = poly_over(field, len(PARAMS), 2).map(lambda q: ParamElem(ring, q))
        dom = ring
    else:
        coef = elements(field)
        dom = field
    slots = st.tuples(st.integers(0, nvars - 1), st.integers(0, 3))
    return PPoly(dom, nvars, draw(st.dictionaries(slots, coef, max_size=4))), dom


@st.composite
def field_and_poly(draw):
    field = draw(fields)
    return draw(poly_over(field, draw(st.integers(1, len(VARS))), 4))


@PROPERTY
@given(field_and_elem())
def test_element_roundtrip(case):
    field, x = case
    assert parse_element(field, render_elem(x)) == x


@PROPERTY
@given(field_and_ppoly(params=False))
def test_ppoly_roundtrip(case):
    f, dom = case
    names = VARS[:f.nvars]
    assert parse_ppoly(render_ppoly(f, names), dom, names) == f


@PROPERTY
@given(field_and_ppoly(params=True))
def test_param_ppoly_roundtrip(case):
    f, dom = case
    names = VARS[:f.nvars]
    assert parse_ppoly(render_ppoly(f, names), dom, names) == f


@PROPERTY
@given(field_and_poly())
def test_poly_roundtrip(f):
    names = VARS[:f.nvars]
    assert parse_poly(render_poly(f, names), f.field, names) == f
