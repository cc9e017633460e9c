import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (field_fpa, ppoly, rand_elem, rand_ppoly, reference_reduce_mod, va_poly,
                     wa_poly, w2_poly)
from woundcheck.field import Field, FieldSpec
from woundcheck.params import ParamRing
from woundcheck.ppoly import PPoly, is_smooth, reduce_mod


def test_evaluate_examples():
    k = field_fpa(3)
    wa = wa_poly(k)
    zero, one = k.zero(), k.one()
    assert wa.evaluate((zero, zero)).is_zero()
    u = ppoly(k, 2, (0, 1, 1), (0, 0, -k.one()), (1, 1, k.base_gen()))
    assert u.evaluate((one, zero)).is_zero()


def test_evaluate_splitting_parametrization():
    # substituting the splitting maps of the first wound example kills it,
    # as an identity in a free parameter over the depth-1 tower
    k = field_fpa(3, depth=1)
    wa = wa_poly(k)
    ring = ParamRing(k, ("T",))
    t = ring.param("T")
    b = k.gen_elem()  # a^(1/3)
    x = -t.frobenius(1)
    y = b.inverse() * (t + t.frobenius(1))
    assert wa.evaluate((x, y)).is_zero()


def test_evaluate_additive_in_each_slot():
    # with all other arguments at 0, evaluation is additive per slot,
    # and the all-zero point maps to 0
    k = field_fpa(3)
    rng = random.Random(31)
    for _ in range(30):
        f = rand_ppoly(k, rng, 3)
        assert f.evaluate([k.zero()] * 3).is_zero()
        slot = rng.randrange(3)
        x, y = rand_elem(k, rng, rational=True), rand_elem(k, rng, rational=True)
        def at(v):
            pt = [k.zero()] * 3
            pt[slot] = v
            return f.evaluate(pt)
        assert at(x + y) == at(x) + at(y)


def test_compose_associative_with_evaluation():
    k = field_fpa(3)
    rng = random.Random(77)
    for _ in range(20):
        f = rand_ppoly(k, rng, 2, max_exp=2)
        gs = [rand_ppoly(k, rng, 2, max_exp=2) for _ in range(2)]
        pt = [rand_elem(k, rng) for _ in range(2)]
        lhs = f.compose(gs).evaluate(pt)
        rhs = f.evaluate([g.evaluate(pt) for g in gs])
        assert lhs == rhs


def test_compose_identity_and_frobenius():
    k = field_fpa(3)
    wa = wa_poly(k)
    ident = [PPoly.variable(k, 2, 0), PPoly.variable(k, 2, 1)]
    assert wa.compose(ident) == wa
    tp = PPoly.variable(k, 1, 0, 1)
    assert tp.compose([tp]) == PPoly.variable(k, 1, 0, 2)


def test_principal_and_linear_parts():
    k = field_fpa(3)
    a = k.base_gen()
    wa = wa_poly(k)
    assert wa.principal_part() == ppoly(k, 2, (0, 1, 1), (1, 1, a))
    assert wa.linear_part() == ppoly(k, 2, (0, 0, 1))
    assert is_smooth(wa)
    x3 = ppoly(k, 1, (0, 1, 1))
    assert x3.principal_part() == x3
    assert not is_smooth(x3)
    va = va_poly(k)
    assert va.linear_part() == ppoly(k, 2, (0, 0, -k.one()))
    assert is_smooth(va)
    x = PPoly.variable(k, 1, 0)
    assert x.principal_part() == x

    k2 = field_fpa(2)
    w2 = w2_poly(k2)
    a2 = k2.base_gen()
    assert w2.principal_part() == ppoly(k2, 3, (0, 2, 1), (1, 1, a2), (2, 3, a2 * a2))


def test_frobenius_twist():
    k = field_fpa(3)
    a = k.base_gen()
    wa = wa_poly(k)
    assert wa.frobenius_twist(1) == ppoly(k, 2, (0, 0, 1), (0, 1, 1), (1, 1, a ** 3))
    assert wa.frobenius_twist(0) == wa
    va = va_poly(k)
    assert va.frobenius_twist(2) == ppoly(k, 2, (0, 2, 1), (0, 0, -k.one()), (1, 2, a ** 9))


def test_relative_frobenius_identity():
    k = field_fpa(3)
    rng = random.Random(2)
    for _ in range(25):
        f = rand_ppoly(k, rng, 2)
        pt = [rand_elem(k, rng, rational=True) for _ in range(2)]
        n = rng.randrange(3)
        lhs = f.frobenius_twist(n).evaluate([x.frobenius(n) for x in pt])
        assert lhs == f.evaluate(pt).frobenius(n)


def test_reduce_mod_examples():
    k = field_fpa(3)
    a = k.base_gen()
    fv = va_poly(k)
    h = ppoly(k, 2, (0, 2, 1))  # X^(p^2)
    tr = reduce_mod(h, fv, 0)
    assert tr.remainder == ppoly(k, 2, (0, 0, 1), (1, 2, -a))
    assert tr.replay() == h

    h3 = ppoly(k, 2, (0, 3, 1))  # X^(p^3)
    tr3 = reduce_mod(h3, fv, 0)
    assert tr3.remainder == ppoly(k, 2, (0, 1, 1), (1, 3, -(a ** 3)))
    assert tr3.replay() == h3

    trf = reduce_mod(fv, fv, 0)
    assert trf.remainder.is_zero()
    assert trf.replay() == fv


def test_reduce_mod_degree_zero_pivot():
    # relation Y = 0 eliminates the pivot entirely
    k = field_fpa(3)
    fy = ppoly(k, 2, (1, 0, 1))
    h = ppoly(k, 2, (1, 0, 1), (1, 2, k.base_gen()), (0, 1, 1))
    tr = reduce_mod(h, fy, 1)
    assert tr.remainder == ppoly(k, 2, (0, 1, 1))
    assert tr.replay() == h


def test_reduce_mod_errors():
    k = field_fpa(3)
    fv = va_poly(k)
    with pytest.raises(ValueError):
        reduce_mod(fv, fv, 5)
    with pytest.raises(ValueError):
        reduce_mod(fv, PPoly.zero(k, 2), 0)
    with pytest.raises(TypeError, match="normal_form"):
        reduce_mod(fv.to_poly(), fv, 0)


@st.composite
def _coefficients(draw, field):
    q = field.spec.q
    num = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
    den = draw(st.lists(st.integers(0, q - 1), max_size=2)) + [1]
    c = field.elem(num, den if draw(st.booleans()) else (1,))
    return c if c else field.one()


@st.composite
def _division_cases(draw):
    """(h, f, pivot, c, j) over F_q(a^(1/p^m)), p in {2, 3, 5, 7},
    e in {1, 2}, m in {0, 1, 2}; exponents p^i up to p^3 for p <= 3 and
    p^2 above."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    k = Field(FieldSpec(p, draw(st.integers(1, 2)), "a", draw(st.integers(0, 2))))
    nvars = draw(st.integers(1, 3))
    slots = st.tuples(st.integers(0, nvars - 1), st.integers(0, 3 if p <= 3 else 2))
    f = PPoly(k, nvars, draw(st.dictionaries(slots, _coefficients(k), min_size=1, max_size=4)))
    h = PPoly(k, nvars, draw(st.dictionaries(slots, _coefficients(k), min_size=1, max_size=5)))
    pivot = draw(st.sampled_from(sorted(f.vars_present())))
    return h, f, pivot, draw(_coefficients(k)), draw(st.integers(0, 2))


@given(_division_cases())
@settings(max_examples=100, deadline=None, database=None)
def test_division_properties_random(case):
    h, f, pivot, c, j = case
    tr = reduce_mod(h, f, pivot)
    # remainder degree bound, p-polynomial closure, exact replay
    top = tr.remainder.max_exp(pivot)
    assert top is None or top < f.max_exp(pivot)
    assert isinstance(tr.remainder, PPoly)
    assert tr.replay() == h
    # idempotence
    again = reduce_mod(tr.remainder, f, pivot)
    assert again.remainder == tr.remainder and not again.steps
    # uniqueness under adding explicit multiples of f
    shifted = h + f.frob_power(j).scale(c)
    assert reduce_mod(shifted, f, pivot).remainder == tr.remainder


@given(_division_cases())
@settings(max_examples=100, deadline=None, database=None)
def test_step_multiplier_formed_once_matches_the_reference(case):
    """c (-u^-1)^(p^j) b^(p^j) equals c ((-u^-1) b)^(p^j): the trace is the
    reference's, for field coefficients and for the symbolic dividend
    s h + t over a parameter ring."""
    h, f, pivot, _, _ = case
    ring = ParamRing(h.dom, ("s", "t"))
    s, t = ring.param("s"), ring.param("t")
    hs = PPoly(ring, h.nvars, {k: s * c + t for k, c in h.terms.items()})
    for dividend in (h, hs):
        got, want = reduce_mod(dividend, f, pivot), reference_reduce_mod(dividend, f, pivot)
        assert got.steps == want.steps
        assert got.remainder == want.remainder
