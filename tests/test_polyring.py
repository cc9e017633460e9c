import random

import pytest

from helpers import field_fpa, ppoly, rand_elem, va_poly
from woundcheck.polyring import Poly, RelationSet, is_identically_zero, normal_form
from woundcheck.ppoly import to_relation


def gabber_setup(p=3):
    """Ambient (x, y, x', y') with both copies of the V relation, plus h."""
    k = field_fpa(p)
    a = k.base_gen()
    fv1 = ppoly(k, 4, (0, 2, 1), (0, 0, -k.one()), (1, 2, a))
    fv2 = ppoly(k, 4, (2, 2, 1), (2, 0, -k.one()), (3, 2, a))
    rset = RelationSet(4, [to_relation(fv1, 0), to_relation(fv2, 2)])

    def var(i, e=0):
        m = [0] * 4
        m[i] = p ** e
        return Poly(k, 4, {tuple(m): k.one()})

    x, y, xp, yp = var(0), var(1), var(2), var(3)
    h1 = x * var(2, 1) - var(0, 1) * xp
    h2 = x * var(3, 1) - xp * var(1, 1)
    return k, rset, (h1, h2)


def test_normal_form_relation_itself():
    k = field_fpa(3)
    fv = va_poly(k)
    rset = RelationSet(2, [to_relation(fv, 0)])
    assert normal_form(fv.to_poly(), rset).is_zero()


def test_normal_form_divides_a_general_polynomial():
    # division lemma (i): a general polynomial has a unique remainder too
    k = field_fpa(3)
    a = k.base_gen()
    fv = ppoly(k, 2, (0, 2, 1), (0, 0, -k.one()), (1, 2, a))
    rset = RelationSet(2, [to_relation(fv, 0)])
    h = Poly(k, 2, {(10, 1): k.one(), (2, 0): a})  # x^(p^2+1) y + a x^2
    nf = normal_form(h, rset)
    assert nf.deg_in(0) < 9
    assert nf != h
    assert normal_form(nf, rset) == nf
    # adding a polynomial multiple of f does not change the remainder
    mult = Poly(k, 2, {(1, 2): a + 1})
    assert normal_form(h + mult * fv.to_poly(), rset) == nf


def test_normal_form_one_rewrite():
    k, rset, _ = gabber_setup()
    a = k.base_gen()
    h = Poly(k, 4, {(9, 0, 1, 0): k.one()})  # x^(p^2) * x'
    got = normal_form(h, rset)
    want = Poly(k, 4, {(1, 0, 1, 0): k.one(), (0, 9, 1, 0): -a})
    assert got == want


def test_gabber_h_lands_in_wa():
    k, rset, (h1, h2) = gabber_setup()
    a = k.base_gen()
    landing = h1 + h1.frob_pow(1) + h2.frob_pow(1).scale(a)
    assert is_identically_zero(landing, rset)


def test_gabber_commutator_nonzero():
    k, rset, (h1, h2) = gabber_setup()
    swap = [Poly.variable(k, 4, i) for i in (2, 3, 0, 1)]
    comm = h1 - h1.substitute(swap)
    assert not is_identically_zero(comm, rset)


def test_gabber_commutator_vanishes_p2():
    k, rset, (h1, h2) = gabber_setup(p=2)
    swap = [Poly.variable(k, 4, i) for i in (2, 3, 0, 1)]
    comm = h1 - h1.substitute(swap)
    assert is_identically_zero(comm, rset)


def test_phi_b_landing_identity():
    # the hom-scheme example map, flattened over (X, Y, d, e)
    k = field_fpa(3)
    a = k.base_gen()
    fv = ppoly(k, 4, (0, 2, 1), (0, 0, -k.one()), (1, 2, a))
    frel = ppoly(k, 4, (2, 2, 1), (2, 0, -k.one()), (3, 1, a))
    rset = RelationSet(4, [to_relation(fv, 0), to_relation(frel, 2)])
    m1 = Poly(k, 4, {(1, 0, 3, 0): k.one(), (3, 0, 1, 0): k.one()})
    m2 = Poly(k, 4, {(1, 0, 0, 1): k.one(), (0, 3, 1, 0): k.one()})
    landing = m1.frob_pow(1) - m1 + m2.frob_pow(1).scale(a)
    assert is_identically_zero(landing, rset)


def test_normal_form_idempotent_and_additive():
    k, rset, (h1, h2) = gabber_setup()
    polys = [h1, h2, h1 * h2, h1.frob_pow(1) + h2]
    for h in polys:
        nf = normal_form(h, rset)
        assert normal_form(nf, rset) == nf
    h1n, h2n = normal_form(h1 * h1, rset), normal_form(h2, rset)
    assert normal_form(h1 * h1 + h2, rset) == normal_form(h1n + h2n, rset)


def test_relation_block_overlap_rejected():
    k = field_fpa(3)
    a = k.base_gen()
    f1 = ppoly(k, 2, (0, 2, 1), (0, 0, -k.one()), (1, 2, a))
    f2 = ppoly(k, 2, (1, 1, 1), (0, 1, a))
    with pytest.raises(ValueError):
        RelationSet(2, [to_relation(f1, 0), to_relation(f2, 1)])


def test_non_unit_pivot_rejected():
    from woundcheck.params import ParamRing
    k = field_fpa(3)
    ring = ParamRing(k, ("d",))
    f = None
    from woundcheck.ppoly import PPoly
    f = PPoly(ring, 1, {(0, 1): ring.param("d"), (0, 0): ring.one()})
    with pytest.raises(ValueError):
        to_relation(f, 0)


def _rand_poly(k, rng, nvars, nterms, exps, rational):
    """Up to nterms monomials with exponents drawn from exps and random
    coefficients of degree <= 1, some rational when rational is set."""
    terms = {tuple(rng.choice(exps) for _ in range(nvars)):
             rand_elem(k, rng, deg=1, rational=rational) for _ in range(nterms)}
    return Poly(k, nvars, terms)


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_substitute_is_the_evaluation_homomorphism(p, e, depth):
    """Substituting and then evaluating is evaluating at the substituted
    values, for exponents that are p-powers and others."""
    k = field_fpa(p, depth, e)
    rng = random.Random(100 * p + 10 * e + depth)
    for _ in range(3):
        h = _rand_poly(k, rng, 2, 3, (0, 1, 2, p, p + 1), rational=True)
        args = [_rand_poly(k, rng, 3, 2, (0, 1, 2), rational=False) for _ in range(2)]
        x = [rand_elem(k, rng, rational=True) for _ in range(3)]
        assert h.substitute(args).evaluate(x) == h.evaluate([a.evaluate(x) for a in args])
    one = Poly.constant(k, 0, k.one())
    assert one.substitute([]) == one


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pow_is_the_repeated_product(p, e, depth):
    k = field_fpa(p, depth, e)
    rng = random.Random(100 * p + 10 * e + depth)
    g = _rand_poly(k, rng, 2, 2, (0, 1, 2), rational=True)
    acc = Poly.constant(k, 2, k.one())
    for n in range(2 * p + 2):
        assert g.pow_(n) == acc, n
        acc = acc * g
