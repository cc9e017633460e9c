import random

import pytest

from helpers import field_fpa, ppoly, rand_elem
from woundcheck import corpus
from woundcheck.homs import derive_hom_constraints
from woundcheck.params import ParamElem, ParamRing, flatten_ppoly
from woundcheck.parser import parse_ppoly
from woundcheck.polyring import Poly
from woundcheck.ppoly import PPoly


def w_ring(k):
    a = k.base_gen()
    rel = ppoly(k, 2, (0, 2, 1), (0, 0, -k.one()), (1, 1, a))
    return ParamRing(k, ("d", "e"), [(rel, 0)])


def test_free_ring_arithmetic():
    k = field_fpa(3)
    ring = ParamRing(k, ("s", "t"))
    s, t = ring.param("s"), ring.param("t")
    a = k.base_gen()
    x = s * t + a * s
    assert x - s * t == a * s
    assert (s + t).frobenius(1) == s.frobenius(1) + t.frobenius(1)
    assert not x.is_unit()
    assert ring.coerce(a).is_unit()
    assert ring.coerce(2) * ring.coerce(2) == ring.coerce(4)


def test_relation_reduces_pivot_powers():
    k = field_fpa(3)
    ring = w_ring(k)
    d, e = ring.param("d"), ring.param("e")
    a = ring.coerce(k.base_gen())
    # d^(p^2) collapses to d - a e^p under the relation
    assert d.frobenius(2) == d - a * e.frobenius(1)
    # the relation itself normalizes to zero
    assert (d.frobenius(2) - d + a * e.frobenius(1)).is_zero()


def test_parameter_power_is_the_iterated_product():
    k = field_fpa(3)
    ring = w_ring(k)
    for name in ring.names:
        x, acc = ring.param(name), ring.one()
        for n in range(51):
            assert parse_ppoly(f"({name}^{n})*X", ring, ["X"]).coeff(0, 0) == acc, (name, n)
            acc = acc * x


def test_relation_pivot_must_be_unit():
    k = field_fpa(3)
    a = k.base_gen()
    rel = ppoly(k, 2, (0, 2, k.zero()), (1, 1, a))   # zero pivot coefficient
    with pytest.raises(ValueError):
        ParamRing(k, ("d", "e"), [(rel, 0)])


def test_duplicate_pivots_rejected():
    k = field_fpa(3)
    a = k.base_gen()
    rel1 = ppoly(k, 2, (0, 2, 1), (1, 1, a))
    rel2 = ppoly(k, 2, (0, 1, 1), (1, 0, a))
    with pytest.raises(ValueError):
        ParamRing(k, ("d", "e"), [(rel1, 0), (rel2, 0)])


def test_constant_extraction_and_inverse():
    k = field_fpa(3)
    ring = ParamRing(k, ("s",))
    c = ring.coerce(k.base_gen() + 1)
    assert c.constant_value() == k.base_gen() + 1
    assert (c * c.inverse()).is_zero() is False
    assert c * c.inverse() == ring.one()
    with pytest.raises(ValueError):
        ring.param("s").constant_value()


def test_flatten_ppoly_with_params():
    k = field_fpa(3)
    ring = ParamRing(k, ("d",))
    d = ring.param("d")
    # d^p * X + d * X^p over (X, Y), flattened over (X, Y, d)
    f = PPoly(ring, 2, {(0, 0): d.frobenius(1), (0, 1): d})
    flat = flatten_ppoly(f, [0, 1], [2], k, 3)
    want = Poly(k, 3, {(1, 0, 3): k.one(), (3, 0, 1): k.one()})
    assert flat == want


def test_mixed_coefficient_arithmetic():
    k = field_fpa(3)
    ring = ParamRing(k, ("s",))
    s = ring.param("s")
    a = k.base_gen()
    assert a * s == s * a
    assert (a + s) - s == ring.coerce(a)
    f = PPoly(ring, 1, {(0, 0): s})
    g = f.scale(a)
    assert g.terms[(0, 0)] == a * s


def _rings():
    """The ansatz ring of Va -> U at p = 3, free, and W2's relation ring at
    p = 2, whose products of parameters reduce."""
    k3, k2 = field_fpa(3), field_fpa(2)
    ansatz = derive_hom_constraints(corpus.group_va(k3), corpus.group_u(k3)).ring
    return [ansatz, corpus.hom_ring_w2(k2)]


@pytest.mark.parametrize("ring", _rings(), ids=("ansatz", "w2_relations"))
def test_scaling_by_a_constant_matches_the_generic_product(ring):
    """x * c and c * x for a field or int constant c equal the product of x
    with the constant polynomial c, normalized."""
    k = ring.base
    rng = random.Random(8101)
    params = [ring.param(n) for n in ring.names]
    for _ in range(30):
        x = ring.coerce(rand_elem(k, rng, rational=True))
        for _ in range(3):
            u, v = rng.choice(params), rng.choice(params)
            x = x + rand_elem(k, rng) * u.frobenius(rng.randrange(4)) * v
        for c in (0, 1, -1, rng.randrange(-9, 10), k.zero(), rand_elem(k, rng),
                  rand_elem(k, rng, rational=True), k.one() / (k.base_gen() + 1)):
            want = ParamElem(ring, x.poly * ring.coerce(c).poly)
            assert (x * c).poly.terms == want.poly.terms, (x, c)
            assert (c * x).poly.terms == want.poly.terms, (x, c)
