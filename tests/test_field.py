import random

import pytest

from helpers import dense_add, dense_mul, pow_by_squaring
from woundcheck.field import Field, FieldElem, FieldSpec
from woundcheck.gfq import GFq
from woundcheck import fqpoly as fq
from woundcheck.parser import parse_element, render_elem
from woundcheck.polyring import Poly


def F3a(depth=0):
    return Field(FieldSpec(3, 1, "a", depth))


def rand_elem(field, rng, deg=3, rational=True):
    q = field.spec.q
    num = tuple(rng.randrange(q) for _ in range(rng.randrange(deg + 1) + 1))
    if rational and rng.random() < 0.5:
        den = tuple(rng.randrange(q) for _ in range(rng.randrange(deg) + 1)) + (1,)
        return field.elem(num, den)
    return field.elem(num)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(3, 0)
    with pytest.raises(ValueError):
        FieldSpec(3, 1, "a", -1)


def test_frobenius_generator():
    k = F3a()
    a = k.gen_elem()
    assert a.frobenius(1) == a * a * a
    assert (a + k.one()).frobenius(1) == a ** 3 + k.one()
    assert (k.one() / a).frobenius(2) == k.one() / a ** 9


def test_frobenius_additive_multiplicative():
    k = F3a()
    rng = random.Random(7)
    for _ in range(60):
        x = rand_elem(k, rng)
        y = rand_elem(k, rng)
        n = rng.randrange(3)
        assert (x + y).frobenius(n) == x.frobenius(n) + y.frobenius(n)
        assert (x * y).frobenius(n) == x.frobenius(n) * y.frobenius(n)


def test_pth_root_examples():
    k = F3a()
    a = k.gen_elem()
    assert a.pth_root() is None
    assert (a ** 3 + a ** 6).pth_root() == a + a ** 2
    assert (a ** 2).pth_root() is None


def test_pth_root_roundtrip():
    k = F3a()
    rng = random.Random(11)
    for _ in range(60):
        x = rand_elem(k, rng)
        r = x.frobenius(1).pth_root()
        assert r is not None and r == x
        y = rand_elem(k, rng)
        root = y.pth_root()
        if root is not None:
            assert root.frobenius(1) == y
        else:
            num, den = y.num, y.den
            gf = k.gf
            assert fq.deriv(gf, num) or fq.deriv(gf, den)


def test_pth_root_extension_field():
    k = Field(FieldSpec(3, 2))
    rng = random.Random(3)
    for _ in range(40):
        x = rand_elem(k, rng)
        assert x.frobenius(1).pth_root() == x


def test_extend_depth():
    k = F3a()
    k1 = k.extend(1)
    a = k.base_gen()
    b = k1.gen_elem()
    assert k.embed(a, k1) == b ** 3
    assert k.embed(a + 1, k1) == b.frobenius(1) + 1
    assert k.extend(0) is k
    # (a^(1/p))^p = a in the image
    assert b ** 3 == k1.base_gen()


def test_normalization_canonical():
    k = F3a()
    a = k.gen_elem()
    x = (a ** 2 - 1) / (a - 1)
    assert x == a + 1
    assert x.num == (a + 1).num and x.den == (1,)
    y = (a ** 3 + a) / (a ** 2 * (a ** 2 + 1))
    assert y == k.one() / a
    # denominator stays monic after arithmetic
    w = k.one() / (k.from_int(2) * a + 2)
    assert w.den[-1] == 1


def test_elem_parse_render_roundtrip():
    k = F3a(depth=2)
    rng = random.Random(5)
    for _ in range(50):
        x = rand_elem(k, rng)
        assert parse_element(k, render_elem(x)) == x
    assert render_elem(k.zero()) == "0"
    assert parse_element(k, "a^(1/p^2)") == k.gen_elem()
    assert parse_element(k, "a^(1/p)") == k.gen_elem() ** 3
    assert parse_element(k, "a") == k.gen_elem() ** 9


def test_render_depends_on_the_field_not_only_on_num_and_den():
    # render_elem is memoized; equal (num, den) in other towers print apart
    renders = [render_elem(F3a(depth).gen_elem()) for depth in (0, 1, 2, 0)]
    assert renders == ["a", "a^(1/p^1)", "a^(1/p^2)", "a"]
    assert render_elem(Field(FieldSpec(3, 1, "t")).gen_elem()) == "t"


def test_gfq_extension_tables():
    gf = GFq(2, 3)
    nonzero = list(range(1, 8))
    for x in nonzero:
        assert gf.mul(x, gf.inv(x)) == 1
        assert gf.frob_n(gf.proot(x), 1) == x
    # additive group has exponent 2
    for x in range(8):
        assert gf.add(x, x) == 0


def _count_calls(monkeypatch, name):
    """A list that grows by one entry per call of fqpoly.<name>."""
    calls = []
    real = getattr(fq, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fq, name, counted)
    return calls


@pytest.mark.parametrize("p,e,depth", [(2, 1, 0), (3, 1, 1), (3, 2, 2), (5, 2, 1), (7, 1, 2)])
def test_frobenius_power_makes_no_product(monkeypatch, p, e, depth):
    k = Field(FieldSpec(p, e, "a", depth))
    rng = random.Random(p * 10 + e)
    elems = [rand_elem(k, rng) for _ in range(8)] + [k.gen_elem(), k.one() / k.gen_elem()]
    muls = _count_calls(monkeypatch, "mul")
    for x in elems:
        for n in range(4):
            assert x ** p ** n == x.frobenius(n)
    assert muls == []


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (3, 2), (7, 1)])
def test_power_of_b_denominator_needs_no_division(monkeypatch, p, e):
    """An oracle coordinate u / b^i times v / b^j: the gcd against b^(i+j)
    is read off the x-adic order, with no Euclid and no division."""
    k = Field(FieldSpec(p, e, "a", 2))
    rng = random.Random(p + e)
    elems = []
    for i in range(1, 6):
        num = (rng.randrange(1, k.spec.q),) + tuple(rng.randrange(k.spec.q) for _ in range(4))
        elems.append((num, fq.shift(fq.ONE, i)))
    divisions = _count_calls(monkeypatch, "divmod_")
    for num, den in elems:
        x = k.elem(num, den)
        assert (x.num, x.den) == (fq.norm(num), den)
    for (n1, d1), (n2, d2) in zip(elems, elems[1:]):
        y = k.elem(n1, d1) * k.elem(n2, d2)
        assert y.den == fq.shift(fq.ONE, len(d1) + len(d2) - 2)
    assert divisions == []


@pytest.mark.parametrize("p,depth", [(2, 1), (3, 2), (5, 1), (7, 0)])
def test_product_by_a_power_of_b_is_a_shift(monkeypatch, p, depth):
    """Numerators of 6-11 nonzero coefficients times c*b^k of any length,
    and denominators b^i times b^j: each product is one scaling and a
    shift, so fqpoly.mul runs no multiply-add row (gfq.axpy)."""
    k = Field(FieldSpec(p, 1, "a", depth))
    gf, rng = k.gf, random.Random(p)
    nums = [tuple(rng.randrange(1, p) for _ in range(rng.randrange(6, 12))) for _ in range(6)]
    elems = [k.elem(num, fq.shift(fq.ONE, i)) for i, num in enumerate(nums)]
    monomials = [k.elem(fq.shift((rng.randrange(1, p),), j)) for j in (0, 1, 5, 9, 27, 40)]
    for x in elems:
        for m in monomials:
            assert x * m == k.elem(dense_mul(gf, x.num, m.num), x.den)
        for y in elems:
            num = dense_add(gf, dense_mul(gf, x.num, y.den), dense_mul(gf, y.num, x.den))
            assert x + y == k.elem(num, dense_mul(gf, x.den, y.den))
    pairs = ([(x.num, m.num) for x in elems for m in monomials]
             + [(x.den, y.den) for x in elems for y in elems])
    want = [dense_mul(gf, f, g) for f, g in pairs]
    rows = []
    real_axpy = type(gf).axpy

    def counted(self, out, shift, c, terms):
        rows.append((shift, c))
        return real_axpy(self, out, shift, c, terms)

    monkeypatch.setattr(type(gf), "axpy", counted)
    assert [fq.mul(gf, f, g) for f, g in pairs] == want
    assert [fq.mul(gf, g, f) for f, g in pairs] == want
    assert rows == []
    fq.mul(gf, nums[0], nums[1])
    assert rows


@pytest.mark.parametrize("p,e,depth", [(2, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 0)])
def test_evaluate_takes_each_power_once(monkeypatch, p, e, depth):
    k = Field(FieldSpec(p, e, "a", depth))
    b = k.gen_elem()
    point = (b + 1, k.one() / (b * b + b))
    terms = {(3, 0): 1, (3, 2): 2, (0, 2): 1, (1, 1): 1, (3, 1): b, (p, p * p): 1, (0, 0): b}
    h = Poly(k, 2, {m: k.coerce(c) for m, c in terms.items()})
    want = k.zero()
    for (i, j), c in h.terms.items():
        want = want + c * pow_by_squaring(point[0], i) * pow_by_squaring(point[1], j)
    powers = []
    real = FieldElem.__pow__

    def counted(x, n):
        powers.append(n)
        return real(x, n)

    monkeypatch.setattr(FieldElem, "__pow__", counted)
    assert h.evaluate(point) == want
    distinct = {(i, n) for m in h.terms for i, n in enumerate(m) if n}
    assert len(powers) == len(distinct)


def test_hash_keeps_towers_apart():
    """The element 1 of 24 towers makes 24 dict keys, with distinct hashes,
    while equal elements of separately built fields hash and compare equal."""
    ones = [Field(FieldSpec(p, e, "a", m)).one() for p in (2, 3, 5, 7) for e in (1, 2) for m in range(3)]
    assert len({x: None for x in ones}) == 24
    assert len({hash(x) for x in ones}) == 24
    x = Field(FieldSpec(3, 2, "a", 1)).elem((1, 2), (0, 1))
    y = Field(FieldSpec(3, 2, "a", 1)).elem((1, 2), (0, 1))
    assert x.field is not y.field and x == y and hash(x) == hash(y)
