"""Properties of the field-layer kernels that have exact characteristic-p
shortcuts: the Frobenius-digit power FieldElem.__pow__, the x-adic
fqpoly.gcd and fqpoly.divmod_, and the zero-skipping fqpoly.add, smul and
mul.  Over p in {2, 3, 5, 7}, e in {1, 2} and tower depth 0-2; operands
are drawn mostly as monomials c*x^k, multiples of x^j and Frobenius
images, the shapes the shortcuts take, plus dense products over one
prime above 2^32."""

import random

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dense_add, dense_mul, dense_smul, pow_by_squaring
from woundcheck import fqpoly as fq
from woundcheck.field import Field, FieldSpec
from woundcheck.gfq import GFq

PROPERTY = settings(max_examples=100, deadline=None, database=None)
PRIMES = st.sampled_from((2, 3, 5, 7))
X = sympy.Symbol("x")


@st.composite
def polys(draw, q, max_len=5):
    """c*x^k, or x^j times a random polynomial (possibly zero)."""
    j = draw(st.integers(0, 4))
    if draw(st.booleans()):
        return fq.shift((draw(st.integers(1, q - 1)),), j)
    return fq.norm((0,) * j + tuple(draw(st.lists(st.integers(0, q - 1), max_size=max_len))))


@st.composite
def field_elem(draw):
    field = Field(FieldSpec(draw(PRIMES), draw(st.integers(1, 2)), "a", draw(st.integers(0, 2))))
    q = field.spec.q
    num = draw(polys(q, 3))
    den = draw(polys(q, 3)) or fq.ONE
    return field.elem(num, den)


@given(field_elem(), st.data())
@PROPERTY
def test_power_matches_square_and_multiply(x, data):
    p = x.field.p
    n = data.draw(st.integers(0, p ** 3 + p))
    assert x ** n == pow_by_squaring(x, n)
    assume(not x.is_zero())
    n = data.draw(st.integers(-(p ** 3 + p), -1))
    assert x ** n == pow_by_squaring(x, n)


@st.composite
def operand_pair(draw, e):
    """(gf, f, g, h): f and g share the known factor h, 1 half the time."""
    gf = GFq(draw(PRIMES), e)
    h = draw(polys(gf.q, 3)) if draw(st.booleans()) else fq.ONE
    return gf, fq.mul(gf, draw(polys(gf.q)), h), fq.mul(gf, draw(polys(gf.q)), h), h


def _sympy(f, p):
    return sympy.Poly(list(reversed(f)) or [0], X, modulus=p)


def _tuple(poly, p):
    return fq.norm([int(c) % p for c in reversed(poly.all_coeffs())])


@given(operand_pair(1))
@PROPERTY
def test_prime_field_gcd_and_divmod_match_sympy(case):
    gf, f, g, _ = case
    p = gf.p
    assert fq.gcd(gf, f, g) == _tuple(_sympy(f, p).gcd(_sympy(g, p)), p)
    assume(g)
    quo, rem = _sympy(f, p).div(_sympy(g, p))
    assert fq.divmod_(gf, f, g) == (_tuple(quo, p), _tuple(rem, p))


@given(operand_pair(2))
@PROPERTY
def test_extension_field_division_and_gcd(case):
    gf, f, g, h = case
    d = fq.gcd(gf, f, g)
    if not (f or g):
        assert d == ()
        return
    assert d[-1] == 1
    assert fq.divmod_(gf, f, d)[1] == () and fq.divmod_(gf, g, d)[1] == ()
    assert fq.divmod_(gf, d, h)[1] == ()
    assume(g)
    quo, rem = fq.divmod_(gf, f, g)
    assert fq.add(gf, fq.mul(gf, quo, g), rem) == f
    assert len(rem) < len(g)


@st.composite
def spread_operand(draw, gf):
    """c*x^k, the image of a short polynomial under fq.frob or fq.spread
    (coefficients p^n apart), or a dense polynomial long enough for the
    Kronecker product."""
    q = gf.q
    kind = draw(st.sampled_from(("monomial", "frob", "spread", "dense")))
    if kind == "monomial":
        return fq.shift((draw(st.integers(1, q - 1)),), draw(st.integers(0, 30)))
    size = 12 if kind == "dense" else 4
    f = fq.norm(tuple(draw(st.lists(st.integers(0, q - 1), max_size=size))))
    n = draw(st.integers(0, 2))
    if kind == "frob":
        return fq.frob(gf, f, n)
    if kind == "spread":
        return fq.spread(f, gf.p ** n)
    return f


@st.composite
def kernel_operands(draw):
    """(gf, f, g, c); g cancels the top of f a quarter of the time."""
    gf = GFq(draw(PRIMES), draw(st.integers(1, 2)))
    f, g = draw(spread_operand(gf)), draw(spread_operand(gf))
    if draw(st.integers(0, 3)) == 0:
        g = dense_add(gf, fq.neg(gf, f), fq.norm(g[:len(f) // 2]))
    return gf, f, g, draw(st.integers(0, gf.q - 1))


@given(kernel_operands())
@PROPERTY
def test_sparse_kernels_match_the_dense_loops(case):
    gf, f, g, c = case
    assert fq.add(gf, f, g) == dense_add(gf, f, g)
    assert fq.smul(gf, c, f) == dense_smul(gf, c, f)
    product = fq.mul(gf, f, g)
    assert product == dense_mul(gf, f, g) == fq.mul(gf, g, f)
    if gf.e == 1:
        p = gf.p
        assert product == _tuple(_sympy(f, p) * _sympy(g, p), p)


def test_product_over_a_large_prime():
    """Over F_4294967311 a product of two coefficients exceeds 64 bits, and a
    sum of products exceeds it further; dense operands of 5-12 nonzero
    coefficients take the general product."""
    gf = GFq(4_294_967_311)
    rng = random.Random(11)
    for _ in range(50):
        f, g = (tuple(rng.randrange(1, gf.p) for _ in range(rng.randrange(5, 13)))
                for _ in range(2))
        assert fq.mul(gf, f, g) == dense_mul(gf, f, g) == fq.mul(gf, g, f)
