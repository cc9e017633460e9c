"""Properties of the field-layer kernels that have exact shortcuts: the
Zech-table sum and negation of gfq, in every field with e >= 2 and
q <= 4096, against digit-wise arithmetic mod p; the multiply-add row
gfq.axpy that runs fqpoly's product and division; the Frobenius-digit
power FieldElem.__pow__; the p-th root, the inverse of Frobenius on
k^p; Henrici's reduced sum and product of FieldElem, with and
without a unit denominator on either side; the lcm of
common_denominator and clear_denominators; the x-adic fqpoly.gcd;
fqpoly.divmod_ on sparse divisors; and the zero-skipping fqpoly.add,
smul and mul.  The property suites run over
p in {2, 3, 5, 7}, e in {1, 2} and tower depth 0-2; operands are drawn
mostly as monomials c*x^k, multiples of x^j, Frobenius images and
x^o*g(x^s), the shapes the shortcuts take, plus dense products over one
prime above 2^32, over which rref runs too.  The references are the
dense loops of tests/helpers.py and, at e = 1, sympy."""

import random
import time

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (dense_add, dense_divmod, dense_mul, dense_rref, dense_smul,
                     pow_by_squaring, table_fields)
from woundcheck import fqpoly as fq
from woundcheck.field import (Field, FieldSpec, clear_denominators, common_denominator,
                              kernel_basis, rref)
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
def field_elem(draw, field=None):
    if field is None:
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


@given(field_elem())
@PROPERTY
def test_pth_root_inverts_frobenius(x):
    assert x.frobenius(1).pth_root() == x
    root = x.pth_root()
    assert root is None or root.frobenius(1) == x


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


def _digitwise(gf, a, b):
    return gf.undigits([(x + y) % gf.p for x, y in zip(gf.digits(a), gf.digits(b))])


def test_zech_sum_and_negation_match_the_digits_on_every_pair():
    """Every pair of codes in every field with e >= 2 and q <= 256."""
    for gf in table_fields(256):
        p = gf.p
        for a in range(gf.q):
            assert gf.neg(a) == gf.undigits([-d % p for d in gf.digits(a)]), (gf, a)
            assert gf.add(a, gf.neg(a)) == 0
            assert [gf.add(a, b) for b in range(gf.q)] == [
                _digitwise(gf, a, b) for b in range(gf.q)], (gf, a)


def test_zech_sum_and_negation_match_the_digits_on_sampled_pairs():
    rng = random.Random(15)
    for gf in table_fields(4096):
        p = gf.p
        for _ in range(500):
            a, b = rng.randrange(gf.q), rng.randrange(gf.q)
            assert gf.add(a, b) == _digitwise(gf, a, b), (gf, a, b)
            assert gf.neg(a) == gf.undigits([-d % p for d in gf.digits(a)]), (gf, a)
            assert gf.add(a, gf.neg(a)) == 0


@given(kernel_operands(), st.data())
@PROPERTY
def test_axpy_rows_add_the_dense_product(case, data):
    """Rows out[j + i] += g_j * f_i over the nonzero f_i, onto an
    accumulator h that cancels the product's top half a quarter of the
    time, sum to h + f * g."""
    gf, f, g, _ = case
    product = dense_mul(gf, f, g)
    if data.draw(st.integers(0, 3)) == 0:
        h = fq.shift(dense_smul(gf, gf.neg(1), product[len(product) // 2:]), len(product) // 2)
    else:
        h = fq.norm(tuple(data.draw(st.lists(st.integers(0, gf.q - 1), max_size=8))))
    out = list(h) + [0] * max(len(f) + len(g) - 1 - len(h), 0)
    terms = [(i, a) for i, a in enumerate(f) if a]
    for j, b in enumerate(g):
        if b:
            gf.axpy(out, j, b, terms)
    assert fq.norm(out) == dense_add(gf, h, product)


@st.composite
def sparse_division(draw):
    """(gf, f, x^o * g(x^s)); f is a multiple of the divisor plus a short
    remainder half the time."""
    gf = GFq(draw(PRIMES), draw(st.integers(1, 2)))
    q = gf.q
    g = fq.norm(tuple(draw(st.lists(st.integers(0, q - 1), max_size=4)))) or fq.ONE
    divisor = fq.shift(fq.spread(g, draw(st.integers(1, 9))), draw(st.integers(0, 3)))
    f = fq.norm(tuple(draw(st.lists(st.integers(0, q - 1), max_size=40))))
    if draw(st.booleans()):
        f = dense_add(gf, dense_mul(gf, f[:12], divisor), f[:len(divisor) - 1])
    return gf, f, divisor


@given(sparse_division())
@PROPERTY
def test_division_by_a_sparse_divisor_matches_long_division(case):
    gf, f, g = case
    assert fq.divmod_(gf, f, g) == dense_divmod(gf, f, g)


def test_sparse_division_makes_one_row_per_quotient_term(monkeypatch):
    """Over F_9, dividing by 1 + x^9 runs one multiply-add row per nonzero
    quotient coefficient, over the divisor's one nonzero term below the
    lead, and calls no gfq.add."""
    gf = GFq(3, 2)
    rng = random.Random(9)
    f = tuple(rng.randrange(9) for _ in range(59)) + (1,)
    g = fq.spread((1, 1), 9)
    want = dense_divmod(gf, f, g)
    rows, adds = [], []
    cls = type(gf)
    real_axpy, real_add = cls.axpy, cls.add
    monkeypatch.setattr(cls, "axpy", lambda self, *args: rows.append(args) or real_axpy(self, *args))
    monkeypatch.setattr(cls, "add", lambda self, *args: adds.append(args) or real_add(self, *args))
    assert fq.divmod_(gf, f, g) == want
    assert len(rows) == sum(1 for c in want[0] if c) > 0
    assert all(len(terms) == 1 for _, _, _, terms in rows)
    assert adds == []


@st.composite
def fraction_pair(draw):
    """Two elements whose denominators share the factors b^j and
    (1 + b)^(p^k), in different powers, and whose numerators may carry
    the other's factors.  Each of the four cases, no unit denominator,
    a denominator 1 on the left, on the right or on both sides, is drawn
    a quarter of the time."""
    field = Field(FieldSpec(draw(PRIMES), draw(st.integers(1, 2)), "a", draw(st.integers(0, 2))))
    gf, q = field.gf, field.spec.q
    k = draw(st.integers(0, 2))
    units = draw(st.sampled_from(("none", "left", "right", "both")))

    def factor():
        f = fq.shift(fq.ONE, draw(st.integers(0, 3)))
        return fq.mul(gf, f, fq.frob(gf, (1, 1), k)) if draw(st.booleans()) else f

    def elem(unit):
        num = fq.mul(gf, draw(polys(q, 3)), factor())
        if unit:
            return field.elem(num)
        den = fq.mul(gf, factor(), fq.mul(gf, factor(), draw(polys(q, 2)) or fq.ONE))
        return field.elem(num, den)

    return elem(units in ("left", "both")), elem(units in ("right", "both"))


def _canonical(x):
    gf = x.field.gf
    return x.den[-1] == 1 and (x.num or x.den == fq.ONE) and fq.gcd(gf, x.num, x.den) == fq.ONE


@given(fraction_pair())
@PROPERTY
def test_henrici_sum_and_product_match_the_normalized_fraction(pair):
    x, y = pair
    k, gf = x.field, x.field.gf
    a, b, c, d = x.num, x.den, y.num, y.den
    ad, cb, bd = dense_mul(gf, a, d), dense_mul(gf, c, b), dense_mul(gf, b, d)
    results = [
        (x + y, k.elem(dense_add(gf, ad, cb), bd)),
        (y + x, k.elem(dense_add(gf, ad, cb), bd)),
        (x - y, k.elem(dense_add(gf, ad, dense_smul(gf, gf.neg(1), cb)), bd)),
        (x * y, k.elem(dense_mul(gf, a, c), bd)),
        (y * x, k.elem(dense_mul(gf, a, c), bd)),
        (x + (-x), k.zero()),
        (-y + y, k.zero()),
    ]
    if c:
        results.append((x / y, k.elem(ad, dense_mul(gf, b, c))))
    for got, want in results:
        assert got == want
        assert _canonical(got), got


def _dense_lcm(gf, f, g):
    """lcm(f, g), monic, as f g / gcd(f, g) with Euclid's gcd, all by the
    dense loops."""
    r0, r1 = f, g
    while r1:
        r0, r1 = r1, dense_divmod(gf, r0, r1)[1]
    h = dense_smul(gf, gf.inv(r0[-1]), r0)
    return dense_divmod(gf, dense_mul(gf, f, g), h)[0]


@given(fraction_pair(), st.data())
@PROPERTY
def test_common_denominator_matches_the_dense_lcm(pair, data):
    """common_denominator and clear_denominators on 1-4 elements with the
    unit denominator 1 nowhere, first, in the middle or everywhere."""
    x, y = pair
    field, gf = x.field, x.field.gf
    elems = [x, y] + data.draw(st.lists(st.sampled_from((x, y, x * y, x + y)), max_size=2))
    place = data.draw(st.sampled_from(("nowhere", "first", "middle", "everywhere")))
    unit = field.elem(data.draw(polys(field.spec.q, 3)))
    if place == "first":
        elems = [unit] + elems
    elif place == "middle":
        elems = elems[:1] + [unit] + elems[1:]
    elif place == "everywhere":
        elems = [field.elem(z.num) for z in elems] + [unit]
    want = fq.ONE
    for z in elems:
        want = _dense_lcm(gf, want, z.den)
    assert common_denominator(gf, [z.den for z in elems]) == want
    den, nums = clear_denominators(field, elems)
    assert den == want
    assert nums == [dense_mul(gf, z.num, dense_divmod(gf, want, z.den)[0]) for z in elems]


@st.composite
def fp_matrices(draw, p, shape):
    """Matrices mod p of the named shape: "empty" (no rows, or rows of
    width 0), "zero" (every row zero), "tall" (more rows than columns),
    "full_rank" (an echelon form with random pivot columns, mixed by a unit
    lower-triangular matrix and shuffled), "deficient" (an r x k times a
    k x c product with k < r) or "wide_sparse" (up to 200 columns, rows of
    2-3 entries within a few columns of each other, in random order, so
    that joining rows clear columns of earlier basis rows)."""
    entries = st.integers(0, p - 1)

    def block(nrows, ncols):
        return draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))

    if shape == "empty":
        return [[] for _ in range(draw(st.integers(0, 3)))]
    if shape == "zero":
        ncols = draw(st.integers(1, 6))
        return [[0] * ncols for _ in range(draw(st.integers(1, 5)))]
    if shape == "tall":
        ncols = draw(st.integers(1, 5))
        return block(draw(st.integers(ncols + 1, ncols + 6)), ncols)
    if shape == "wide_sparse":
        ncols = draw(st.integers(2, 200))
        rows = []
        for _ in range(draw(st.integers(1, ncols + 5))):
            c0 = draw(st.integers(0, ncols - 2))
            cols = {c0} | set(draw(st.lists(st.integers(c0 + 1, min(c0 + 4, ncols - 1)),
                                            min_size=1, max_size=2)))
            row = [0] * ncols
            for c in cols:
                row[c] = draw(st.integers(1, p - 1))
            rows.append(row)
        return rows
    ncols = draw(st.integers(1, 8))
    if shape == "full_rank":
        cols = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1)))
        rows = [[0] * c + [draw(st.integers(1, p - 1))] + block(1, ncols - c - 1)[0] for c in cols]
        for i in range(1, len(rows)):
            for j in range(i):
                f = draw(entries)
                rows[i] = [(x + f * y) % p for x, y in zip(rows[i], rows[j])]
        return draw(st.permutations(rows))
    nrows = draw(st.integers(2, 8))
    k = draw(st.integers(0, min(nrows - 1, ncols)))
    left, right = block(nrows, k), block(k, ncols)
    return [[sum(row[t] * right[t][c] for t in range(k)) % p for c in range(ncols)]
            for row in left]


@pytest.mark.parametrize("shape", ("empty", "zero", "tall", "full_rank", "deficient",
                                   "wide_sparse"))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 4_294_967_311))
@given(data=st.data())
@settings(max_examples=25, deadline=None, database=None)
def test_rref_is_the_reduced_form_of_the_dense_elimination(p, shape, data):
    rows = data.draw(fp_matrices(p, shape))
    ncols = len(rows[0]) if rows else 0
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    before = [dict(row) for row in sparse]
    got, pivots = rref(sparse, p, ncols)
    assert sparse == before
    assert all(x for row in got for x in row.values())
    got = [[row.get(c, 0) for c in range(ncols)] for row in got]
    want, want_pivots = dense_rref(rows, p)
    # reduced row echelon form with unit pivots
    assert len(got) == len(pivots) and pivots == sorted(set(pivots))
    for row, c in zip(got, pivots):
        assert len(row) == ncols and all(0 <= x < p for x in row)
        assert not any(row[:c]) and row[c] == 1
        assert sum(1 for other in got if other[c]) == 1
    assert pivots == want_pivots
    # the same row space: equal ranks, and neither adds rank to the other
    assert len(dense_rref(want + got, p)[1]) == len(want)
    if shape == "full_rank":
        assert len(pivots) == len(rows)
    if shape == "deficient":
        assert len(pivots) < len(rows)
    if shape in ("zero", "empty"):
        assert got == [] and pivots == []


@pytest.mark.parametrize("shape", ("empty", "zero", "tall", "full_rank", "deficient"))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 4_294_967_311))
@given(data=st.data())
@settings(max_examples=25, deadline=None, database=None)
def test_kernel_basis_spans_the_kernel_of_the_dense_elimination(p, shape, data):
    """One vector per free column of the dense elimination, keyed by it in
    increasing order, with a 1 there and a 0 at every other free column:
    each is annihilated by every row, and together they are independent, so
    they span the kernel."""
    rows = data.draw(fp_matrices(p, shape))
    ncols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    basis = dict(kernel_basis(*rref(sparse, p, ncols), ncols, p))
    want_pivots = dense_rref(rows, p)[1]
    free = [c for c in range(ncols) if c not in want_pivots]
    assert list(basis) == free
    vecs = [[v.get(c, 0) for c in range(ncols)] for v in basis.values()]
    for f, v, dense in zip(free, basis.values(), vecs):
        assert all(x and 0 <= x < p for x in v.values())
        assert dense[f] == 1 and not any(dense[g] for g in free if g != f)
        assert all(sum(a * x for a, x in zip(row, dense)) % p == 0 for row in rows)
    assert len(dense_rref(vecs, p)[1]) == len(vecs)


def test_rref_reads_no_row_after_the_rank_is_full():
    """Once the rank equals the width no row can change the row space, so
    the rows after it are never read."""
    def rows():
        yield {1: 2, 2: 1}
        yield {}
        yield {0: 3, 1: 4}
        yield {0: 1, 2: 6}
        raise AssertionError("a row was read after the rank reached the width")

    got, pivots = rref(rows(), 7, 3)
    assert pivots == [0, 1, 2]
    assert got == [{0: 1}, {1: 1}, {2: 1}]


def test_rref_of_a_shuffled_bidiagonal_matrix_within_two_seconds():
    """Rows {i: 1, i+1: 2} mod 3 in random order: each joining row clears
    its pivot column from the few basis rows that hold it, not from all of
    them, so 20 000 columns reduce in well under the budget.  The rank is
    19 999, and the kernel vector annihilates every row."""
    width, p = 20_000, 3
    rows = [{i: 1, i + 1: 2} for i in range(width - 1)]
    random.Random(2028).shuffle(rows)
    start = time.perf_counter()
    reduced, pivots = rref(rows, p, width)
    elapsed = time.perf_counter() - start
    assert len(pivots) == width - 1
    [(_, v)] = kernel_basis(reduced, pivots, width, p)
    assert all(sum(x * v.get(c, 0) for c, x in row.items()) % p == 0 for row in rows)
    assert elapsed < 2.0, f"rref took {elapsed:.2f}s"
