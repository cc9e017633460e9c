"""Coverage for non-prime constant fields F_q, q = p^e with e > 1."""

import hashlib
import random

import sympy
from helpers import field_fpa, ppoly, rand_elem, table_fields
from woundcheck.gfq import GFq
from woundcheck import fqpoly as fq
from woundcheck.zerocert import decide_no_nontrivial_zero


def test_modulus_is_deterministic_smallest():
    # x^2 + 1 is the smallest monic irreducible of degree 2 over F_3
    gf = GFq(3, 2)
    assert gf.modulus == 1  # sub-leading digits encode constant term 1, linear 0
    gf2 = GFq(2, 3)
    # over F_2 the smallest of degree 3 is x^3 + x + 1 -> digits (1, 1, 0)
    assert gf2.modulus == 3


def test_extension_tables_are_pinned():
    """The moduli and exp tables of all 40 table-based fields with q <= 4096
    hash to the digest of the trial-division build they replaced, so every
    field element code means what it meant before."""
    fields = table_fields(4096)
    assert len(fields) == 40
    h = hashlib.sha256()
    for gf in fields:
        h.update(repr((gf.p, gf.e, gf.modulus, gf._exp[:gf.q - 1])).encode())
    assert h.hexdigest() == "b5fb5d334e86a3b695d948a989712b1635cfe2b12929f049bf28b0ce09340299"


def test_modulus_is_the_smallest_irreducible():
    x = sympy.Symbol("x")
    for gf in table_fields(729):
        p, e = gf.p, gf.e

        def poly(code):
            return sympy.Poly([1] + gf.digits(code)[::-1], x, modulus=p)

        assert poly(gf.modulus).is_irreducible, gf
        assert not any(poly(code).is_irreducible for code in range(gf.modulus)), gf


def test_f9_field_arithmetic_and_decision():
    k = field_fpa(p=3, e=2)
    a = k.base_gen()
    rng = random.Random(12)
    for _ in range(30):
        x, y = rand_elem(k, rng, rational=True), rand_elem(k, rng, rational=True)
        assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)
        assert (x * y).frobenius(2) == x.frobenius(2) * y.frobenius(2)
    # the standard wound principal part stays certified over F_9(a)
    P = ppoly(k, 2, (0, 1, 1), (1, 1, a))
    assert decide_no_nontrivial_zero(P).verdict == "no_zero"
    # and the twisted one is still refuted, with a valid witness
    P2 = ppoly(k, 2, (0, 1, 1), (1, 1, a ** 3))
    d = decide_no_nontrivial_zero(P2)
    assert d.verdict == "zero"
    assert P2.evaluate(d.witness).is_zero()


def test_f9_nonprime_constant_decision():
    # u^3 = u fails for u outside F_3, so X^3 + u Y^3 with u a degree-2
    # constant is still only trivially zero over F_9 constants... but u is a
    # cube in F_9, giving the witness (cbrt(u), -1) for X^3 + u^3 Y^3
    gf = GFq(3, 2)
    k = field_fpa(p=3, e=2)
    u = k.elem((4,))          # a non-prime-subfield constant
    P = ppoly(k, 2, (0, 1, 1), (1, 1, u ** 3))
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "zero"
    assert P.evaluate(d.witness).is_zero()


def test_mul_vs_schoolbook():
    gf = GFq(3)
    rng = random.Random(9)
    for _ in range(60):
        f = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 40)))
        g = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 40)))
        fast = fq.mul(gf, f, g)
        slow = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                slow[i + j] = (slow[i + j] + x * y) % 3
        assert fast == fq.norm(slow)


def test_divmod_properties():
    gf = GFq(5)
    rng = random.Random(31)
    for _ in range(60):
        f = tuple(rng.randrange(5) for _ in range(rng.randrange(1, 12)))
        g = fq.norm(tuple(rng.randrange(5) for _ in range(rng.randrange(1, 8))))
        if not g:
            continue
        q, r = fq.divmod_(gf, f, g)
        assert fq.norm(fq.add(gf, fq.mul(gf, q, g), r)) == fq.norm(f)
        assert fq.degree(r) < fq.degree(g)
