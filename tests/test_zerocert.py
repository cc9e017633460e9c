import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_poly_search, dense_left_kernel, field_fpa, plant_zero, ppoly,
                     rand_elem, rand_principal_part, va_poly, w2_poly, wa_poly)
from woundcheck import fqpoly as fq
from woundcheck import zerocert
from woundcheck.field import Field, FieldElem, FieldSpec
from woundcheck.groups import HypersurfaceGroup, classify
from woundcheck.ppoly import PPoly
from woundcheck.zerocert import (decide_no_nontrivial_zero, exhaustive_poly_search,
                                 left_kernel_vector)


def test_wa_principal_no_zero_certificate():
    k = field_fpa(3)
    P = wa_poly(k).principal_part()  # X^3 + a Y^3
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "no_zero" and d.stage == "equal_exponent"
    assert d.rank == 2
    # expansion rows over the basis {1, a, a^2}: (1,0,0) and (0,1,0)
    one, zero = k.one(), k.zero()
    assert d.columns == (0, 1)
    assert d.matrix == ((one, zero), (zero, one))


def test_zero_with_witness():
    k = field_fpa(3)
    a = k.base_gen()
    P = ppoly(k, 2, (0, 1, 1), (1, 1, a ** 3))  # X^3 + a^3 Y^3
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "zero" and d.stage == "equal_exponent"
    assert d.witness == (-a, k.one())
    assert P.evaluate(d.witness).is_zero()


def test_absent_variable_is_refuted():
    k = field_fpa(3)
    P = ppoly(k, 2, (1, 0, 1))  # the split line {Y = 0}
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "zero"
    assert d.witness == (k.one(), k.zero())


def test_mixed_relaxation_certifies():
    k = field_fpa(3)
    a = k.base_gen()
    P = ppoly(k, 2, (0, 1, 1), (1, 2, a))  # X^3 + a Y^9
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "no_zero" and d.stage == "relaxation"
    assert exhaustive_poly_search(P, 3) is None


def test_mixed_exponent_search_finds_witness():
    k = field_fpa(3)
    a = k.base_gen()
    P = ppoly(k, 2, (0, 1, 1), (1, 2, a ** 3))  # X^3 + a^3 Y^9: zero at (-a, 1)
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "zero" and d.stage == "search"
    assert P.evaluate(d.witness).is_zero()


def test_mixed_exponent_unknown_is_honest():
    # the p = 2 hom-scheme group: wound per the source, but the relaxation
    # has a zero and no witness exists, so the verdict stays unknown
    k = field_fpa(2)
    a = k.base_gen()
    P = ppoly(k, 3, (0, 2, 1), (1, 1, a), (2, 3, a * a))
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "unknown"


def test_scale_invariance():
    k = field_fpa(3)
    rng = random.Random(17)
    for _ in range(40):
        P = rand_principal_part(k, rng, nvars=rng.randrange(1, 4), equal=True)
        c = rand_elem(k, rng, rational=True)
        while c.is_zero():
            c = rand_elem(k, rng, rational=True)
        assert decide_no_nontrivial_zero(P.scale(c)).verdict == decide_no_nontrivial_zero(P).verdict


def test_decision_vs_exhaustive_search_random():
    k = field_fpa(3)
    rng = random.Random(23)
    unknowns = 0
    for _ in range(60):
        P = rand_principal_part(k, rng, nvars=rng.randrange(1, 4), equal=True)
        d = decide_no_nontrivial_zero(P)
        assert d.verdict in ("no_zero", "zero")
        if d.verdict == "no_zero":
            assert exhaustive_poly_search(P, 2) is None
        else:
            assert P.evaluate(d.witness).is_zero()
            assert any(not w.is_zero() for w in d.witness)
    assert unknowns == 0


def test_separable_extension_stability():
    # certified instances stay zero-free over k(s), one more transcendental
    k = field_fpa(3)
    a = k.base_gen()
    for P in (wa_poly(k).principal_part(), va_poly(k).principal_part(),
              ppoly(k, 2, (0, 1, 1), (1, 1, a))):
        assert decide_no_nontrivial_zero(P).verdict == "no_zero"
        assert brute_force_poly_search(P, 1, extra_gens=1) is None


def test_exhaustive_search_finds_bivariate_zero():
    k = field_fpa(3)
    a = k.base_gen()
    P = ppoly(k, 2, (0, 1, 1), (1, 1, a ** 3))
    w = brute_force_poly_search(P, 1, extra_gens=1)
    assert w is not None


def _scan_bounds(p, n, extra_gens):
    """The largest (degree_bound, extra_degree) whose scan has at most 4096
    candidates, or the smallest one."""
    sizes = [(b, b) for b in range(9, -1, -1)] if extra_gens == 0 else [(1, 1), (0, 1), (1, 0)]
    for b, ed in sizes:
        if p ** (n * (b + 1) * (ed + 1) ** extra_gens) <= 4096:
            return b, ed
    return 0, 0


def test_exhaustive_search_returns_the_first_zero_of_the_scan():
    # with one more transcendental s the brute force finds a zero exactly
    # when the search does: P's coefficients lie in k, so a zero over
    # F_q[b, s] splits by powers of s into zeros of sub-sums of P, which
    # extend by 0 to zeros over F_q[b]
    rng = random.Random(4099)
    hits = 0
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            for extra_gens in (0, 1):
                bound, ed = _scan_bounds(p, n, extra_gens)
                for _ in range(3):
                    k = field_fpa(p, depth=rng.randrange(2))
                    P = rand_principal_part(k, rng, nvars=n, max_exp=2, equal=rng.random() < 0.4)
                    if rng.random() < 0.7:
                        P = plant_zero(P, rng, bound)
                    want = brute_force_poly_search(P, bound, extra_gens, ed)
                    got = exhaustive_poly_search(P, bound)
                    assert (got is None) == (want is None), (P, bound, extra_gens)
                    if want is not None:
                        hits += 1
                        assert len(got) == n
                        if not extra_gens:
                            assert got == want, (P, got, want)
    assert hits >= 25


@st.composite
def principal_parts(draw, e=1):
    """Principal parts over F_q(a^(1/p^m)), q = p^e, p in {2, 3, 5, 7}, m in
    {0, 1, 2}, with 1-3 variables, exponents 0-2 and nonzero coefficients."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    field = Field(FieldSpec(p, e, "a", draw(st.integers(0, 2))))
    coeffs = st.lists(st.integers(0, p ** e - 1), min_size=1, max_size=3)
    terms = {}
    for i in range(draw(st.integers(1, 3))):
        den = draw(coeffs)
        c = field.elem(draw(coeffs), den if any(den) else (1,))
        terms[(i, draw(st.integers(0, 2)))] = c if not c.is_zero() else field.one()
    return PPoly(field, len(terms), terms)


@settings(max_examples=100, deadline=None, database=None)
@given(principal_parts())
def test_decision_agrees_with_exhaustive_search(P):
    d = decide_no_nontrivial_zero(P)
    if d.verdict == "zero":
        assert any(not w.is_zero() for w in d.witness)
        assert P.evaluate(d.witness).is_zero()
    else:
        assert exhaustive_poly_search(P, 3) is None


def test_exhaustive_search_over_fq_returns_the_first_zero_of_the_scan():
    rng = random.Random(8111)
    hits = 0
    for p, e in ((2, 2), (2, 3), (3, 2), (5, 2)):
        for n in (1, 2, 3):
            if p ** (e * n) > 4096:
                continue  # F_25 with 3 variables: 15625 constant vectors
            bound, _ = _scan_bounds(p ** e, n, 0)
            for depth in (0, 1):
                for _ in range(2):
                    k = field_fpa(p, depth=depth, e=e)
                    P = rand_principal_part(k, rng, nvars=n, max_exp=2, equal=rng.random() < 0.4)
                    if rng.random() < 0.7:
                        P = plant_zero(P, rng, bound)
                    want = brute_force_poly_search(P, bound)
                    got = exhaustive_poly_search(P, bound)
                    assert (got is None) == (want is None), (P, bound)
                    if want is not None:
                        hits += 1
                        assert got == want, (P, got, want)
                        point = [k.elem(w) for w in got]
                        assert P.evaluate(point).is_zero()
    assert hits >= 20


def test_absent_variable_arrays_have_the_search_shape():
    k = field_fpa(3)
    P = ppoly(k, 2, (1, 0, 1))  # Y
    got = exhaustive_poly_search(P, 1)
    assert got == ((1, 0), (0, 0))


def test_cleared_search_over_f9_ends_within_a_second():
    # over F_9 no polynomial witness of degree <= 3 exists, so the search
    # runs again at the cleared bounds 9 * 3^(3 - N_i) and finds none either
    k = field_fpa(3, e=2)
    a = k.base_gen()
    P = ppoly(k, 3, (0, 2, 1), (1, 1, a), (2, 3, a ** 3))  # X^9 + a Y^3 + a^3 Z^27
    start = time.perf_counter()
    d = decide_no_nontrivial_zero(P)
    assert time.perf_counter() - start < 1.0
    assert d.verdict == "unknown" and d.stage == "search"


def _mixed_instance(rng):
    """A principal part with 2-3 variables and at least two distinct
    exponents over F_q(a^(1/p^m)), p in {2, 3, 5, 7}, e in {1, 2}, m in
    {0, 1, 2}; some coefficients are rational.  About half of them have one
    coefficient shifted so that P vanishes at a random vector of nonzero
    entries u / (b + v), u of degree <= 1, or constants."""
    k = field_fpa(rng.choice((2, 3, 5, 7)), depth=rng.randrange(3), e=rng.choice((1, 2)))
    n = rng.choice((2, 3))
    exps = [rng.randrange(3) for _ in range(n)]
    while len(set(exps)) == 1:
        exps = [rng.randrange(3) for _ in range(n)]
    P = _with_exponents(k, exps, rng)
    return _plant_rational_zero(P, rng) if rng.random() < 0.5 else P


def _with_exponents(k, exps, rng):
    """The principal part sum_i c_i X_i^(p^exps[i]) with random nonzero,
    partly rational, coefficients c_i."""
    terms = {}
    for i, N in enumerate(exps):
        c = rand_elem(k, rng, rational=True)
        while c.is_zero():
            c = rand_elem(k, rng, rational=True)
        terms[(i, N)] = c
    return PPoly(k, len(exps), terms)


def _plant_rational_zero(P, rng, degree=1):
    """P with one coefficient shifted so that P vanishes at a random vector
    of nonzero entries u / (b^degree + ...), u of degree <= degree, or
    constants; P itself when the shift would cancel that coefficient, and
    then P vanishes at that vector with the shifted entry set to 0."""
    k, n = P.dom, P.nvars
    q = k.spec.q
    point = [k.elem(tuple(rng.randrange(q) for _ in range(degree + 1)),
                    tuple(rng.randrange(q) for _ in range(degree)) + (1,))
             if rng.random() < 0.5 else k.elem((rng.randrange(1, q),)) for _ in range(n)]
    point = [x if not x.is_zero() else k.one() for x in point]
    j = rng.randrange(n)
    (slot,) = [s for s in P.terms if s[0] == j]
    c = P.terms[slot] - P.evaluate(point) / point[j] ** (k.p ** slot[1])
    return P if c.is_zero() else PPoly(k, n, {**P.terms, slot: c})


def test_cleared_search_finds_every_planted_rational_zero():
    """The last stage is complete for the rational zeros within its bound:
    an instance with pairwise distinct exponents, planted with a zero whose
    entries have numerator and denominator degree 1 or 3 (<= SEARCH_BOUND),
    is refuted by a nonzero witness that vanishes."""
    rng = random.Random(7005)
    for degree in (1, 3):
        for _ in range(30):
            k = field_fpa(rng.choice((2, 3, 5, 7)), depth=rng.randrange(3), e=rng.choice((1, 2)))
            exps = rng.sample(range(3), rng.choice((2, 3)))
            P = _plant_rational_zero(_with_exponents(k, exps, rng), rng, degree)
            d = decide_no_nontrivial_zero(P)
            assert d.verdict == "zero", (P, degree, d)
            assert any(not w.is_zero() for w in d.witness)
            assert P.evaluate(d.witness).is_zero()


def test_w2_search_makes_few_products(monkeypatch):
    """W2's last stage at the default bound is one sparse F_p elimination
    at the cleared bounds, with few ``fqpoly`` products, and it ends in an
    honest unknown: W2 is wound."""
    P = w2_poly(field_fpa(2)).principal_part()
    calls = []
    real = fq.mul
    monkeypatch.setattr(fq, "mul", lambda *args: calls.append(args) or real(*args))
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "unknown" and d.stage == "search"
    assert len(calls) < 2_000


def test_fq_mixed_unknown_at_the_default_bound():
    # X + X^9 + a Y^3 + a^3 Z^27 over F_9: no polynomial witness of degree
    # <= 3, and none at the cleared bounds
    k = field_fpa(3, e=2)
    a = k.base_gen()
    f = ppoly(k, 3, (0, 0, 1), (0, 2, 1), (1, 1, a), (2, 3, a ** 3))
    start = time.perf_counter()
    rep = classify(HypersurfaceGroup("G", ("X", "Y", "Z"), f, 0))
    assert time.perf_counter() - start < 1.0
    assert rep.wound_verdict == "unknown" and rep.wound.stage == "search"


@settings(max_examples=100, deadline=None, database=None)
@given(principal_parts(e=2))
def test_decision_agrees_with_exhaustive_search_over_fq(P):
    d = decide_no_nontrivial_zero(P)
    if d.verdict == "zero":
        assert any(not w.is_zero() for w in d.witness)
        assert P.evaluate(d.witness).is_zero()
    else:
        assert exhaustive_poly_search(P, 3) is None


def test_params_rejected():
    from woundcheck.params import ParamRing
    k = field_fpa(3)
    ring = ParamRing(k, ("t",))
    P = PPoly(ring, 1, {(0, 1): ring.param("t")})
    with pytest.raises(ValueError):
        decide_no_nontrivial_zero(P)


def test_non_principal_rejected():
    k = field_fpa(3)
    with pytest.raises(ValueError):
        decide_no_nontrivial_zero(wa_poly(k))
    with pytest.raises(ValueError):
        exhaustive_poly_search(wa_poly(k), 3)


def test_search_witness_is_the_element_vector_of_the_public_codes():
    """On planted mixed-exponent instances the decision's search witness is
    the FieldElem vector of the codes the public search returns."""
    rng = random.Random(2323)
    for p in (2, 3, 5, 7):
        for e in (1, 2):
            hits = 0
            for _ in range(6):
                k = field_fpa(p, depth=rng.randrange(2), e=e)
                n = rng.choice((2, 3))
                exps = [0, 1] + [rng.randrange(3) for _ in range(n - 2)]
                terms = {}
                for i, N in enumerate(rng.sample(exps, n)):
                    c = rand_elem(k, rng, rational=True)
                    terms[(i, N)] = c if not c.is_zero() else k.one()
                P = plant_zero(PPoly(k, n, terms), rng, 1)
                codes = exhaustive_poly_search(P, 3)
                d = decide_no_nontrivial_zero(P)
                if codes is not None:
                    hits += 1
                    assert d.verdict == "zero" and d.stage == "search", (P, d)
                    assert d.witness == tuple(k.elem(w) for w in codes), (P, d, codes)
            assert hits >= 3, (p, e)


@st.composite
def polynomial_matrices(draw):
    """(field, rows): 1-5 rows of 1-7 entries in F_q[b], q = p^e, p in
    {2, 3, 5, 7}, e in {1, 2}, over a tower of depth 0-2, as fqpoly tuples.
    Dependencies are planted: a row may be a polynomial multiple of another
    and a row the sum of two others."""
    p, e = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2))
    k = Field(FieldSpec(p, e, "a", draw(st.integers(0, 2))))
    gf = k.gf
    poly = st.lists(st.integers(0, p ** e - 1), max_size=4).map(fq.norm)
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    rows = [[draw(poly) for _ in range(m)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        g = draw(poly)
        rows[i] = [fq.mul(gf, g, u) for u in rows[j]]
    if n >= 3 and draw(st.booleans()):
        i, j, l = draw(st.permutations(range(n)))[:3]
        rows[i] = [fq.add(gf, u, v) for u, v in zip(rows[j], rows[l])]
    return k, [tuple(row) for row in rows]


@settings(max_examples=300, deadline=None, database=None)
@given(polynomial_matrices())
def test_fraction_free_kernel_matches_the_field_elimination(matrix):
    k, rows = matrix
    rank, x = left_kernel_vector(rows, k)
    want_rank, want = dense_left_kernel([tuple(k.elem(u) for u in row) for row in rows], k)
    assert rank == want_rank
    assert (x is None) == (want is None)
    if want is not None:
        assert [(w.num, w.den) for w in x] == [(w.num, w.den) for w in want]


def test_kernel_normalizes_only_the_witness(monkeypatch):
    """The elimination makes no gcd: a full-rank matrix none at all, a
    deficient one at most one per witness entry it normalizes."""
    k = field_fpa(5, e=2)
    gf = k.gf
    rng = random.Random(7004)
    rows = [tuple(fq.norm([rng.randrange(25) for _ in range(3)]) for _ in range(6)) for _ in range(4)]
    deficient = rows[:3] + [tuple(fq.add(gf, fq.mul(gf, (1, 2), u), v) for u, v in zip(rows[0], rows[1]))]
    calls = []
    real = fq.gcd
    monkeypatch.setattr(fq, "gcd", lambda *args: calls.append(args) or real(*args))
    assert left_kernel_vector(rows, k) == (4, None)
    assert not calls
    rank, x = left_kernel_vector(deficient, k)
    assert rank == 3 and x is not None
    assert len(calls) <= len(x) - 1


@st.composite
def mixed_principal_parts(draw):
    """Principal parts with 2-3 variables and at least two distinct
    exponents in 0-2 (the lowest 1 in about half of them) over F_q(a^(1/p^m)),
    p in {2, 3, 5, 7}, e in {1, 2}, m in {0, 1, 2}, with rational
    coefficients."""
    p, e = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2))
    field = Field(FieldSpec(p, e, "a", draw(st.integers(0, 2))))
    n, lo = draw(st.integers(2, 3)), draw(st.integers(0, 1))
    exps = draw(st.lists(st.integers(lo, 2), min_size=n, max_size=n).filter(lambda x: len(set(x)) > 1))
    coeffs = st.lists(st.integers(0, p ** e - 1), min_size=1, max_size=3)
    terms = {}
    for i, N in enumerate(exps):
        den = draw(coeffs)
        c = field.elem(draw(coeffs), den if any(den) else (1,))
        terms[(i, N)] = c if not c.is_zero() else field.one()
    return PPoly(field, n, terms)


@settings(max_examples=150, deadline=None, database=None)
@given(mixed_principal_parts())
def test_relaxation_no_zero_leaves_the_search_empty(P):
    """A relaxation no_zero proves P zero-free, so running the search first
    changes no verdict: it then finds nothing."""
    nmin = min(N for _, N in P.terms)
    relaxed = PPoly(P.dom, P.nvars, {(i, nmin): c for (i, _), c in P.terms.items()})
    if decide_no_nontrivial_zero(relaxed).verdict == "no_zero":
        assert exhaustive_poly_search(P, 3) is None


def test_planted_mixed_zero_runs_no_elimination(monkeypatch):
    k = field_fpa(3)
    a = k.base_gen()
    P = ppoly(k, 2, (0, 1, 1), (1, 2, a ** 3))  # X^3 + a^3 Y^9: zero at (-a, 1)
    calls = []
    real = zerocert._equal_exponent
    monkeypatch.setattr(zerocert, "_equal_exponent", lambda *args: calls.append(args) or real(*args))
    d = decide_no_nontrivial_zero(P)
    assert d.verdict == "zero" and d.stage == "search"
    assert not calls


def _decisions_digest(decisions):
    """sha256 over every field of each ZeroDecision, elements as (num, den)."""
    def plain(v):
        if isinstance(v, FieldElem):
            return (v.num, v.den)
        return tuple(plain(x) for x in v) if isinstance(v, tuple) else v
    h = hashlib.sha256()
    for d in decisions:
        h.update(repr(tuple(plain(getattr(d, name)) for name in type(d).__slots__)).encode())
    return h.hexdigest()


def _equal_exponent_instance(rng):
    """An equal-exponent principal part with 1-4 variables over
    F_q(a^(1/p^m)), p in {2, 3, 5, 7}, e in {1, 2}, m in {0, 1, 2}, half of
    them with a planted polynomial zero, scaled by a random element."""
    k = field_fpa(rng.choice((2, 3, 5, 7)), depth=rng.randrange(3), e=rng.choice((1, 2)))
    P = rand_principal_part(k, rng, nvars=rng.randrange(1, 5), equal=True)
    if rng.random() < 0.5:
        P = plant_zero(P, rng, 1)
    c = rand_elem(k, rng, rational=True)
    return P.scale(c) if not c.is_zero() else P


def test_decisions_are_pinned():
    """Every field of the decisions (verdict, stage, witness, rows, columns,
    rank) on 80 mixed and 60 equal-exponent instances, pinned by
    sha256.  The equal-exponent digest is that of the FieldElem
    elimination; the mixed one that of the search at the cleared bounds as
    the last stage, which decides all 80."""
    rng = random.Random(7001)
    mixed = [decide_no_nontrivial_zero(_mixed_instance(rng)) for _ in range(80)]
    verdicts = [d.verdict for d in mixed]
    assert [verdicts.count(v) for v in ("zero", "unknown", "no_zero")] == [66, 0, 14]
    assert (_decisions_digest(mixed)
            == "31ef286da8bccc78526967ddbff119206ac141ac86e114adf2987fa02af234f5")
    rng = random.Random(7003)
    equal = [decide_no_nontrivial_zero(_equal_exponent_instance(rng)) for _ in range(60)]
    assert {d.verdict for d in equal} == {"zero", "no_zero"}
    assert (_decisions_digest(equal)
            == "da0a6eeedc8a12c84ca0b6ee728aa8cd32a78a245b7ffee3d8f6b7edbf5327bc")
