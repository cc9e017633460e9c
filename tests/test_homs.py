import hashlib
import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_derive, reference_solve
from woundcheck import corpus
from woundcheck.field import Field, FieldSpec
from woundcheck.groups import AffineLine, HypersurfaceGroup
from woundcheck.homs import (MAX_ENUM, ConstraintSystem, EnumerationBudgetError, PPolyMap,
                             canonical_form, compose_maps, derive_hom_constraints, identity_map,
                             landing_identity, solve_homs_bounded, verify_hom,
                             verify_mutual_inverse)
from woundcheck.oracle import random_point_oracle
from woundcheck.params import ParamElem, ParamRing
from woundcheck.parser import parse_poly, parse_ppoly, render_elem, render_poly, render_ppoly
from woundcheck.polyring import is_identically_zero
from woundcheck.ppoly import PPoly


def k3():
    return corpus.base_field(3)


def poly_elements(field, max_deg):
    """All elements with polynomial representative of degree <= max_deg."""
    out = []
    for coeffs in itertools.product(range(field.spec.q), repeat=max_deg + 1):
        out.append(field.elem(coeffs))
    return sorted(set(out), key=lambda x: (x.den, x.num))


def test_canonical_form_examples():
    k = k3()
    va = corpus.group_va(k)
    a = k.base_gen()
    m = PPolyMap("t", va, AffineLine(), (corpus._pp(k, 2, (0, 2, k.one())),))
    cf = canonical_form(m)
    assert cf.coords[0] == corpus._pp(k, 2, (0, 0, k.one()), (1, 2, -a))
    ident = identity_map(corpus.group_wa(k))
    assert canonical_form(ident).coords == ident.coords
    mzero = PPolyMap("z", va, AffineLine(), (va.f,))
    assert canonical_form(mzero).coords[0].is_zero()


def test_canonical_form_morphism_equality():
    k = k3()
    va = corpus.group_va(k)
    a = k.base_gen()
    m = PPolyMap("t", va, AffineLine(), (corpus._pp(k, 2, (0, 1, a), (1, 0, a + 1)),))
    shifted = PPolyMap("t2", va, AffineLine(),
                       (m.coords[0] + va.f.frob_power(1).scale(a ** 2),))
    assert canonical_form(m).coords == canonical_form(shifted).coords


def test_verify_hom_identity_and_phi_b():
    k = k3()
    assert verify_hom(identity_map(corpus.group_wa(k)))
    m = corpus.phi_b_map(k)
    assert verify_hom(m)


def test_phi_b_at_p5():
    assert verify_hom(corpus.phi_b_map(corpus.base_field(5)))


def test_b2_induced_map_p2():
    k = corpus.base_field(2)
    m = corpus.b2_induced_map(k)
    assert verify_hom(m)


def test_landing_identity_oracle_agreement():
    k = k3()
    m = corpus.phi_b_map(k)
    poly, rset = landing_identity(m)
    assert is_identically_zero(poly, rset)
    assert random_point_oracle(poly, rset, seed=5, trials=20)


def test_hom_composition_closure():
    k = k3()
    wa = corpus.group_wa(k)
    f = corpus.relative_frobenius(wa, 1)
    g = corpus.relative_frobenius(f.target, 2)
    gf = canonical_form(compose_maps(g, f))
    assert verify_hom(gf)


def test_derive_constraints_match_worked_equations():
    k = k3()
    cs = derive_hom_constraints(corpus.group_va(k), corpus.group_u(k),
                                names=corpus.paper_names_hom_vu())
    names = cs.ring.names
    # the worked equations (1), (2) and the coefficient equations of (3),
    # one per surviving (variable, exponent) slot, J = 3
    full = [
        "d^3 + a*f^3 - c",
        "c^3 + a*e^3 - d",
        "-f0",
        "f0^3 - f1 + a*g0^3",
        "f1^3 - f2 + a*g1^3 - a*d^3 - a^2*f^3",
        "f2^3 - f3 + a*g2^3",
        "f3^3 + a*g3^3",
    ]
    got = {p.monic() for p in cs.polys()}
    want = {parse_poly(t, k, names).monic() for t in full}
    assert got == want
    assert len(cs.constraints) == 7


def test_derive_line_target_is_unconstrained():
    k = k3()
    cs = derive_hom_constraints(corpus.group_va(k), AffineLine())
    assert cs.constraints == ()
    cs2 = derive_hom_constraints(corpus.split_line(k), AffineLine())
    assert cs2.constraints == ()


def test_derive_pivot_cap_enforced():
    k = k3()
    with pytest.raises(ValueError):
        derive_hom_constraints(corpus.group_va(k), corpus.group_u(k), caps={0: 5})


@pytest.mark.parametrize("caps,message", [
    ({1: -3}, "cap 'Y=-3' is negative"),
    ({0: -1}, "cap 'X=-1' is negative"),
    ({5: 1}, "cap for variable index 5, which Va lacks"),
    ({0: 5}, "pivot cap 'X=5' exceeds the canonical-form bound 1"),
    ({1: 8}, "cap 'Y=8': p^8 exceeds the supported degree scale 4096"),
    ({1: 13}, "cap 'Y=13': p^13 exceeds the supported degree scale 4096"),
])
def test_derive_refuses_a_cap_it_cannot_honour(caps, message):
    """A negative cap would drop the variable, a cap for a missing
    variable would be ignored and a cap past the degree scale would run
    for minutes or out of memory; derive refuses each, in the CLI's words."""
    k = k3()
    with pytest.raises(ValueError) as exc:
        derive_hom_constraints(corpus.group_va(k), corpus.group_u(k), caps=caps)
    assert str(exc.value) == message


def test_derive_refuses_a_line_source():
    with pytest.raises(ValueError, match="^use a split presentation for a line source$"):
        derive_hom_constraints(AffineLine(), corpus.group_u(k3()))


def test_solve_ga_ga_nine_maps():
    k = k3()
    src = corpus.split_line(k)
    cs = derive_hom_constraints(src, AffineLine(), caps={0: 1})
    sols = solve_homs_bounded(cs, [k.from_int(i) for i in range(3)])
    assert len(sols) == 9
    for s in sols:
        assert verify_hom(s.map)
    # closed under addition
    maps = {s.map.coords for s in sols}
    for s1, s2 in itertools.product(sols, repeat=2):
        summed = canonical_form(PPolyMap("sum", src, AffineLine(),
                                         (s1.map.coords[0] + s2.map.coords[0],)))
        assert summed.coords in maps


def test_solve_hom_vu_matches_w_points():
    k = k3()
    cs = derive_hom_constraints(corpus.group_va(k), corpus.group_u(k),
                                names=corpus.paper_names_hom_vu())
    domain = poly_elements(k, 1)
    sols = solve_homs_bounded(cs, domain)
    for s in sols:
        assert verify_hom(s.map)
    # enumerate W-points (d, e) over the same domain
    fw = corpus.group_w(k).f
    wpoints = [(d, e) for d in domain for e in domain
               if fw.evaluate((d, e)).is_zero()]
    assert len(wpoints) == len(sols) == 3
    expected = set()
    for d, e in wpoints:
        c1 = corpus._pp(k, 2, (0, 0, d.frobenius(1)), (0, 1, d))
        c2 = corpus._pp(k, 2, (0, 0, e), (1, 1, d))
        expected.add((c1, c2))
    assert {s.map.coords for s in sols} == expected
    # solutions are closed under addition (the target is commutative)
    maps = {s.map.coords for s in sols}
    for s1, s2 in itertools.product(sols, repeat=2):
        summed = canonical_form(PPolyMap(
            "sum", cs.source, cs.target,
            tuple(a + b for a, b in zip(s1.map.coords, s2.map.coords))))
        assert summed.coords in maps


def test_enumeration_budget_guard():
    k = k3()
    cs = derive_hom_constraints(corpus.split_line(k), AffineLine(), caps={0: 5})
    message = rf"listing 3\^18 kernel points of 6 unknowns exceeds {MAX_ENUM}$"
    with pytest.raises(EnumerationBudgetError, match=message):
        solve_homs_bounded(cs, poly_elements(k, 2))


def test_mutual_inverse_identity():
    k = k3()
    wa = corpus.group_wa(k)
    ident = identity_map(wa)
    assert verify_mutual_inverse(ident, ident)


# ---------------------------------------------------------------------------
# the F_p-kernel solver against a brute force over the domain

_GROUPS = {"Wa": corpus.group_wa, "Va": corpus.group_va, "U": corpus.group_u,
           "W": corpus.group_w}
_PAIRS = list(itertools.product(_GROUPS, repeat=2))


def brute_force(cs, domain):
    """Every point of domain^#unknowns at which every constraint evaluates
    to zero, in lexicographic order of the sorted domain."""
    domain = sorted(domain, key=lambda x: (x.den, x.num))
    polys = cs.polys()
    return [pt for pt in itertools.product(domain, repeat=len(cs.ring.names))
            if all(q.evaluate(pt).is_zero() for q in polys)]


def solved_points(cs, domain):
    return [tuple(s.values[n] for n in cs.ring.names) for s in solve_homs_bounded(cs, domain)]


def field_of_order(q, depth=0):
    (p, e), = sympy.factorint(q).items()
    return corpus.base_field(p, e, depth)


def capped_system(q, s, t, pivot_cap, other_cap, depth=0):
    k = field_of_order(q, depth)
    src = _GROUPS[s](k)
    caps = {src.pivot: min(pivot_cap, src.f.max_exp(src.pivot) - 1), 1 - src.pivot: other_cap}
    tgt = AffineLine() if t == "Ga" else _GROUPS[t](k)
    return derive_hom_constraints(src, tgt, caps=caps)


# (q, domain degree, pivot cap, other cap, pairs, tower depth): at most
# ~7 * 10^4 points per pair; over F_4 and F_9 the solver reads the base-p
# digits of each F_q coefficient as the domain's F_p-coordinates, and at
# depth d the domain degree counts powers of b = a^(1/p^d)
_SOLVER_ROWS = [
    (2, 0, 1, 1, _PAIRS, 0),
    (3, 0, 0, 1, _PAIRS, 0),
    (3, 0, 1, 1, [("Va", "U")], 0),
    (5, 0, 0, 0, _PAIRS, 0),
    (2, 1, 0, 1, [("Va", "U"), ("Wa", "Wa"), ("W", "W")], 0),
    (4, 0, 0, 1, _PAIRS + [("Wa", "Ga")], 0),
    (4, 1, 0, 0, [("Wa", "Wa")], 0),
    (9, 0, 0, 0, [("Wa", "Wa"), ("Wa", "Va"), ("U", "U"), ("Va", "Va"), ("W", "W")], 0),
    (9, 1, 0, 0, [("Wa", "Ga")], 0),
    (3, 0, 0, 1, _PAIRS + [(s, "Ga") for s in _GROUPS], 1),
    (2, 1, 0, 1, [("Wa", "U"), ("U", "W"), ("W", "W")] + [(s, "Ga") for s in _GROUPS], 1),
    (2, 1, 0, 0, _PAIRS + [(s, "Ga") for s in _GROUPS], 2),
]


@pytest.mark.parametrize("q,deg,pivot_cap,other_cap,pairs,depth", _SOLVER_ROWS, ids=[
    "-".join(map(str, row[:4])) + f"-pairs{i}" + (f"-depth{row[5]}" if row[5] else "")
    for i, row in enumerate(_SOLVER_ROWS)])
def test_solver_matches_brute_force_on_corpus_pairs(q, deg, pivot_cap, other_cap, pairs, depth):
    domain = poly_elements(field_of_order(q, depth), deg)
    nonzero = 0
    for s, t in pairs:
        cs = capped_system(q, s, t, pivot_cap, other_cap, depth)
        want = brute_force(cs, domain)
        sols = solve_homs_bounded(cs, domain)
        assert [tuple(sol.values[n] for n in cs.ring.names) for sol in sols] == want, (s, t)
        assert all(verify_hom(sol.map) for sol in sols), (s, t)
        # canonical as built: the ansatz caps the pivot below the bound
        assert all(sol.map == canonical_form(sol.map) for sol in sols), (s, t)
        nonzero += len(want) > 1
    assert nonzero  # some pair has more than the zero map


def test_solver_matches_brute_force_on_non_subspace_domain():
    k = k3()
    domain = [k.zero(), k.one()]  # 2 = 1 + 1 is missing
    for s, t in (("Va", "U"), ("Wa", "Wa"), ("U", "U")):
        cs = capped_system(3, s, t, 0, 1)
        want = brute_force(cs, domain)
        assert solved_points(cs, domain) == want, (s, t)
    cs = derive_hom_constraints(corpus.split_line(k), AffineLine(), caps={0: 2})
    want = brute_force(cs, domain)
    assert len(want) == 8
    assert solved_points(cs, domain) == want


def _system(k, nunk, *texts):
    """The split line -> Ga ansatz with nunk unknowns and the given
    p-polynomial constraints in them."""
    cs = derive_hom_constraints(corpus.split_line(k), AffineLine(), caps={0: nunk - 1})
    extra = tuple(((0, 0), parse_ppoly(t, k, cs.ring.names)) for t in texts)
    return ConstraintSystem(cs.source, cs.target, cs.ring, cs.slots, extra)


def test_solver_matches_brute_force_with_rational_domain():
    k = k3()
    a = k.base_gen()
    inv = a.inverse()
    domain = [k.from_int(c0) + k.from_int(c1) * inv for c0 in range(3) for c1 in range(3)]
    domain += [a, a + inv]  # not closed: a + 1/a + a is missing
    # v^3 = a u: the cube root of a c0 + c1 is in the domain only for c0 = 0
    cs = _system(k, 2, "a*c0_X_0 - c0_X_1^(p)")
    want = brute_force(cs, domain)
    assert set(want) == {(k.zero(), k.zero()), (inv, k.one()), (2 * inv, k.from_int(2))}
    assert solved_points(cs, domain) == want
    # (u - a v)^3 + (u - a v) = 0 forces u = a v; a + 1 = a * (1 + 1/a) is missing
    cs = _system(k, 2, "c0_X_0^(p) - a^3*c0_X_1^(p) + c0_X_0 - a*c0_X_1")
    want = brute_force(cs, domain)
    assert set(want) == {(k.zero(), k.zero()), (k.one(), inv), (k.from_int(2), 2 * inv),
                         (a, k.one())}
    assert solved_points(cs, domain) == want


def test_solver_on_a_domain_without_zero():
    """An unknown that the kernel fixes at 0 has no value in a domain
    without 0, so there is no point; when every unknown moves, the points
    are brute force's."""
    k = k3()
    a = k.base_gen()
    inv = a.inverse()
    domain = [k.one(), k.from_int(2), inv, 2 * inv, a, a + inv]
    cs = _system(k, 3, "c0_X_0 - c0_X_1", "c0_X_2")
    assert brute_force(cs, domain) == solved_points(cs, domain) == []
    cs = _system(k, 2, "c0_X_0 - c0_X_1")
    want = brute_force(cs, domain)
    assert len(want) == len(domain)
    assert solved_points(cs, domain) == want
    cs = _system(k, 2, "a*c0_X_0 - c0_X_1^(p)")
    want = brute_force(cs, domain)
    assert set(want) == {(inv, k.one()), (2 * inv, k.from_int(2))}
    assert solved_points(cs, domain) == want


# ---------------------------------------------------------------------------
# pairs the earlier enumerating solver could not finish within a second


@pytest.mark.parametrize("p,deg", [(3, 2), (5, 1)])
def test_solve_hom_vu_matches_w_points_on_larger_domains(p, deg):
    k = corpus.base_field(p)
    domain = poly_elements(k, deg)
    sols = solve_homs_bounded(derive_hom_constraints(corpus.group_va(k), corpus.group_u(k)),
                              domain)
    fw = corpus.group_w(k).f
    wpoints = [(d, e) for d in domain for e in domain if fw.evaluate((d, e)).is_zero()]
    expected = {(corpus._pp(k, 2, (0, 0, d.frobenius(1)), (0, 1, d)),
                 corpus._pp(k, 2, (0, 0, e), (1, 1, d))) for d, e in wpoints}
    assert len(sols) == len(wpoints) == len(expected)
    assert {s.map.coords for s in sols} == expected
    assert all(verify_hom(s.map) for s in sols)


@pytest.mark.parametrize("p,s,t,deg", [(5, "Va", "Va", 1), (5, "U", "U", 2)])
def test_solve_endomorphisms_on_larger_domains(p, s, t, deg):
    k = corpus.base_field(p)
    cs = derive_hom_constraints(_GROUPS[s](k), _GROUPS[t](k))
    sols = solve_homs_bounded(cs, poly_elements(k, deg))
    assert len(sols) == p
    assert all(verify_hom(sol.map) for sol in sols)


def test_solver_exact_for_large_characteristic():
    # products of residues overflow 64-bit integers here
    from woundcheck.field import Field, FieldSpec
    k = Field(FieldSpec(4_294_967_311))
    u, v = k.from_int(3) / k.from_int(47), k.from_int(64) / k.from_int(47)
    domain = [k.zero(), k.one(), u, v]
    zero = (k.zero(), k.zero())
    cs = _system(k, 2, "3*c0_X_0 + 5*c0_X_1", "11*c0_X_0 - 13*c0_X_1")
    assert brute_force(cs, domain) == [zero]
    assert solved_points(cs, domain) == [zero]


# ---------------------------------------------------------------------------
# derivation by linearity against compose-then-divide, and the solver's
# digit rows against FieldElem columns


def _corpus_systems(p):
    k = corpus.base_field(p)
    for s, t in _PAIRS + [(s, "Ga") for s in _GROUPS]:
        src = _GROUPS[s](k)
        yield s, t, src, AffineLine() if t == "Ga" else _GROUPS[t](k)


def _same_system(got, want):
    assert got.ring == want.ring
    assert got.slots == want.slots
    assert [key for key, _ in got.constraints] == [key for key, _ in want.constraints]
    assert got.polys() == tuple(q for _, q in want.constraints)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_derive_matches_reference_on_corpus_pairs(p):
    for s, t, src, tgt in _corpus_systems(p):
        _same_system(derive_hom_constraints(src, tgt), reference_derive(src, tgt))


def test_derive_rendering_is_pinned():
    """The rendered constraints of the corpus pairs and line targets at
    p = 2, 3, 5, 7, pinned on the compose-then-divide derivation."""
    lines = []
    for p in (2, 3, 5, 7):
        for s, t, src, tgt in _corpus_systems(p):
            cs = derive_hom_constraints(src, tgt)
            lines.append(f"p={p} {s}->{t} unknowns: {', '.join(cs.ring.names)}")
            lines += [f"constraint.{src.vars[i]}.{e}: {render_poly(q, cs.ring.names)}"
                      for ((i, e), _), q in zip(cs.constraints, cs.polys())]
    assert len(lines) == 528
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "62c71de9c94641c6a5427742cc648dc71922b9ad57e834cc91a9542fd77528cb"


def test_solver_output_is_pinned():
    """Every solution's name, values and coordinates for the corpus pairs
    and line targets over fq and deg1 at p = 2 and over fq at p = 5, pinned
    on the solver that recomputed every pivot coordinate of every point."""
    lines = []
    for p, degs in ((2, (0, 1)), (5, (0,))):
        for deg in degs:
            for s, t, src, tgt in _corpus_systems(p):
                cs = derive_hom_constraints(src, tgt)
                for sol in solve_homs_bounded(cs, poly_elements(src.field, deg)):
                    values = ", ".join(f"{n}={render_elem(sol.values[n])}" for n in cs.ring.names)
                    coords = " ; ".join(render_ppoly(c, src.vars) for c in sol.map.coords)
                    lines.append(f"p={p} deg{deg} {s}->{t} {sol.map.name}: {values} | {coords}")
    assert len(lines) == 8862
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9ca2994e685cefd2d246768a2f79274318e48768deeec384ad3994e2629c264b"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solver_maps_pass_the_validating_constructor(p):
    """The solver builds its maps unchecked: each one is what PPolyMap's
    checks accept, for the corpus pairs and line targets over fq and deg1
    (at p = 5 the deg1 listing of a 5-unknown line target is refused)."""
    for deg in (0, 1):
        for s, t, src, tgt in _corpus_systems(p):
            cs = derive_hom_constraints(src, tgt)
            try:
                sols = solve_homs_bounded(cs, poly_elements(src.field, deg))
            except EnumerationBudgetError:
                assert (p, deg) == (5, 1), (s, t)
                continue
            for sol in sols:
                m = sol.map
                assert PPolyMap(m.name, m.source, m.target, m.coords, m.params) == m, (s, t)


def test_derive_makes_no_symbolic_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("symbolic arithmetic in derive")

    monkeypatch.setattr(PPoly, "compose", refuse)
    monkeypatch.setattr(ParamElem, "__mul__", refuse)
    monkeypatch.setattr(ParamElem, "__rmul__", refuse)
    monkeypatch.setattr(ParamRing, "param", refuse)
    k = k3()
    cs = derive_hom_constraints(corpus.group_va(k), corpus.group_u(k))
    assert len(cs.constraints) == 7


def _nonzero_elem(draw, k):
    q = k.spec.q
    num = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
    den = draw(st.lists(st.integers(0, q - 1), max_size=2)) + [1]
    c = k.elem(num, den if draw(st.booleans()) else (1,))
    return c if c else k.one()


@st.composite
def _random_group(draw, k, name, max_vars=3):
    """A hypersurface group in 1 to max_vars variables, exponents up to 2,
    with rational coefficients; the pivot is any variable present."""
    nvars = draw(st.integers(1, max_vars))
    slots = st.tuples(st.integers(0, nvars - 1), st.integers(0, 2))
    keys = draw(st.lists(slots, min_size=1, max_size=4, unique=True))
    f = PPoly(k, nvars, {key: _nonzero_elem(draw, k) for key in keys})
    pivot = draw(st.sampled_from(f.vars_present()))
    return HypersurfaceGroup(name, tuple(f"{name}{i}" for i in range(nvars)), f, pivot)


@st.composite
def _derive_cases(draw):
    p, e = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 2))
    k = Field(FieldSpec(p, e, "a", draw(st.integers(0, 2))))
    src = draw(_random_group(k, "S"))
    tgt = AffineLine() if draw(st.integers(0, 9)) == 9 else draw(_random_group(k, "T"))
    n0 = src.f.max_exp(src.pivot)
    caps = {}
    for i in range(src.nvars):
        if draw(st.booleans()):
            caps[i] = draw(st.integers(0, max(n0 - 1, 0) if i == src.pivot else 2))
    if n0 == 0:
        caps.pop(src.pivot, None)
    names = None
    if draw(st.booleans()):
        keys = [(j, i, x) for j in range(tgt.nvars) for i in range(src.nvars) for x in range(6)]
        order = draw(st.permutations(range(len(keys))))
        names = {key: f"u{n}" for key, n in zip(keys, order)}
    return src, tgt, caps, names


@given(_derive_cases())
@settings(max_examples=150, deadline=None, database=None)
def test_derive_matches_reference_on_random_groups(case):
    src, tgt, caps, names = case
    _same_system(derive_hom_constraints(src, tgt, caps=caps, names=names),
                 reference_derive(src, tgt, caps=caps, names=names))


@st.composite
def _rational_systems(draw):
    """A split line -> Ga system over F_4 or F_9 at depth 1-2 with 1-2
    unknowns, and a domain holding 0, 1/a, 1/(a+1), a random element and
    a planted nonzero point.  The constraints are p-polynomials with
    rational coefficients in u^(p^0..2): 1-2 random ones (0-1 beside a
    tie), each with one coefficient chosen so that it vanishes at the
    point, and with two unknowns maybe a tie c (u0^(p^x) - u1^(p^x)) +
    c' (u0^(p^y) - u1^(p^y)), for which the point is (v, v) and more
    solutions exist."""
    p = draw(st.sampled_from((2, 3)))
    k = Field(FieldSpec(p, 2, "a", draw(st.integers(1, 2))))
    a = k.base_gen()
    nunk = draw(st.integers(1, 2))
    base = derive_hom_constraints(corpus.split_line(k), AffineLine(), caps={0: nunk - 1})
    domain = [k.zero(), a.inverse(), (a + 1).inverse(), _nonzero_elem(draw, k)]
    tie = nunk == 2 and draw(st.booleans())
    point = [draw(st.sampled_from(domain[1:])) for _ in range(nunk)]
    constraints = []
    if tie:
        point[1] = point[0]
        terms = {}
        for x in draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True)):
            c = _nonzero_elem(draw, k)
            terms[(0, x)], terms[(1, x)] = c, -c
        constraints.append(((0, 0), PPoly(k, nunk, terms)))
    domain = list(dict.fromkeys(domain + point))
    for _ in range(draw(st.integers(0, 1) if tie else st.integers(1, 2))):
        terms = {}
        for u in range(nunk):
            for x in draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True)):
                terms[(u, x)] = _nonzero_elem(draw, k)
        u, x = draw(st.sampled_from(sorted(terms)))
        del terms[(u, x)]
        rest = PPoly(k, nunk, terms).evaluate(point)
        terms[(u, x)] = -rest / point[u].frobenius(x)
        constraints.append(((0, 0), PPoly(k, nunk, terms)))
    return (ConstraintSystem(base.source, base.target, base.ring, base.slots,
                             tuple(constraints)), domain)


@given(_rational_systems())
@settings(max_examples=100, deadline=None, database=None)
def test_solver_matches_reference_over_rational_domains(case):
    cs, domain = case
    got, want = solve_homs_bounded(cs, domain), reference_solve(cs, domain)
    assert got  # the planted point
    assert [s.values for s in got] == [s.values for s in want]
    assert [s.map.coords for s in got] == [s.map.coords for s in want]
    assert [s.map.name for s in got] == [s.map.name for s in want]


@st.composite
def _subspace_systems(draw):
    """A derived system from a random group in 1-2 variables to another
    such group or to itself, over F_5, F_7, F_25 or F_49 at depth 0-2,
    every cap 0, and a domain that is the whole F_p-span of 1-2 elements:
    maybe 1, so that an endomorphism system has the multiples of the
    identity among its solutions, and random ones, rational ones included.
    At most 4 kernel columns, so at most 7^4 points are listed."""
    p, e = draw(st.sampled_from(((5, 1), (7, 1), (5, 2), (7, 2))))
    k = Field(FieldSpec(p, e, "a", draw(st.integers(0, 2))))
    src = draw(_random_group(k, "S", max_vars=2))
    tgt = src if draw(st.booleans()) else draw(_random_group(k, "T", max_vars=2))
    caps = {i: 0 for i in range(src.nvars)}
    if src.f.max_exp(src.pivot) == 0:
        caps.pop(src.pivot)
    cs = derive_hom_constraints(src, tgt, caps=caps)
    r = draw(st.integers(1, 2 if len(cs.ring.names) <= 2 else 1))
    gens = [k.one()] if draw(st.booleans()) else []
    gens += [_nonzero_elem(draw, k) for _ in range(r - len(gens))]
    domain = {sum((c * g for c, g in zip(lam, gens)), k.zero()): None
              for lam in itertools.product(range(p), repeat=len(gens))}
    return cs, list(domain)


@given(_subspace_systems())
@settings(max_examples=100, deadline=None, database=None)
def test_solver_matches_reference_over_subspace_domains_at_larger_p(case):
    cs, domain = case
    got, want = solve_homs_bounded(cs, domain), reference_solve(cs, domain)
    assert got  # the zero map
    assert [s.values for s in got] == [s.values for s in want]
    assert [s.map.coords for s in got] == [s.map.coords for s in want]
    assert [s.map.name for s in got] == [s.map.name for s in want]
