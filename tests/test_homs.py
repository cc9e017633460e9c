import itertools

import pytest
import sympy

from woundcheck import corpus
from woundcheck.groups import AffineLine
from woundcheck.homs import (MAX_ENUM, EnumerationBudgetError, PPolyMap, canonical_form,
                             compose_maps, derive_hom_constraints, identity_map,
                             landing_identity, solve_homs_bounded, verify_hom,
                             verify_mutual_inverse)
from woundcheck.oracle import random_point_oracle
from woundcheck.parser import parse_poly
from woundcheck.polyring import is_identically_zero


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


def test_contradictory_system_is_empty():
    k = k3()
    cs = derive_hom_constraints(corpus.group_va(k), corpus.group_u(k))
    from woundcheck.homs import ConstraintSystem
    from woundcheck.polyring import Poly
    one = Poly.constant(k, len(cs.ring.names), k.one())
    cs_bad = ConstraintSystem(cs.source, cs.target, cs.ring, cs.slots, cs.ansatz,
                              cs.constraints + (((0, 0), one),))
    assert solve_homs_bounded(cs_bad, [k.zero(), k.one()]) == []


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


def field_of_order(q):
    (p, e), = sympy.factorint(q).items()
    return corpus.base_field(p, e)


def capped_system(q, s, t, pivot_cap, other_cap):
    k = field_of_order(q)
    src = _GROUPS[s](k)
    caps = {src.pivot: min(pivot_cap, src.f.max_exp(src.pivot) - 1), 1 - src.pivot: other_cap}
    tgt = AffineLine() if t == "Ga" else _GROUPS[t](k)
    return derive_hom_constraints(src, tgt, caps=caps)


# (q, domain degree, pivot cap, other cap): at most ~7 * 10^4 points per
# pair; over F_4 and F_9 the solver reads the base-p digits of each F_q
# coefficient as the domain's F_p-coordinates
@pytest.mark.parametrize("q,deg,pivot_cap,other_cap,pairs", [
    (2, 0, 1, 1, _PAIRS),
    (3, 0, 0, 1, _PAIRS),
    (3, 0, 1, 1, [("Va", "U")]),
    (5, 0, 0, 0, _PAIRS),
    (2, 1, 0, 1, [("Va", "U"), ("Wa", "Wa"), ("W", "W")]),
    (4, 0, 0, 1, _PAIRS + [("Wa", "Ga")]),
    (4, 1, 0, 0, [("Wa", "Wa")]),
    (9, 0, 0, 0, [("Wa", "Wa"), ("Wa", "Va"), ("U", "U"), ("Va", "Va"), ("W", "W")]),
    (9, 1, 0, 0, [("Wa", "Ga")]),
])
def test_solver_matches_brute_force_on_corpus_pairs(q, deg, pivot_cap, other_cap, pairs):
    domain = poly_elements(field_of_order(q), deg)
    nonzero = 0
    for s, t in pairs:
        cs = capped_system(q, s, t, pivot_cap, other_cap)
        want = brute_force(cs, domain)
        sols = solve_homs_bounded(cs, domain)
        assert [tuple(sol.values[n] for n in cs.ring.names) for sol in sols] == want, (s, t)
        assert all(verify_hom(sol.map) for sol in sols), (s, t)
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
    constraints over them."""
    from woundcheck.homs import ConstraintSystem
    cs = derive_hom_constraints(corpus.split_line(k), AffineLine(), caps={0: nunk - 1})
    extra = tuple(((0, 0), parse_poly(t, k, cs.ring.names)) for t in texts)
    return ConstraintSystem(cs.source, cs.target, cs.ring, cs.slots, cs.ansatz, extra)


def test_solver_matches_brute_force_with_rational_domain():
    k = k3()
    a = k.base_gen()
    inv = a.inverse()
    domain = [k.from_int(c0) + k.from_int(c1) * inv for c0 in range(3) for c1 in range(3)]
    domain += [a, a + inv]  # not closed: a + 1/a + a is missing
    cs = _system(k, 2, "a*c0_X_0 - 1", "c0_X_1^3 - c0_X_0^3")
    assert solved_points(cs, domain) == brute_force(cs, domain) == [(inv, inv)]
    # (u - a v)^3 + (u - a v) = 0 forces u = a v; a + 1 = a * (1 + 1/a) is missing
    cs = _system(k, 2, "c0_X_0^3 - a^3*c0_X_1^3 + c0_X_0 - a*c0_X_1")
    want = brute_force(cs, domain)
    assert set(want) == {(k.zero(), k.zero()), (k.one(), inv), (k.from_int(2), 2 * inv),
                         (a, k.one())}
    assert solved_points(cs, domain) == want


def test_affine_constraints_consistent_and_inconsistent():
    k = k3()
    domain = poly_elements(k, 1)
    # u^3 - u = λ1 (a^3 - a) for u = λ0 + λ1 a
    consistent = _system(k, 1, "c0_X_0^3 - c0_X_0 - a^3 + a")
    want = brute_force(consistent, domain)
    assert [x for (x,) in want] == sorted((k.base_gen() + c for c in range(3)),
                                          key=lambda x: (x.den, x.num))
    assert solved_points(consistent, domain) == want
    inconsistent = _system(k, 1, "c0_X_0^3 - c0_X_0 - 1")
    assert brute_force(inconsistent, domain) == []
    assert solve_homs_bounded(inconsistent, domain) == []


def test_non_additive_monomial_raises():
    k = k3()
    for text in ("c0_X_0*c0_X_1", "c0_X_0^2", "c0_X_0^3 + c0_X_1^6"):
        with pytest.raises(ValueError, match="not additive"):
            solve_homs_bounded(_system(k, 2, text), [k.zero(), k.one()])


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
    cs = _system(k, 2, "3*c0_X_0 + 5*c0_X_1 - 7", "11*c0_X_0 - 13*c0_X_1 + 17")
    u, v = k.from_int(3) / k.from_int(47), k.from_int(64) / k.from_int(47)
    domain = [k.zero(), k.one(), u, v]
    assert brute_force(cs, domain) == [(u, v)]
    assert solved_points(cs, domain) == [(u, v)]
