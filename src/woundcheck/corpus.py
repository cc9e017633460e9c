"""The built-in worked-example corpus, parametrized by the characteristic.

Everything here is constructed programmatically over F_p(a): the wound
forms of the additive line and their companions

    Wa : X + X^p + a Y^p            (wound; splits over a^(1/p))
    Va : X^(p^2) - X + a Y^(p^2)    (wound; base of the noncommutative
                                     cocycle extension Ua)
    U  : X^p - X + a Y^p
    W  : X^(p^2) - X + a Y^p        (the parameter group of Hom(V, U))
    W2 : X^(p^2) + X + a Y^p + a^2 Z^(p^3)   (p = 2 only)

plus the alternating cocycle h on Va, the bilinear map b : W x V -> U and
its p = 2 analogue b2, the explicit splitting isomorphisms of Wa, and the
splitting of the Frobenius twist of Wa over the base field itself.
"""

from .field import Field, FieldSpec
from .groups import CocycleExtension, HypersurfaceGroup, PPolyMap
from .homs import relative_frobenius
from .params import ParamRing
from .polyring import Poly
from .ppoly import PPoly


def base_field(p, e=1, depth=0):
    return Field(FieldSpec(p, e, "a", depth))


def _mono(field, nvars, c, *powers):
    """c * prod X_i^e over the (i, e) in powers, as a Poly."""
    m = [0] * nvars
    for i, e in powers:
        m[i] += e
    return Poly(field, nvars, {tuple(m): c})


def _pp(dom, nvars, *terms):
    out = {}
    for i, e, c in terms:
        out[(i, e)] = c
    return PPoly(dom, nvars, out)


def group_wa(field):
    a = field.base_gen()
    f = _pp(field, 2, (0, 0, field.one()), (0, 1, field.one()), (1, 1, a))
    return HypersurfaceGroup("Wa", ("X", "Y"), f, 0)


def group_va(field):
    a = field.base_gen()
    f = _pp(field, 2, (0, 2, field.one()), (0, 0, -field.one()), (1, 2, a))
    return HypersurfaceGroup("Va", ("X", "Y"), f, 0)


def group_u(field):
    a = field.base_gen()
    f = _pp(field, 2, (0, 1, field.one()), (0, 0, -field.one()), (1, 1, a))
    return HypersurfaceGroup("U", ("X", "Y"), f, 0)


def group_w(field):
    a = field.base_gen()
    f = _pp(field, 2, (0, 2, field.one()), (0, 0, -field.one()), (1, 1, a))
    return HypersurfaceGroup("W", ("X", "Y"), f, 0)


def group_w2(field):
    if field.p != 2:
        raise ValueError("W2 exists at p = 2 only")
    a = field.base_gen()
    f = _pp(field, 3, (0, 2, field.one()), (0, 0, field.one()), (1, 1, a), (2, 3, a * a))
    return HypersurfaceGroup("W2", ("X", "Y", "Z"), f, 0)


def split_line(field):
    """{Y = 0} inside the plane: a split presentation of the line."""
    f = _pp(field, 2, (1, 0, field.one()))
    return HypersurfaceGroup("GaSplit", ("X", "Y"), f, 1)


def gabber_cocycle(field):
    """h((x,y),(x',y')) = (x x'^p - x^p x', x y'^p - x' y^p) on Va x Va."""
    one = field.one()
    p = field.p
    h1 = _mono(field, 4, one, (0, 1), (2, p)) - _mono(field, 4, one, (0, p), (2, 1))
    h2 = _mono(field, 4, one, (0, 1), (3, p)) - _mono(field, 4, one, (2, 1), (1, p))
    return (h1, h2)


def gabber_extension(field):
    return CocycleExtension("Ua", group_wa(field), group_va(field), gabber_cocycle(field))


def hom_ring_w(field):
    """Parameters (d, e) subject to the W-relation d = d^(p^2) + a e^p."""
    return ParamRing(field, ("d", "e"), [(group_w(field).f, 0)])


def phi_b_map(field):
    """(X, Y) -> (d^p X + d X^p, e X + d Y^p) from Va to U over the W-ring."""
    ring = hom_ring_w(field)
    d, e = ring.param("d"), ring.param("e")
    src, tgt = group_va(field), group_u(field)
    c1 = _pp(ring, 2, (0, 0, d.frobenius(1)), (0, 1, d))
    c2 = _pp(ring, 2, (0, 0, e), (1, 1, d))
    return PPolyMap("phi_b", src, tgt, (c1, c2), ring)


def b_map_polys(field):
    """b((x',y'),(x,y)) = (x x'^p + x^p x', x y' + x' y^p) over (x',y',x,y)."""
    one = field.one()
    p = field.p
    b1 = _mono(field, 4, one, (2, 1), (0, p)) + _mono(field, 4, one, (2, p), (0, 1))
    b2 = _mono(field, 4, one, (2, 1), (1, 1)) + _mono(field, 4, one, (0, 1), (3, p))
    return (b1, b2)


def hom_ring_w2(field):
    """Parameters (X', Y', Z') subject to the W2 relation, p = 2."""
    return ParamRing(field, ("X'", "Y'", "Z'"), [(group_w2(field).f, 0)])


def b2_induced_map(field):
    """The p = 2 analogue: (X,Y) -> b2((X',Y',Z'), (X,Y)) from Va to U,
    with (X',Y',Z') parameters on W2."""
    if field.p != 2:
        raise ValueError("b2 exists at p = 2 only")
    ring = hom_ring_w2(field)
    a = ring.coerce(field.base_gen())
    xp, yp, zp = ring.param("X'"), ring.param("Y'"), ring.param("Z'")
    src, tgt = group_va(field), group_u(field)
    # first coordinate: (X'^2 + a Z'^4) X + X' X^2 + a Z'^2 Y^2
    c1 = _pp(ring, 2,
             (0, 0, xp * xp + a * zp * zp * zp * zp),
             (0, 1, xp),
             (1, 1, a * zp * zp))
    # second coordinate: Y' X + Z'^2 X^2 + Z' Y + X' Y^2
    c2 = _pp(ring, 2,
             (0, 0, yp),
             (0, 1, zp * zp),
             (1, 0, zp),
             (1, 1, xp))
    return PPolyMap("b2_induced", src, tgt, (c1, c2), ring)


def b2_polys(field):
    """b2 over the joint space (X', Y', Z', X, Y), p = 2."""
    one = field.one()
    a = field.base_gen()
    b1 = (_mono(field, 5, one, (3, 1), (0, 2)) + _mono(field, 5, a, (3, 1), (2, 4))
          + _mono(field, 5, one, (3, 2), (0, 1)) + _mono(field, 5, a, (4, 2), (2, 2)))
    b2 = (_mono(field, 5, one, (3, 1), (1, 1)) + _mono(field, 5, one, (3, 2), (2, 2))
          + _mono(field, 5, one, (4, 1), (2, 1)) + _mono(field, 5, one, (4, 2), (0, 1)))
    return (b1, b2)


def _splitting_pair(group, field, b, name):
    """Mutually inverse isomorphisms group <-> Ga of a form X + X^p + b^p Y^p:
    (X, Y) -> X + b Y and T -> (-T^p, b^-1 (T + T^p))."""
    from .groups import AffineLine

    line = AffineLine()
    f = PPolyMap(f"{name}_to_line", group, line,
                 (_pp(field, 2, (0, 0, field.one()), (1, 0, b)),))
    g = PPolyMap(f"line_to_{name}", line, group,
                 (_pp(field, 1, (0, 1, -field.one())),
                  _pp(field, 1, (0, 0, b.inverse()), (0, 1, b.inverse()))))
    return f, g


def wa_splitting_pair(field):
    """The mutually inverse isomorphisms Wa <-> Ga over k(a^(1/p))."""
    deep = field.extend(1)
    return _splitting_pair(group_wa(deep), deep, deep.gen_elem(), "wa")  # b = a^(1/p)


def twisted_wa_splitting_pair(field):
    """Depth-0 splitting of the Frobenius twist of Wa: the twisted group is
    split over the base field itself."""
    from .groups import twist_group

    return _splitting_pair(twist_group(group_wa(field), 1), field, field.base_gen(), "twisted")


def paper_names_hom_vu():
    """The unknown-naming scheme of the worked Hom(V, U) derivation."""
    names = {(0, 0, 0): "c", (0, 0, 1): "d", (1, 0, 0): "e", (1, 0, 1): "f"}
    for e in range(0, 8):
        names[(0, 1, e)] = f"f{e}"
        names[(1, 1, e)] = f"g{e}"
    return names


def hom_vu_expected_constraints(p):
    """The worked derivation's equations (1), (2) and the Y-coefficient
    equations of (3), at the default Y-exponent cap 3; one string per
    surviving (variable, exponent) slot."""
    return [
        f"d^{p} + a*f^{p} - c",
        f"c^{p} + a*e^{p} - d",
        "-f0",
        f"f0^{p} - f1 + a*g0^{p}",
        f"f1^{p} - f2 + a*g1^{p} - a*d^{p} - a^2*f^{p}",
        f"f2^{p} - f3 + a*g2^{p}",
        f"f3^{p} + a*g3^{p}",
    ]


# ---------------------------------------------------------------------------
# the built-in regression corpus (cmd_selftest_paper)


def check_corpus_degree(p):
    """ValueError unless the corpus degrees p^2 (group Va has X^(p^2)) stay
    within MAX_PPOWER, the degree scale the parser allows an input file."""
    from .parser import MAX_PPOWER
    if p * p > MAX_PPOWER:
        raise ValueError(f"corpus degree {p}^2 exceeds the supported degree scale {MAX_PPOWER}")


def selftest_items(p, seed=0, trials=100):
    """(name, thunk) pairs; each thunk returns (ok, detail).  ValueError
    for a p whose corpus degrees exceed the parser's degree scale."""
    check_corpus_degree(p)
    if p == 2:
        return _selftest_p2(seed, trials)
    return _selftest_odd(p, seed, trials)


def _ok(cond, detail=None):
    return (bool(cond), detail)


def _selftest_odd(p, seed, trials):
    from .groups import (block_relations, check_biadditive, check_group_axioms,
                         check_lands_in, classify, is_alternating, is_commutative,
                         twist_group)
    from .homs import (derive_hom_constraints, landing_identity, solve_homs_bounded,
                       verify_hom, verify_mutual_inverse)
    from .oracle import random_point_oracle
    from .parser import parse_poly
    from .polyring import Poly

    k = base_field(p)
    a = k.base_gen()
    items = []

    def classify_item(build):
        def run():
            rep = classify(build(k))
            return _ok(rep.smooth and rep.connected == "yes"
                       and rep.wound_verdict == "certified",
                       f"wound={rep.wound_verdict}")
        return run

    items.append(("classify.Wa.wound_certified", classify_item(group_wa)))
    items.append(("classify.Va.wound_certified", classify_item(group_va)))
    items.append(("classify.U.wound_certified", classify_item(group_u)))

    def split_item():
        f, g = wa_splitting_pair(k)
        return _ok(verify_mutual_inverse(f, g))
    items.append(("Wa.splits_over_depth1", split_item))

    ext = gabber_extension(k)
    items.append(("gabber.biadditive", lambda: _ok(check_biadditive(ext))))
    items.append(("gabber.alternating", lambda: _ok(is_alternating(ext))))
    items.append(("gabber.lands_in_Wa",
                  lambda: _ok(check_lands_in(ext.h, ext.pair_relations(), ext.center))))

    def axioms_item():
        rep = check_group_axioms(ext)
        bad = [name for name, ok in rep.axioms if not ok]
        return _ok(rep.all_pass, f"failing={bad}" if bad else None)
    items.append(("gabber.group_axioms", axioms_item))
    items.append(("gabber.noncommutative", lambda: _ok(not is_commutative(ext))))

    def b_item():
        rset = block_relations([(group_w(k), 0), (group_va(k), 2)], 4)
        return _ok(check_lands_in(b_map_polys(k), rset, group_u(k)))
    items.append(("b.lands_in_U", b_item))

    items.append(("phi_b.hom", lambda: _ok(verify_hom(phi_b_map(k)))))

    def phi_b_oracle_item():
        poly, rset = landing_identity(phi_b_map(k))
        return _ok(random_point_oracle(poly, rset, seed=seed, trials=trials))
    items.append(("phi_b.oracle_agrees", phi_b_oracle_item))

    def commutator_oracle_item():
        n = ext.base.nvars
        swap = [Poly.variable(k, 2 * n, (i + n) % (2 * n)) for i in range(2 * n)]
        comm = ext.h[0] - ext.h[0].substitute(swap)
        return _ok(not random_point_oracle(comm, ext.pair_relations(),
                                           seed=seed, trials=trials))
    items.append(("gabber.commutator_oracle_refutes", commutator_oracle_item))

    def derive_item():
        cs = derive_hom_constraints(group_va(k), group_u(k), names=paper_names_hom_vu())
        got = {q.monic() for q in cs.polys()}
        want = {parse_poly(t, k, cs.ring.names).monic()
                for t in hom_vu_expected_constraints(p)}
        return _ok(got == want, f"{len(got)} constraints")
    items.append(("derive.VU.matches_worked_equations", derive_item))

    def twist_item():
        from .parser import render_elem
        rep = classify(twist_group(group_wa(k), 1))
        shown = ", ".join(render_elem(x) for x in rep.wound.witness or ())
        return _ok(rep.wound_verdict == "refuted"
                   and rep.wound.witness == (-a, k.one()),
                   f"witness=({shown})")
    items.append(("twist.Wa.wound_refuted", twist_item))

    def twist_split_item():
        f, g = twisted_wa_splitting_pair(k)
        return _ok(verify_mutual_inverse(f, g))
    items.append(("twist.Wa.splits_over_base", twist_split_item))

    items.append(("frobenius.Wa.hom",
                  lambda: _ok(verify_hom(relative_frobenius(group_wa(k), 1)))))

    def end_u_item():
        cs = derive_hom_constraints(group_u(k), group_u(k))
        sols = solve_homs_bounded(cs, [k.from_int(i) for i in range(p)])
        ok = (len(sols) >= p and all(verify_hom(s.map) for s in sols))
        return _ok(ok, f"count={len(sols)} (complete within bound)")
    items.append(("End_U.bounded_search", end_u_item))

    return items


def _selftest_p2(seed, trials):
    from .groups import block_relations, classify, landing_poly
    from .homs import verify_hom
    from .polyring import is_identically_zero as id_zero

    k = base_field(2)
    items = []

    def w2_item():
        rep = classify(group_w2(k))
        return _ok(rep.smooth and rep.connected == "yes",
                   f"wound={rep.wound_verdict} (mixed exponents stay unknown)")
    items.append(("W2.smooth_connected", w2_item))

    def b2_biadd_item():
        b1, b2 = b2_polys(k)
        # bi-additivity across the (X',Y',Z') | (X,Y) split: every monomial
        # is a product of one p-power from each block
        for comp in (b1, b2):
            for m in comp.terms:
                left = sum(1 for i in (0, 1, 2) if m[i])
                right = sum(1 for i in (3, 4) if m[i])
                if left != 1 or right != 1:
                    return _ok(False, f"monomial {m} is not bilinear")
                if any(m[i] and (m[i] & (m[i] - 1)) for i in range(5)):
                    return _ok(False, f"monomial {m} has a non-p-power exponent")
        return _ok(True)
    items.append(("b2.biadditive_shape", b2_biadd_item))

    def b2_landing_item():
        rset = block_relations([(group_w2(k), 0), (group_va(k), 3)], 5)
        land = landing_poly(b2_polys(k), group_u(k))
        return _ok(id_zero(land, rset))
    items.append(("b2.lands_in_U", b2_landing_item))

    items.append(("b2.hom_under_W2_relation",
                  lambda: _ok(verify_hom(b2_induced_map(k)))))
    return items
