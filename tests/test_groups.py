import pytest

from woundcheck import corpus
from woundcheck.groups import (HypersurfaceGroup, check_biadditive, check_group_axioms,
                               check_lands_in, classify, is_alternating,
                               is_commutative, twist_group)
from woundcheck.homs import verify_hom, verify_mutual_inverse
from woundcheck.polyring import Poly
from woundcheck.corpus import (b_map_polys, gabber_extension, group_u, group_va,
                               group_w, group_wa, relative_frobenius, split_line)


def k3():
    return corpus.base_field(3)


def test_classify_wa():
    rep = classify(group_wa(k3()))
    assert rep.smooth and rep.connected == "yes"
    assert rep.wound_verdict == "certified"
    assert rep.dimension == 1


def test_classify_va_and_u():
    for build in (group_va, group_u):
        rep = classify(build(k3()))
        assert rep.smooth and rep.connected == "yes"
        assert rep.wound_verdict == "certified"
        assert rep.dimension == 1


def test_classify_split_line():
    k = k3()
    rep = classify(split_line(k))
    assert rep.smooth and rep.connected == "yes"
    assert rep.wound_verdict == "refuted"
    assert rep.wound.witness == (k.one(), k.zero())


def test_group_validation():
    k = k3()
    wa = group_wa(k)
    with pytest.raises(ValueError):
        HypersurfaceGroup("bad", ("X", "Y"), wa.f, 5)


def test_gabber_extension_p3_and_p5():
    for p in (3, 5):
        ext = gabber_extension(corpus.base_field(p))
        assert check_biadditive(ext)
        assert is_alternating(ext)
        rep = check_group_axioms(ext)
        assert rep.lands_in_center and rep.biadditive
        assert all(ok for _, ok in rep.axioms)
        assert rep.all_pass
        assert not is_commutative(ext)
        assert not rep.commutative


def test_direct_product_and_broken_cocycles():
    k = k3()
    ext0 = corpus.CocycleExtension("prod", group_wa(k), group_va(k),
                                   (Poly.zero(k, 4), Poly.zero(k, 4)))
    rep = check_group_axioms(ext0)
    assert rep.all_pass and rep.commutative

    # bilinear but landing nowhere special: x*x' is bi-additive at p = 3
    bil = corpus.CocycleExtension("bil", group_wa(k), group_va(k),
                                  (Poly(k, 4, {(1, 0, 1, 0): k.one()}), Poly.zero(k, 4)))
    assert check_biadditive(bil)
    # x^2 x' is not additive in the first slot
    sq = corpus.CocycleExtension("sq", group_wa(k), group_va(k),
                                 (Poly(k, 4, {(2, 0, 1, 0): k.one()}), Poly.zero(k, 4)))
    assert not check_biadditive(sq)

    # h = (x + x', 0) is not normalized at the origin: identity law fails
    shift = corpus.CocycleExtension("shift", group_wa(k), group_va(k),
                                    (Poly(k, 4, {(1, 0, 0, 0): k.one(), (0, 0, 1, 0): k.one()}),
                                     Poly.zero(k, 4)))
    rep = check_group_axioms(shift)
    failed = dict(rep.axioms)
    assert not failed["identity_left.h1"] and not failed["identity_right.h1"]


def test_symmetric_cocycle_is_commutative():
    k = k3()
    p = k.p
    sym = Poly(k, 4, {(1, 0, p, 0): k.one(), (p, 0, 1, 0): k.one()})
    ext = corpus.CocycleExtension("sym", group_wa(k), group_va(k), (sym, Poly.zero(k, 4)))
    assert is_commutative(ext)


def test_b_map_lands_in_u():
    k = k3()
    from woundcheck.groups import block_relations
    rset = block_relations([(group_w(k), 0), (group_va(k), 2)], 4)
    assert check_lands_in(b_map_polys(k), rset, group_u(k))


def test_zero_map_lands():
    k = k3()
    zero = (Poly.zero(k, 2), Poly.zero(k, 2))
    from woundcheck.groups import block_relations
    rset = block_relations([(group_va(k), 0)], 2)
    assert check_lands_in(zero, rset, group_wa(k))


def test_twist_wa_refuted_with_witness():
    k = k3()
    tw = twist_group(group_wa(k), 1)
    a = k.base_gen()
    assert tw.f == corpus._pp(k, 2, (0, 0, k.one()), (0, 1, k.one()), (1, 1, a ** 3))
    rep = classify(tw)
    assert rep.smooth and rep.connected == "yes"
    assert rep.wound_verdict == "refuted"
    assert rep.wound.witness == (-a, k.one())


def test_twist_preserves_smooth_connected():
    k = k3()
    for build in (group_wa, group_va, group_u):
        g = build(k)
        base = classify(g)
        for n in (1, 2):
            rep = classify(twist_group(g, n))
            assert rep.smooth == base.smooth and rep.connected == base.connected


def test_relative_frobenius_is_hom():
    k = k3()
    for build in (group_wa, group_va, group_u, group_w):
        g = build(k)
        for n in range(4):
            m = relative_frobenius(g, n)
            assert verify_hom(m)
    # twist by 0 is the identity situation
    m0 = relative_frobenius(group_wa(k), 0)
    assert m0.target == group_wa(k)
    assert m0.coords == tuple(corpus.PPoly.variable(k, 2, i) for i in range(2))


def test_va_twist2_relative_frobenius():
    k = k3()
    a = k.base_gen()
    va = group_va(k)
    tw = twist_group(va, 2)
    assert tw.f == corpus._pp(k, 2, (0, 2, k.one()), (0, 0, -k.one()), (1, 2, a ** 9))
    assert verify_hom(relative_frobenius(va, 2))


def test_wa_iso_ga_over_depth1():
    k = k3()
    f, g = corpus.wa_splitting_pair(k)
    assert verify_hom(f) and verify_hom(g)
    assert verify_mutual_inverse(f, g)


def test_twisted_wa_splits_at_depth0():
    k = k3()
    f, g = corpus.twisted_wa_splitting_pair(k)
    assert verify_mutual_inverse(f, g)
