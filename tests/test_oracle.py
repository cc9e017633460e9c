import random

import pytest
from helpers import first_refuting_trial, rand_elem

from woundcheck import corpus
from woundcheck.groups import block_relations, landing_poly
from woundcheck.homs import landing_identity, relative_frobenius
from woundcheck.oracle import UnsupportedRelationError, parametrize_relation, random_point_oracle
from woundcheck.polyring import Poly, RelationSet, is_identically_zero
from woundcheck.ppoly import PPoly, to_relation


def k3():
    return corpus.base_field(3)


def test_identically_zero_polynomial():
    k = k3()
    rset = block_relations([(corpus.group_va(k), 0)], 2)
    assert random_point_oracle(Poly.zero(k, 2), rset, seed=1, trials=5)


def test_free_variable_detected():
    k = k3()
    rset = RelationSet(1, ())
    x = Poly.variable(k, 1, 0)
    assert not random_point_oracle(x, rset, seed=0, trials=5)


def test_parametrizations_satisfy_relations():
    k = k3()
    for g in (corpus.group_wa(k), corpus.group_va(k), corpus.group_u(k), corpus.group_w(k)):
        extra, free, coords = parametrize_relation(g.f, g.pivot, k)
        assert set(coords) == {0, 1}
    k2 = corpus.base_field(2)
    extra, free, coords = parametrize_relation(corpus.group_w2(k2).f, 0, k2)
    assert extra == 1 and len(free) == 2


def test_linear_pivot_solved_in_base_field():
    k = k3()
    line = corpus.split_line(k)
    extra, free, coords = parametrize_relation(line.f, line.pivot, k)
    assert extra == 0
    assert coords[1].is_zero()


def test_sampler_solves_a_linear_pivot_first():
    k = k3()
    a = k.base_gen()
    f = corpus._pp(k, 2, (0, 0, k.one()), (1, 0, a))  # X + a*Y
    extra, free, coords = parametrize_relation(f, 1, k)
    assert (extra, free) == (0, [0])
    assert coords[1] == PPoly(k, 1, {(0, 0): -a.inverse()})
    extra, free, coords = parametrize_relation(f, 0, k)
    assert (extra, free) == (0, [1])


def test_sampler_prefers_the_shallowest_tower_to_the_pivot():
    k = k3()
    f = corpus._pp(k, 2, (0, 1, k.one()), (1, 1, k.base_gen()))  # X^p + a*Y^p
    extra, free, coords = parametrize_relation(f, 1, k)
    assert (extra, free) == (1, [1])


def test_unsupported_relation():
    k = k3()
    # every variable occurs twice: no single-occurrence variable to solve
    f = corpus._pp(k, 2, (0, 0, k.one()), (0, 1, k.one()),
                   (1, 0, k.base_gen()), (1, 1, k.base_gen()))
    with pytest.raises(UnsupportedRelationError):
        parametrize_relation(f, 0, k)


def test_gabber_landing_oracle_agreement():
    k = k3()
    va, wa = corpus.group_va(k), corpus.group_wa(k)
    h = corpus.gabber_cocycle(k)
    rset = block_relations([(va, 0), (va, 2)], 4)
    land = landing_poly(h, wa)
    assert is_identically_zero(land, rset)
    assert random_point_oracle(land, rset, seed=0, trials=100)


def test_gabber_commutator_oracle_refutes():
    k = k3()
    va = corpus.group_va(k)
    h1, _ = corpus.gabber_cocycle(k)
    swap = [Poly.variable(k, 4, i) for i in (2, 3, 0, 1)]
    comm = h1 - h1.substitute(swap)
    rset = block_relations([(va, 0), (va, 2)], 4)
    assert not is_identically_zero(comm, rset)
    assert not random_point_oracle(comm, rset, seed=0, trials=100)


def test_oracle_deterministic_for_seed():
    k = k3()
    va = corpus.group_va(k)
    rset = block_relations([(va, 0)], 2)
    # x alone does not vanish on the variety
    x = Poly.variable(k, 2, 0)
    assert not random_point_oracle(x, rset, seed=3, trials=10)


def _seeded_relation(k, rng):
    """X0 in two terms (the pivot), X1 in exactly one term c*X1^(p^r) with
    r in {0, 1}, and X2 in zero to two terms; coefficients are random
    nonzero elements of degree <= 1 in the working generator, some rational."""
    def coef():
        c = rand_elem(k, rng, deg=1, rational=True)
        return k.one() if c.is_zero() else c
    terms = {(0, 1): coef(), (0, 0): coef(), (1, rng.randrange(2)): coef()}
    for e in rng.sample(range(2), rng.randrange(3)):
        terms[(2, e)] = coef()
    return PPoly(k, 3, terms)


def _assert_matches_trial_loop(h, rset, name):
    """For seeds 0-2 the oracle answers as the bare trial loop does; on a
    refuted input the loop's first refuting trial t is the oracle's: t
    trials pass and t + 1 refute.  Returns how many seeds refuted."""
    refuted = 0
    for seed in range(3):
        t = first_refuting_trial(h, rset, seed=seed, trials=10)
        assert random_point_oracle(h, rset, seed=seed, trials=10) == (t is None), name
        if t is not None:
            refuted += 1
            assert random_point_oracle(h, rset, seed=seed, trials=t), name
            assert not random_point_oracle(h, rset, seed=seed, trials=t + 1), name
    return refuted


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_oracle_on_seeded_relations(p, e, depth):
    """Multiples of the relation vanish at every sampled point, and every
    variable the sampler draws freely is refuted, at the trial loop's
    first refuting trial."""
    k = corpus.base_field(p, e, depth)
    rng = random.Random(1000 * p + 10 * e + depth)
    f = _seeded_relation(k, rng)
    rset = RelationSet(3, [to_relation(f, 0)])
    g = Poly(k, 3, {(rng.randrange(2), rng.randrange(2), 0): rand_elem(k, rng, deg=1),
                    (0, 0, 0): k.one()})
    assert random_point_oracle(f.to_poly() * g, rset, seed=p, trials=20)
    assert _assert_matches_trial_loop(f.to_poly() * g, rset, "multiple") == 0
    _, free, _ = parametrize_relation(f, 0, k)
    assert free
    for v in free:
        assert not random_point_oracle(Poly.variable(k, 3, v), rset, seed=p, trials=20)
        assert _assert_matches_trial_loop(Poly.variable(k, 3, v), rset, f"X{v}") == 3


def _commutator(k):
    ext = corpus.gabber_extension(k)
    n = ext.base.nvars
    swap = [Poly.variable(k, 2 * n, (i + n) % (2 * n)) for i in range(2 * n)]
    return ext.h[0] - ext.h[0].substitute(swap), ext.pair_relations()


def _corpus_inputs():
    """(name, h, relations) of every oracle input the corpus builds."""
    k, k2 = k3(), corpus.base_field(2)
    ext = corpus.gabber_extension(k)
    yield "gabber.landing", landing_poly(ext.h, ext.center), ext.pair_relations()
    yield ("b.landing", landing_poly(corpus.b_map_polys(k), corpus.group_u(k)),
           block_relations([(corpus.group_w(k), 0), (corpus.group_va(k), 2)], 4))
    yield ("b2.landing", landing_poly(corpus.b2_polys(k2), corpus.group_u(k2)),
           block_relations([(corpus.group_w2(k2), 0), (corpus.group_va(k2), 3)], 5))
    yield ("phi_b",) + landing_identity(corpus.phi_b_map(k))
    for field in (k2, k):
        for build in (corpus.group_wa, corpus.group_va, corpus.group_u, corpus.group_w):
            g = build(field)
            yield ((f"frobenius {g.name} p={field.p}",)
                   + landing_identity(relative_frobenius(g, 1)))
    for p in (3, 5):
        yield (f"commutator p={p}",) + _commutator(corpus.base_field(p))


def test_oracle_matches_its_trial_loop_on_the_corpus():
    refuted = sum(_assert_matches_trial_loop(h, rset, name) for name, h, rset in _corpus_inputs())
    assert refuted == 6  # the two commutators, at every seed


def test_oracle_matches_its_trial_loop_on_loose_variables():
    """Variables no relation constrains, at p = 3: the freshman's dream
    holds, and two variables are drawn apart."""
    k = k3()
    x, y = Poly.variable(k, 2, 0), Poly.variable(k, 2, 1)
    free = RelationSet(2, ())
    assert _assert_matches_trial_loop((x + y).pow_(3) - x.pow_(3) - y.pow_(3), free, "dream") == 0
    assert _assert_matches_trial_loop(x - y, free, "difference") == 3


def test_oracle_keeps_the_draw_order_across_trials():
    """At p = 2 a draw is any one element with probability 1/16, so many
    seeds refute only after trial 1.  X0 is loose; X1 is the free slot of
    a sampler at r = 0 (X2 is solved for) and X3 that of one at r = 1 (X4,
    the only single-term variable, has exponent 1).  Each factor of h
    vanishes at a different value, so drawing the three in another order
    moves the first refuting trial of some seed."""
    k = corpus.base_field(2)
    a, one = k.base_gen(), k.one()
    at_r0 = corpus._pp(k, 5, (1, 1, one), (1, 0, one), (2, 0, a))   # X1^2 + X1 + a X2
    at_r1 = corpus._pp(k, 5, (3, 1, one), (3, 0, one), (4, 1, one))  # X3^2 + X3 + X4^2
    rset = RelationSet(5, [to_relation(at_r0, 1), to_relation(at_r1, 3)])
    assert [parametrize_relation(rel.source, rel.pivot, k)[:2] for rel in rset] == [
        (0, [1]), (1, [3])]
    x = [Poly.variable(k, 5, i) for i in range(5)]
    h = x[0] * (x[1] + Poly.constant(k, 5, one)) * (x[3] + Poly.constant(k, 5, a))
    late = 0
    for seed in range(64):
        t = first_refuting_trial(h, rset, seed=seed, trials=20)
        assert t is not None, seed
        late += t >= 2
        assert random_point_oracle(h, rset, seed=seed, trials=t), seed
        assert not random_point_oracle(h, rset, seed=seed, trials=t + 1), seed
    assert late >= 1


def _trials_run(monkeypatch, h, rset, **kw):
    """(oracle answer, number of Poly.evaluate calls it made): each trial
    evaluates the identity once, and nothing else in the oracle does."""
    calls = []
    evaluate = Poly.evaluate
    with monkeypatch.context() as m:
        m.setattr(Poly, "evaluate", lambda self, point: calls.append(1) or evaluate(self, point))
        answer = random_point_oracle(h, rset, **kw)
    return answer, len(calls)


def test_zero_composite_runs_no_trial(monkeypatch):
    k = k3()
    _, unsplit = corpus.wa_splitting_pair(k)
    empty = landing_identity(unsplit)
    assert empty[0].is_zero()
    true = [(h, rset) for name, h, rset in _corpus_inputs()
            if name in ("gabber.landing", "b.landing", "b2.landing", "phi_b")]
    assert len(true) == 4
    for h, rset in true + [empty]:
        assert _trials_run(monkeypatch, h, rset, seed=0, trials=1000) == (True, 0)
    assert _trials_run(monkeypatch, *_commutator(k), seed=0, trials=1000) == (False, 1)
