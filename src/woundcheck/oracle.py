"""Randomized point oracle for polynomial identities modulo relations.

Points on a relation variety {F = 0} are sampled from a variable Y that
occurs in exactly one term c * Y^(p^r): draw every other block variable as
S^(p^r) and extract the p^r-th root of the equation solved for Y, over the
tower deepened by r.  The shallowest such Y wins, and among those at r = 0
the pivot comes first, so a relation linear in its pivot is solved for the
pivot over the base field.  The root is taken coefficientwise: the
equation's ratios lie in the base field, whose embedding in the deeper
one spreads exponents by p^r, so their p^r-th roots there have the same
num and den with every F_q coefficient rooted.  The parametrization is
verified by composition when it is built, and the samplers' coordinates
carry their own tower level, so no level is built twice.

Free variables are drawn as random polynomials of degree <= 3 in the
(possibly deepened) working generator.  Before any draw the identity is
composed with the samplers once: substituting and then evaluating is a
ring homomorphism, so a zero composite proves that every trial vanishes,
for every seed and trial count, and no trial is run.  Otherwise the
oracle is one-sided: a nonzero sample refutes the identity conclusively;
all-zero samples are evidence.
"""

import random

from .field import FieldElem
from .params import flatten_ppoly
from .polyring import Poly, _add_terms
from .ppoly import PPoly


class UnsupportedRelationError(ValueError):
    pass


def parametrize_relation(f, pivot, field):
    """(extra_depth, free_vars, coords) sampling the block of f.

    coords maps every block variable to a PPoly over the free slots,
    defined over field.extend(depth + extra_depth).
    """
    block = sorted({i for i, _ in f.terms})
    single = [(next(e for (j, e) in f.terms if j == i), i) for i in block
              if sum(1 for (j, _) in f.terms if j == i) == 1]
    if not single:
        raise UnsupportedRelationError(
            "no variable occurs in exactly one term; cannot sample the variety")
    # shallowest tower extension wins; a linear pivot is solved for first
    r, y = (0, pivot) if (0, pivot) in single else min(single)
    c = f.terms[(y, r)]
    deeper = field.extend(field.spec.depth + r)
    free = [i for i in block if i != y]
    slot = {v: s for s, v in enumerate(free)}
    coords = {v: PPoly.variable(deeper, len(free), slot[v], r) for v in free}
    cinv = c.inverse()
    gf = field.gf

    def root_ratio(coef):
        # the p^r-th root of coef/c embedded in the deeper field
        ratio = coef * cinv
        if not r:
            return ratio
        return FieldElem._raw(deeper, tuple([gf.proot_n(x, r) for x in ratio.num]),
                              tuple([gf.proot_n(x, r) for x in ratio.den]))

    y_terms = _add_terms({}, (((slot[i], e), -root_ratio(coef))
                              for (i, e), coef in f.terms.items() if i != y))
    coords[y] = PPoly(deeper, len(free), y_terms)

    # sanity: the parametrized point satisfies the relation identically
    femb = PPoly(deeper, f.nvars, {k: field.embed(v, deeper) for k, v in f.terms.items()})
    args = []
    for i in range(f.nvars):
        args.append(coords.get(i, PPoly.zero(deeper, len(free))))
    if not femb.compose(args).is_zero():
        raise RuntimeError("parametrized point does not satisfy the relation")
    return r, free, coords


def random_point_oracle(h, rset, seed=0, trials=100):
    """False as soon as a sampled relation-variety point gives h != 0;
    True when every trial vanishes.

    The composite H of h with the sampler coordinates is built first.  A
    zero H proves that every trial vanishes, so True is returned without
    a draw.  Otherwise each trial draws the loose variables in the deep
    field, then each sampler's free slots in that sampler's own field, and
    evaluates H alone at those draws: H there equals h at the sampled
    point, so the first refuting trial is the one h would give.  Building
    H takes each power of a coordinate once: a p-power costs one Frobenius
    step, so additive and bi-additive identities give small composites,
    but an h of high degree that is not a p-power can expand
    multinomially.
    """
    field = h.field
    samplers = [parametrize_relation(rel.source, rel.pivot, field) for rel in rset]
    extra = max((s[0] for s in samplers), default=0)
    deep = field.extend(field.spec.depth + extra)
    hdeep = Poly(deep, h.nvars, {m: field.embed(c, deep) for m, c in h.terms.items()})
    in_block = {v for s in samplers for v in s[2]}
    loose = [i for i in range(h.nvars) if i not in in_block]
    composite = _composite(hdeep, samplers, loose)
    if composite.is_zero():
        return True
    # the field each variable of the composite is drawn from, in draw order
    fields = [deep] * len(loose) + [_level(coords) for _, free, coords in samplers for _ in free]
    for t in range(trials):
        rng = random.Random((seed << 20) ^ (t * 0x9E3779B1))
        point = [own.embed(_draw(own, rng), deep) for own in fields]
        if not composite.evaluate(point).is_zero():
            return False
    return True


def _level(coords):
    """The tower level a sampler's coordinates are defined over."""
    return next(iter(coords.values())).dom


def _composite(hdeep, samplers, loose):
    """hdeep with each block variable replaced by its sampler coordinate
    and each loose variable kept: a Poly over hdeep's field whose variables
    are the loose variables in order, then every sampler's free slots.
    Evaluating it at a trial's draws gives hdeep at that trial's point."""
    deep = hdeep.field
    nv = sum(len(free) for _, free, _ in samplers) + len(loose)
    args = [None] * hdeep.nvars
    for offset, i in enumerate(loose):
        args[i] = Poly.variable(deep, nv, offset)
    offset = len(loose)
    for _, free, coords in samplers:
        own = _level(coords)
        slots = range(offset, offset + len(free))
        for v, fp in coords.items():
            fdeep = PPoly(deep, fp.nvars, {k: own.embed(c, deep) for k, c in fp.terms.items()})
            args[v] = flatten_ppoly(fdeep, slots, (), deep, nv)
        offset += len(free)
    return hdeep.substitute(args)


def _draw(field, rng):
    return field.elem(tuple(rng.randrange(field.spec.q) for _ in range(4)))
