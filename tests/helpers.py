"""Shared builders for the test suite: fields, corpus polynomials, random
instances for the division and decision property suites, a brute-force
witness scan, a square-and-multiply power, dense fqpoly kernels, a dense
F_p elimination, a FieldElem elimination over F_q(b), the point oracle's
bare trial loop, and the earlier p-polynomial division, Hom derivation and
Hom solver."""

import itertools
import random

from woundcheck import fqpoly as fq
from woundcheck.field import Field, FieldElem, FieldSpec
from woundcheck.gfq import GFq, is_prime
from woundcheck.homs import (MAX_ENUM, ConstraintSystem, EnumerationBudgetError, HomSolution,
                             PPolyMap, _domain_key, _fp_vectors, _undigits,
                             default_exponent_caps)
from woundcheck.groups import is_line
from woundcheck.oracle import parametrize_relation
from woundcheck.params import ParamRing
from woundcheck.polyring import Poly, _add_terms
from woundcheck.ppoly import PPoly, ReductionTrace, join_dom


def field_fpa(p=3, depth=0, e=1):
    return Field(FieldSpec(p, e, "a", depth))


def table_fields(q_max):
    """Every GF(p^e) with e >= 2 and p^e <= q_max."""
    return [GFq(p, e) for p in range(2, 65) if is_prime(p)
            for e in range(2, 13) if p ** e <= q_max]


def ppoly(field, nvars, *terms):
    """terms: (var, exp, coeff-as-int-or-elem)."""
    out = {}
    for i, e, c in terms:
        c = field.coerce(c)
        out[(i, e)] = out.get((i, e), field.zero()) + c
    return PPoly(field, nvars, out)


def wa_poly(field):
    """X + X^p + aY^p."""
    a = field.base_gen()
    return ppoly(field, 2, (0, 0, 1), (0, 1, 1), (1, 1, a))


def va_poly(field):
    """X^(p^2) - X + aY^(p^2)."""
    a = field.base_gen()
    return ppoly(field, 2, (0, 2, 1), (0, 0, -field.one()), (1, 2, a))


def u_poly(field):
    """X^p - X + aY^p."""
    a = field.base_gen()
    return ppoly(field, 2, (0, 1, 1), (0, 0, -field.one()), (1, 1, a))


def w_poly(field):
    """X^(p^2) - X + aY^p."""
    a = field.base_gen()
    return ppoly(field, 2, (0, 2, 1), (0, 0, -field.one()), (1, 1, a))


def w2_poly(field):
    """X^(p^2) + X + aY^p + a^2 Z^(p^3), the p = 2 hom-scheme group."""
    a = field.base_gen()
    return ppoly(field, 3, (0, 2, 1), (0, 0, 1), (1, 1, a), (2, 3, a * a))


def dense_add(gf, f, g):
    """f + g coefficient by coefficient over the full length: the
    reference for fqpoly.add."""
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = gf.add(out[i], c)
    return fq.norm(out)


def dense_smul(gf, c, f):
    """c * f coefficient by coefficient: the reference for fqpoly.smul."""
    return fq.norm([gf.mul(c, x) for x in f])


def dense_mul(gf, f, g):
    """f * g by the schoolbook loop over every pair of coefficients: the
    reference for fqpoly.mul."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = gf.add(out[i + j], gf.mul(a, b))
    return fq.norm(out)


def dense_divmod(gf, f, g):
    """Quotient and remainder by long division that subtracts c * g over
    every coefficient of g, zeros and lead included: the reference for
    fqpoly.divmod_."""
    rem = list(f)
    quo = [0] * max(len(f) - len(g) + 1, 0)
    inv_lead = gf.inv(g[-1])
    for k in range(len(quo) - 1, -1, -1):
        c = gf.mul(rem[k + len(g) - 1], inv_lead)
        quo[k] = c
        for i, gc in enumerate(g):
            rem[k + i] = gf.add(rem[k + i], gf.neg(gf.mul(c, gc)))
    return fq.norm(quo), fq.norm(rem)


def dense_rref(rows, p):
    """Reduced row echelon form mod p in two passes over every row: forward
    elimination to an echelon form, then back substitution from the last
    pivot up, with inverses from the extended Euclidean algorithm.  The
    reference for field.rref: (nonzero rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        top = len(pivots)
        below = [r for r in range(top, len(a)) if a[r][c]]
        if not below:
            continue
        a[top], a[below[0]] = a[below[0]], a[top]
        inv = _inverse_mod(a[top][c], p)
        a[top] = [x * inv % p for x in a[top]]
        for r in range(top + 1, len(a)):
            f = a[r][c]
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[top])]
        pivots.append(c)
    for i in reversed(range(len(pivots))):
        for r in range(i):
            f = a[r][pivots[i]]
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[i])]
    return a[:len(pivots)], pivots


def _inverse_mod(x, p):
    r0, r1, s0, s1 = p, x, 0, 1
    while r1:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    return s0 % p


def dense_left_kernel(rows, field):
    """(rank, x) for the matrix with the given rows of FieldElems: x is a
    nonzero vector with x . rows = 0, or None when the rows are independent.
    Gauss-Jordan over F_q(b) with FieldElem arithmetic, normalizing every
    entry it updates: the reference for zerocert.left_kernel_vector."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    t = [[rows[i][j] for i in range(n)] for j in range(ncols)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(t)) if not t[i][c].is_zero()), None)
        if pr is None:
            continue
        t[r], t[pr] = t[pr], t[r]
        inv = t[r][c].inverse()
        t[r] = [v * inv for v in t[r]]
        for i in range(len(t)):
            if i != r and not t[i][c].is_zero():
                f = t[i][c]
                t[i] = [t[i][k] - f * t[r][k] for k in range(n)]
        pivots.append(c)
        r += 1
        if r == len(t):
            break
    rank = len(pivots)
    if rank == n:
        return rank, None
    free = next(c for c in range(n) if c not in pivots)
    x = [field.zero()] * n
    x[free] = field.one()
    for i, c in enumerate(pivots):
        x[c] = -t[i][free]
    return rank, x


def pow_by_squaring(x, n):
    """x ** n by binary square-and-multiply from one, inverting first when
    n < 0: the reference for the Frobenius-digit power."""
    if n < 0:
        x, n = x.inverse(), -n
    r = x.field.one()
    while n:
        if n & 1:
            r = r * x
        x = x * x
        n >>= 1
    return r


def rand_elem(field, rng, deg=2, rational=False):
    q = field.spec.q
    num = tuple(rng.randrange(q) for _ in range(rng.randrange(deg + 1) + 1))
    if rational and rng.random() < 0.3:
        den = tuple(rng.randrange(q) for _ in range(rng.randrange(deg) + 1)) + (1,)
        return field.elem(num, den)
    return field.elem(num)


def rand_ppoly(field, rng, nvars, max_exp=3, deg=2, density=0.6):
    terms = {}
    for i in range(nvars):
        for e in range(max_exp + 1):
            if rng.random() < density:
                c = rand_elem(field, rng, deg)
                if not c.is_zero():
                    terms[(i, e)] = c
    return PPoly(field, nvars, terms)


def rand_division_pair(field, rng, nvars=3, max_exp=3, deg=2):
    """A divisor with a unit pivot coefficient, a dividend, and the pivot."""
    while True:
        f = rand_ppoly(field, rng, nvars, max_exp, deg)
        pivots = [i for i in f.vars_present()]
        if pivots and not f.is_zero():
            pivot = rng.choice(pivots)
            h = rand_ppoly(field, rng, nvars, max_exp, deg)
            if not h.is_zero():
                return h, f, pivot


def rand_principal_part(field, rng, nvars=3, max_exp=2, deg=2, equal=True):
    exp = rng.randrange(max_exp + 1)
    terms = {}
    for i in range(nvars):
        e = exp if equal else rng.randrange(max_exp + 1)
        while True:
            c = rand_elem(field, rng, deg)
            if not c.is_zero():
                break
        terms[(i, e)] = c
    return PPoly(field, nvars, terms)


def plant_zero(P, rng, degree_bound):
    """P with one coefficient shifted so that P vanishes at a random point
    whose entries are polynomials of degree <= degree_bound over F_q, one
    of them 1; P itself when the shift would cancel that coefficient."""
    field = P.dom
    pres = P.vars_present()
    j = rng.choice(pres)
    point = [field.elem(tuple(rng.randrange(field.spec.q) for _ in range(degree_bound + 1)))
             for _ in range(P.nvars)]
    point[j] = field.one()
    (slot,) = [s for s in P.terms if s[0] == j]
    c = P.terms[slot] - P.evaluate(point)
    if c.is_zero():
        return P
    return PPoly(field, P.nvars, {**P.terms, slot: c})


def brute_force_poly_search(P, degree_bound, extra_gens=0, extra_degree=None):
    """The first zero of the principal part P, over F_q and with polynomial
    coefficients, among witness vectors with polynomial entries of degree
    <= degree_bound in 1 + extra_gens transcendentals (extra_degree in the
    extra ones).  The scan runs itertools.product over the F_q codes of the
    entries' coefficients: the last variable's first, then the other
    variables' in order, each entry's in C order of its coefficient array,
    the first one most significant.  Each candidate is evaluated with the
    ``gfq`` operations as a sparse map from monomials to coefficients.
    Returns, per variable, its codes as nested tuples of that shape, or
    None."""
    field = P.dom
    gf = field.gf
    pres = P.vars_present()
    order = pres[-1:] + pres[:-1]
    ed = degree_bound if extra_degree is None else extra_degree
    shape = (degree_bound + 1,) + (ed + 1,) * extra_gens
    cells = list(itertools.product(*map(range, shape)))
    terms = {i: (n, c.num) for (i, n), c in P.terms.items()}
    if any(c.den != (1,) for c in P.terms.values()):
        raise ValueError("brute force needs polynomial coefficients")
    for codes in itertools.product(range(gf.q), repeat=len(order) * len(cells)):
        if not any(codes):
            continue
        value = {}
        for t, i in enumerate(order):
            n, c = terms[i]
            q = field.p ** n
            for cell, d in zip(cells, codes[t * len(cells):(t + 1) * len(cells)]):
                if not d:
                    continue
                dq = gf.frob_n(d, n)
                for m, g in enumerate(c):
                    key = (cell[0] * q + m,) + tuple(x * q for x in cell[1:])
                    value[key] = gf.add(value.get(key, 0), gf.mul(g, dq))
        if not any(value.values()):
            flat = [(0,) * len(cells)] * P.nvars
            for t, i in enumerate(order):
                flat[i] = codes[t * len(cells):(t + 1) * len(cells)]
            return tuple(_nest(f, shape) for f in flat)
    return None


def _nest(flat, shape):
    """The sequence flat, in C order, as nested tuples of the given shape."""
    if len(shape) == 1:
        return tuple(flat)
    step = len(flat) // shape[0]
    return tuple(_nest(flat[i:i + step], shape[1:]) for i in range(0, len(flat), step))


def first_refuting_trial(h, rset, seed=0, trials=100):
    """The reference for ``random_point_oracle``: its trial loop alone,
    with no composite, returning the index of the first trial whose point
    gives h != 0, or None when every trial vanishes."""
    field = h.field
    samplers = [parametrize_relation(rel.source, rel.pivot, field) for rel in rset]
    extra = max((s[0] for s in samplers), default=0)
    deep = field.extend(field.spec.depth + extra)
    hdeep = Poly(deep, h.nvars, {m: field.embed(c, deep) for m, c in h.terms.items()})
    in_block = {v for s in samplers for v in s[2]}
    loose = [i for i in range(h.nvars) if i not in in_block]

    for t in range(trials):
        rng = random.Random((seed << 20) ^ (t * 0x9E3779B1))
        point = [deep.zero()] * h.nvars
        for i in loose:
            point[i] = _draw(deep, rng)
        for extra_r, free, coords in samplers:
            own = field.extend(field.spec.depth + extra_r)
            draws = [_draw(own, rng) for _ in free]
            for v, fp in coords.items():
                val = fp.evaluate(draws)
                point[v] = own.embed(val, deep) if own.spec.depth < deep.spec.depth else val
        if not hdeep.evaluate(point).is_zero():
            return t
    return None


def _draw(field, rng):
    return field.elem(tuple(rng.randrange(field.spec.q) for _ in range(4)))


# ---------------------------------------------------------------------------
# references for p-polynomial division and the Hom constraint system: the
# code they replaced, kept verbatim apart from the names


def reference_reduce_mod(h, f, pivot):
    """The reference for ``ppoly.reduce_mod``, which forms each step's
    multiplier once: here every divisor term pays for its own product.

    Division of the p-polynomial h by f, pivoted at the given variable.

    Returns a ReductionTrace whose remainder h' satisfies
    deg_pivot(h') < p^(n_pivot) and h = (sum of traced multiples of f) + h'.
    The remainder is unique for (f, pivot), so reduction is idempotent and
    insensitive to adding explicit multiples of f to h.  Each step lowers
    the top pivot term in one Frobenius-shifted subtraction.
    """
    if not isinstance(h, PPoly):
        raise TypeError("reduce_mod divides p-polynomials; reduce a Poly with normal_form")
    n0 = f.max_exp(pivot)
    if n0 is None:
        raise ValueError("pivot variable does not appear in the divisor")
    u = f.terms[(pivot, n0)]
    if not u.is_unit():
        raise ValueError("leading pivot coefficient is not a unit")
    neg_uinv = -u.inverse()
    rem = dict(h.terms)
    dom = join_dom(h.dom, f.dom)
    steps = []
    while True:
        top = max((e for i, e in rem if i == pivot and e >= n0), default=None)
        if top is None:
            break
        c = rem.pop((pivot, top))
        j = top - n0
        steps.append((c, j))
        _add_terms(rem, (((i, e + j), c * (neg_uinv * b).frobenius(j))
                         for (i, e), b in f.terms.items() if (i, e) != (pivot, n0)))
    return ReductionTrace(f, pivot, tuple(steps), PPoly._raw(dom, h.nvars, rem))


def reference_derive(source, target, caps=None, names=None):
    """The reference for ``homs.derive_hom_constraints``: it composes the
    target with the symbolic ansatz and divides the composite.  Its
    constraints are Polys over the unknowns, to compare with the derived
    system's ``polys()``.

    Build the generic-map constraint system characterizing Hom within the
    ansatz bounds.

    names, when given, maps (coordinate, variable, exponent) to the symbol
    to use; defaults to c<coordinate>_<varname>_<exponent>.
    """
    if is_line(source):
        raise ValueError("use a split presentation (e.g. {Y = 0}) for a line source")
    defaults = default_exponent_caps(source, target)
    if caps:
        for i, cap in caps.items():
            if i == source.pivot and cap > defaults[source.pivot]:
                raise ValueError("pivot cap exceeds the canonical-form bound")
            defaults[i] = cap
    slots = []
    for j in range(target.nvars):
        for i in range(source.nvars):
            for e in range(defaults[i] + 1):
                if names is not None:
                    nm = names[(j, i, e)]
                else:
                    nm = f"c{j}_{source.vars[i]}_{e}"
                slots.append((nm, j, i, e))
    ring = ParamRing(source.field, tuple(s[0] for s in slots))
    ansatz = []
    for j in range(target.nvars):
        terms = {}
        for nm, jj, i, e in slots:
            if jj == j:
                terms[(i, e)] = ring.param(nm)
        ansatz.append(PPoly(ring, source.nvars, terms))
    ansatz = tuple(ansatz)
    if is_line(target):
        constraints = ()
    else:
        composed = target.f.compose(ansatz)
        reduced = reference_reduce_mod(composed, source.f, source.pivot).remainder
        constraints = tuple(((i, e), reduced.terms[(i, e)].poly)
                            for (i, e) in sorted(reduced.terms))
    return ConstraintSystem(source, target, ring, tuple(slots), constraints)


def reference_solve(cs, domain):
    """The reference for ``homs.solve_homs_bounded``: it builds each matrix
    entry as a FieldElem sum of products and then clears denominators.

    Every assignment of the unknowns from the finite domain that satisfies
    every constraint; deterministic order, each returned map guaranteed to
    verify, and canonical by construction when cs comes from
    derive_hom_constraints (its ansatz caps each pivot exponent below the
    source's canonical bound, so no coordinate needs dividing).

    Each constraint is a p-polynomial in the unknowns, so over the F_p-span
    of the domain the solutions form an F_p-subspace: the kernel of one
    matrix with a column per (unknown, span basis element).  Its points are
    listed and kept when every coordinate lies in the domain, which is all
    of them for a subspace domain.  EnumerationBudgetError is raised before
    listing when p^dim(kernel) * #unknowns exceeds MAX_ENUM.
    """
    field = cs.ring.base
    p = field.p
    nunk = len(cs.ring.names)
    domain = list(domain)
    # span basis d_1..d_r, and each domain element keyed by its coordinates
    den, vecs = _fp_vectors(field, domain)
    rows, dpiv = dense_rref(vecs, p)
    r = len(dpiv)
    by_coords = {tuple(v[c] for c in dpiv): x for v, x in zip(vecs, domain)}
    basis = [FieldElem(field, _undigits(field.gf, row), den) for row in rows]
    # one column per (unknown, d_j); l^p = l for l in F_p, so
    # u = sum l_j d_j gives u^(p^e) = sum l_j d_j^(p^e)
    ncols = nunk * r
    frob = {}
    matrix = []
    for _, constraint in cs.constraints:
        cols = [field.zero()] * ncols
        for (u, e), c in constraint.terms.items():
            for j, d in enumerate(basis):
                if (j, e) not in frob:
                    frob[(j, e)] = d.frobenius(e)
                cols[u * r + j] = cols[u * r + j] + c * frob[(j, e)]
        _, vals = _fp_vectors(field, cols)
        matrix.extend(row for row in zip(*vals) if any(row))
    reduced, pivots = dense_rref(matrix, p)
    free = [c for c in range(ncols) if c not in pivots]
    if p ** len(free) * nunk > MAX_ENUM:
        raise EnumerationBudgetError(
            f"listing {p}^{len(free)} kernel points of {nunk} unknowns exceeds {MAX_ENUM}")
    forced = [(c, [row[f] for f in free]) for c, row in zip(pivots, reduced)]
    solutions = []
    lam = [0] * ncols
    for t in itertools.product(range(p), repeat=len(free)):
        for f, v in zip(free, t):
            lam[f] = v
        for c, coef in forced:
            lam[c] = -sum(a * v for a, v in zip(coef, t)) % p
        sol = tuple(by_coords.get(tuple(lam[u * r:u * r + r])) for u in range(nunk))
        if all(x is not None for x in sol):
            solutions.append(sol)
    solutions.sort(key=lambda sol: [_domain_key(v) for v in sol])
    out = []
    for sol in solutions:
        terms = [{} for _ in range(cs.target.nvars)]
        for (_, j, i, e), v in zip(cs.slots, sol):
            if v:
                terms[j][(i, e)] = v
        coords = tuple(PPoly(cs.source.field, cs.source.nvars, t) for t in terms)
        m = PPolyMap(f"sol{len(out)}", cs.source, cs.target, coords)
        out.append(HomSolution(dict(zip(cs.ring.names, sol)), m))
    return out
