"""Homomorphisms between hypersurface groups.

Every coordinate of a map is a p-polynomial in the source variables, so
additivity is automatic; being a homomorphism is exactly the landing
condition F_target(map) = 0 modulo the source relation and any parameter
relations.  Canonical forms reduce each coordinate below the source pivot
bound, which by the division lemma's uniqueness makes two maps equal as
morphisms iff their canonical forms coincide.

Constraint derivation builds the generic map with one fresh symbol per
allowed (coordinate, variable, exponent) slot, composes, reduces, and
collects one vanishing condition per surviving coefficient.  Every such
condition is additive in the unknowns, so the solver works by exact
F_p-linear algebra: over the F_p-span of a finite coefficient domain the
solutions are the points of an affine F_p-kernel, which it lists and
filters to the domain, refusing a kernel whose points times unknowns
exceed MAX_ENUM.  It returns every satisfying map in canonical form.
"""

import itertools
from dataclasses import dataclass

from . import fqpoly as fq
from .field import FieldElem, _rref, clear_denominators
from .groups import block_relations, is_line, shift_vars
from .params import ParamRing, flatten_ppoly
from .polyring import RelationSet
from .ppoly import PPoly, reduce_mod, to_relation


MAX_ENUM = 10_000_000  # largest p^dim(kernel) * #unknowns the solver lists


class EnumerationBudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class PPolyMap:
    name: str
    source: object            # HypersurfaceGroup or AffineLine
    target: object            # HypersurfaceGroup or AffineLine
    coords: tuple             # one PPoly in the source variables per target coordinate
    params: ParamRing = None

    def __post_init__(self):
        if len(self.coords) != self.target.nvars:
            raise ValueError("coordinate count does not match the target")
        for c in self.coords:
            if c.nvars != self.source.nvars:
                raise ValueError("coordinate over the wrong source variables")

    def __repr__(self):
        return f"<map {self.name}: {self.source.name} -> {self.target.name}>"


def canonical_form(m):
    """Reduce every coordinate below the source pivot bound; idempotent, and
    maps equal as morphisms canonicalize identically."""
    if is_line(m.source):
        return m
    coords = tuple(reduce_mod(c, m.source.f, m.source.pivot).remainder for c in m.coords)
    return PPolyMap(m.name, m.source, m.target, coords, m.params)


def relative_frobenius(g, n):
    """The coordinatewise p^n power map from g onto its Frobenius twist."""
    from .groups import twist_group

    tw = twist_group(g, n)
    coords = tuple(PPoly.variable(g.field, g.nvars, i, n) for i in range(g.nvars))
    return PPolyMap(f"frobenius^{n}", g, tw, coords)


def identity_map(g, field=None):
    if is_line(g):
        if field is None:
            raise ValueError("the line needs an explicit coefficient field")
        coords = (PPoly.variable(field, 1, 0),)
    else:
        coords = tuple(PPoly.variable(g.field, g.nvars, i) for i in range(g.nvars))
    return PPolyMap("id", g, g, coords)


def compose_maps(g, f):
    """g o f (apply f first)."""
    if not (f.target is g.source or f.target == g.source):
        raise ValueError("maps are not composable")
    coords = tuple(c.compose(f.coords) for c in g.coords)
    params = f.params or g.params
    return PPolyMap(f"{g.name}.{f.name}", f.source, g.target, coords, params)


def verify_hom(m):
    """The landing condition: F_target(coords) reduces to zero modulo the
    source relation and the parameter relations (carried inside the map's
    coefficient ring).  Additivity is automatic for p-polynomial coords."""
    if is_line(m.target):
        return True
    composed = m.target.f.compose(m.coords)
    if not is_line(m.source):
        composed = reduce_mod(composed, m.source.f, m.source.pivot).remainder
    return all(c.is_zero() for c in composed.terms.values())


def landing_identity(m):
    """(poly, relations) over source variables + parameter symbols whose
    normal form vanishing is exactly verify_hom; used by the oracle."""
    if is_line(m.target):
        return None
    ring = m.params
    npar = len(ring.names) if ring is not None else 0
    nsrc = m.source.nvars
    amb = nsrc + npar
    fld = ring.base if ring is not None else m.coords[0].dom
    composed = m.target.f.compose(m.coords)
    poly = flatten_ppoly(composed, list(range(nsrc)), list(range(nsrc, amb)), fld, amb)
    rels = list(block_relations([(m.source, 0)], amb))
    if ring is not None:
        for fp, pivot in ring.ppoly_relations:
            rels.append(to_relation(shift_vars(fp, nsrc, amb), pivot + nsrc))
    return poly, RelationSet(amb, rels)


def verify_mutual_inverse(f, g):
    """f and g are homomorphisms composing to the identity both ways."""
    if not (verify_hom(f) and verify_hom(g)):
        return False
    return (_is_identity(compose_maps(g, f), f.source)
            and _is_identity(compose_maps(f, g), g.source))


def _is_identity(m, g):
    m = canonical_form(m)
    dom = m.coords[0].dom
    want = tuple(PPoly.variable(dom, g.nvars, i) for i in range(g.nvars))
    return m.coords == want


# ---------------------------------------------------------------------------
# constraint derivation


@dataclass(frozen=True)
class ConstraintSystem:
    source: object
    target: object
    ring: ParamRing                  # the fresh unknown symbols, no relations
    slots: tuple                     # (name, coordinate, variable, exponent)
    ansatz: tuple                    # generic map coordinates (PPoly over ring)
    constraints: tuple               # ((variable, exponent), Poly over unknowns)

    def polys(self):
        return tuple(p for _, p in self.constraints)


def default_exponent_caps(source, target):
    """Pivot capped by the canonical bound; elsewhere the target's maximal
    exponent plus the source's."""
    src_max = max(e for _, e in source.f.terms)
    tgt_max = 0 if is_line(target) else max(e for _, e in target.f.terms)
    caps = {}
    for i in range(source.nvars):
        if i == source.pivot:
            caps[i] = source.f.max_exp(source.pivot) - 1
        else:
            caps[i] = tgt_max + src_max
    return caps


def derive_hom_constraints(source, target, caps=None, names=None):
    """Build the generic-map constraint system characterizing Hom within the
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
        reduced = reduce_mod(composed, source.f, source.pivot).remainder
        constraints = tuple(((i, e), reduced.terms[(i, e)].poly)
                            for (i, e) in sorted(reduced.terms))
    return ConstraintSystem(source, target, ring, tuple(slots), ansatz, constraints)


# ---------------------------------------------------------------------------
# solving: the F_p-kernel over the span of the domain


def _additive_slot(m, p):
    """(unknown, e) for the monomial u^(p^e), None for the constant one."""
    live = [(i, x) for i, x in enumerate(m) if x]
    if not live:
        return None
    if len(live) == 1:
        i, x = live[0]
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        if x == 1:
            return i, e
    raise ValueError(f"constraint monomial {m} is not additive in the unknowns")


def _fp_vectors(field, elems):
    """F_p coordinates of elems over one common denominator D: the base-p
    digits of every GF(q) coefficient of the numerators.  Returns (D,
    vectors); the vectors share one length."""
    gf = field.gf
    den, nums = clear_denominators(field, elems)
    width = max(map(len, nums), default=0)
    p, e = gf.p, gf.e
    vectors = []
    for num in nums:
        num = num + (0,) * (width - len(num))
        if e == 1:
            vectors.append(list(num))
        else:
            vectors.append([c // p ** t % p for c in num for t in range(e)])
    return den, vectors


def _undigits(gf, digits):
    """The numerator whose coordinates _fp_vectors reads as digits."""
    e = gf.e
    return fq.norm([sum(d * gf.p ** t for t, d in enumerate(digits[i:i + e]))
                    for i in range(0, len(digits), e)])


def solve_homs_bounded(cs, domain):
    """Every assignment of the unknowns from the finite domain that satisfies
    every constraint; deterministic order, each returned map in canonical
    form and guaranteed to verify.

    Each constraint is additive in the unknowns, so over the F_p-span of the
    domain the solutions form an affine F_p-subspace: the kernel of one
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
    rows, dpiv = _rref(vecs, p)
    r = len(dpiv)
    by_coords = {tuple(v[c] for c in dpiv): x for v, x in zip(vecs, domain)}
    basis = [FieldElem(field, _undigits(field.gf, row), den) for row in rows]
    # one column per (unknown, d_j) and a last one for the constant term;
    # l^p = l for l in F_p, so u = sum l_j d_j gives u^(p^e) = sum l_j d_j^(p^e)
    ncols = nunk * r
    frob = {}
    matrix = []
    for _, poly in cs.constraints:
        cols = [field.zero()] * (ncols + 1)
        for m, c in poly.terms.items():
            slot = _additive_slot(m, p)
            if slot is None:
                cols[ncols] = c
                continue
            u, e = slot
            for j, d in enumerate(basis):
                if (j, e) not in frob:
                    frob[(j, e)] = d.frobenius(e)
                cols[u * r + j] = cols[u * r + j] + c * frob[(j, e)]
        _, vals = _fp_vectors(field, cols)
        matrix.extend(row for row in zip(*vals) if any(row))
    reduced, pivots = _rref(matrix, p)
    if ncols in pivots:
        return []  # inconsistent: 1 = 0
    free = [c for c in range(ncols) if c not in pivots]
    if p ** len(free) * nunk > MAX_ENUM:
        raise EnumerationBudgetError(
            f"listing {p}^{len(free)} kernel points of {nunk} unknowns exceeds {MAX_ENUM}")
    forced = [(c, (-row[ncols]) % p, [row[f] for f in free])
              for c, row in zip(pivots, reduced)]
    solutions = []
    lam = [0] * ncols
    for t in itertools.product(range(p), repeat=len(free)):
        for f, v in zip(free, t):
            lam[f] = v
        for c, rhs, coef in forced:
            lam[c] = (rhs - sum(a * v for a, v in zip(coef, t))) % p
        sol = tuple(by_coords.get(tuple(lam[u * r:u * r + r])) for u in range(nunk))
        if all(x is not None for x in sol):
            solutions.append(sol)
    solutions.sort(key=lambda sol: [_domain_key(v) for v in sol])
    out = []
    for sol in solutions:
        terms = [{} for _ in cs.ansatz]
        for (_, j, i, e), v in zip(cs.slots, sol):
            if v:
                terms[j][(i, e)] = v
        coords = tuple(PPoly(cs.source.field, cs.source.nvars, t) for t in terms)
        m = PPolyMap(f"sol{len(out)}", cs.source, cs.target, coords)
        out.append(HomSolution(dict(zip(cs.ring.names, sol)), canonical_form(m)))
    return out


@dataclass(frozen=True)
class HomSolution:
    values: dict
    map: PPolyMap


def _domain_key(x):
    return (x.den, x.num)
