"""Homomorphisms between hypersurface groups.

Every coordinate of a map is a p-polynomial in the source variables, so
additivity is automatic; being a homomorphism is exactly the landing
condition F_target(map) = 0 modulo the source relation and any parameter
relations.  Canonical forms reduce each coordinate below the source pivot
bound, which by the division lemma's uniqueness makes two maps equal as
morphisms iff their canonical forms coincide.

Constraint derivation takes the generic map with one fresh symbol c per
allowed (coordinate, variable, exponent) slot and collects one vanishing
condition per coefficient of F_target(map) reduced modulo the source
relation.  Division by a pivoted p-polynomial is linear in the dividend
(Ore 1933): each step's multiplier is a dividend coefficient times a
fixed p-polynomial.  So the reduced composite is a sum of a c^(p^t)
times the remainder of one source monomial, and each monomial at or above
the pivot bound is divided once, in one step from the p-th power of the
remainder below it; the generic map is never built, only its slots.
Derivation is the one place that checks exponent caps: every cap names a
source variable, none is negative, the pivot's stays below the canonical
bound, and p^cap stays within the degree scale ``parser.MAX_PPOWER``
(a cap of 1 is allowed at every p).  Each condition is a PPoly in the
unknowns, whose term (u, t) is the coefficient of c_u^(p^t): the type
rules out a non-additive one.

Every condition is additive in the unknowns, so the solver works by exact
F_p-linear algebra: over the F_p-span of a finite coefficient domain the
solutions are the F_p-combinations of a sparse kernel basis
(``field.kernel_basis``); it looks up only the unknowns that the basis
moves, reads every other one as 0 once, and refuses a kernel whose points
times unknowns exceed MAX_ENUM.  Rows are dicts from column to a nonzero
digit.  The domain vectors are fed to ``field.rref`` one at a time, so it
stops once they span every digit column.  A constraint's rows, over one
common denominator (scaling keeps its solutions), are one sparse
convolution of its coefficients with the span basis.  Most say that one
column is 0; such columns are deleted before ``rref`` runs on the rest.
The slots keep every pivot exponent below the canonical bound, so each
satisfying map it returns is already canonical.
"""

from collections import defaultdict

from . import fqpoly as fq
from .field import clear_denominators, common_denominator, kernel_basis, rref
from .groups import PPolyMap, block_relations, is_line, shift_vars
from .params import ParamRing, flatten_ppoly
from .polyring import RelationSet
from .ppoly import PPoly, reduce_mod, to_relation
from .record import Record


MAX_ENUM = 10_000_000  # largest p^dim(kernel) * #unknowns the solver lists


class EnumerationBudgetError(RuntimeError):
    pass


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


class ConstraintSystem(Record):
    __slots__ = ("source", "target", "ring", "slots", "constraints")

    def __init__(self, source, target, ring, slots, constraints):
        self.source = source
        self.target = target
        self.ring = ring                # a ParamRing: the fresh unknown symbols, no relations
        self.slots = slots              # (name, coordinate, variable, exponent)
        self.constraints = constraints  # ((variable, exponent), PPoly in the unknowns)

    def polys(self):
        return tuple(p.to_poly() for _, p in self.constraints)


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

    caps maps a source variable index to its largest exponent; a variable
    it leaves out keeps default_exponent_caps.  ValueError for a line
    source, a cap for a variable the source lacks, a negative cap, a pivot
    cap over the canonical-form bound, or a cap N >= 2 with p^N >
    MAX_PPOWER (a prime above MAX_PPOWER keeps the one Frobenius, N = 1).
    names, when given, maps (coordinate, variable, exponent) to the symbol
    to use; defaults to c<coordinate>_<varname>_<exponent>.
    """
    if is_line(source):
        raise ValueError("use a split presentation for a line source")
    bounds = default_exponent_caps(source, target)
    for i, cap in (caps or {}).items():
        if i not in bounds:
            raise ValueError(f"cap for variable index {i}, which {source.name} lacks")
        item = f"{source.vars[i]}={cap}"
        if cap < 0:
            raise ValueError(f"cap {item!r} is negative")
        if i == source.pivot and cap > bounds[i]:
            raise ValueError(f"pivot cap {item!r} exceeds the canonical-form bound {bounds[i]}")
        if cap > 1:
            from .parser import check_ppower  # here, so that loading homs compiles no parser
            check_ppower(source.field.p, cap, f"cap {item!r}:")
        bounds[i] = cap
    slots = []
    for j in range(target.nvars):
        for i in range(source.nvars):
            for e in range(bounds[i] + 1):
                if names is not None:
                    nm = names[(j, i, e)]
                else:
                    nm = f"c{j}_{source.vars[i]}_{e}"
                slots.append((nm, j, i, e))
    ring = ParamRing(source.field, tuple(s[0] for s in slots))
    constraints = () if is_line(target) else _landing_constraints(source, target, slots)
    return ConstraintSystem(source, target, ring, tuple(slots), constraints)


def _landing_constraints(source, target, slots):
    """The coefficients of F_target(generic map) reduced modulo the source
    relation, as p-polynomials in the slot symbols, by linearity of
    division.

    Target term a X_j^(p^t) and slot c at (j, i, e) contribute a c^(p^t)
    x_i^(p^(e+t)), and the remainder of that is a c^(p^t) times the
    remainder of the monomial x_i^(p^(e+t)).  Only a pivot monomial at or
    above the pivot exponent needs dividing, once per call, in one step: it
    is R^p plus a multiple of f for the remainder R of the monomial below
    it, so by uniqueness its remainder is that of R^p.  No two
    (target term, slot) pairs share the term c^(p^t), so every coefficient
    is a single nonzero product.
    """
    field, f, pivot = source.field, source.f, source.pivot
    n0 = f.max_exp(pivot)
    rems = {}
    out = {}
    for (j, t), a in target.f.terms.items():
        a = field.coerce(a)
        for s, (_, jj, i, e) in enumerate(slots):
            if jj != j:
                continue
            m = e + t
            if i != pivot or m < n0:
                out.setdefault((i, m), {})[(s, t)] = a
                continue
            if m not in rems:
                x = rems.get(m - 1)
                x = PPoly.variable(field, source.nvars, pivot, m) if x is None else x.frob_power(1)
                rems[m] = reduce_mod(x, f, pivot).remainder
            for key, b in rems[m].terms.items():
                out.setdefault(key, {})[(s, t)] = a * b
    return tuple((key, PPoly._raw(field, len(slots), out[key])) for key in sorted(out))


# ---------------------------------------------------------------------------
# solving: the F_p-kernel over the span of the domain


def _fp_vectors(field, elems):
    """F_p coordinates of elems over one common denominator D: the base-p
    digits, from gfq, of every GF(q) coefficient of the numerators.  Returns
    (D, vectors); the vectors are tuples of one length."""
    gf = field.gf
    den, nums = clear_denominators(field, elems)
    width = max(map(len, nums), default=0)
    vectors = []
    for num in nums:
        num = num + (0,) * (width - len(num))
        vectors.append(num if gf.e == 1 else tuple(d for c in num for d in gf.digits(c)))
    return den, vectors


def _constraint_rows(gf, constraint, r, nums, den, frob):
    """The sparse F_p rows of one p-polynomial constraint over one common
    denominator L, one per (power of b, digit).  Its term c u^(p^e) puts
    c d_j^(p^e) = c.num nums[j]^(p^e) / (c.den den^(p^e)) in column u r + j;
    frob memoizes per e the nonzero coefficients (j, power, value) of the
    nums[j]^(p^e), and den^(p^e).  Each nonzero coefficient of a numerator
    scaled to L times each of those goes straight into {power: {column:
    value}}, mod p at e = 1, or in F_q and then split into digits.  Scaling
    by L != 0 keeps the constraint's solutions."""
    summands = []
    for (u, e), c in constraint.terms.items():
        if e not in frob:
            frob[e] = ([(j, k, x) for j, n in enumerate(nums)
                        for k, x in enumerate(fq.frob(gf, n, e)) if x], fq.frob(gf, den, e))
        bnums, bden = frob[e]
        summands.append((u * r, bnums, c.num, c.den if bden == fq.ONE else fq.mul(gf, c.den, bden)))
    lcm = common_denominator(gf, [s[3] for s in summands])
    acc, p, e1, mul, add = defaultdict(dict), gf.p, gf.e == 1, gf.mul, gf.add
    for col, bnums, num, d in summands:
        if d != lcm:
            num = fq.mul(gf, num, fq.exact_div(gf, lcm, d))
        for k, a in enumerate(num):
            if a:
                for i, kb, b in bnums:
                    row, j = acc[k + kb], col + i
                    # a b != 0, so only a sum can vanish
                    x = (row.get(j, 0) + a * b) % p if e1 else add(row.get(j, 0), mul(a, b))
                    if x:
                        row[j] = x
                    else:
                        del row[j]
    if e1:
        return acc.values()
    digits = [{j: gf.digits(x) for j, x in row.items()} for row in acc.values()]
    return [{j: d[s] for j, d in row.items() if d[s]} for row in digits for s in range(gf.e)]


def _presolved_rref(matrix, p, width):
    """field.rref of sparse rows, presolved: a row with one entry says that
    its column is 0, so the column is deleted from every other row, until no
    new such row appears.  The unit rows of those columns and rref's rows of
    what is left make up the reduced form of the whole matrix."""
    zero = {}
    while unit := {c: {c: 1} for row in matrix if len(row) == 1 for c in row}:
        zero.update(unit)
        matrix = [row if unit.keys().isdisjoint(row) else
                  {c: x for c, x in row.items() if c not in unit} for row in matrix if len(row) > 1]
    rows, pivots = rref(matrix, p, width)
    reduced = dict(zip(pivots, rows)) | zero
    return [reduced[c] for c in sorted(reduced)], sorted(reduced)


def solve_homs_bounded(cs, domain):
    """Every assignment of the unknowns from the finite domain that satisfies
    every constraint; deterministic order, each returned map guaranteed to
    verify, and canonical by construction when cs comes from
    derive_hom_constraints (its slots cap each pivot exponent below the
    source's canonical bound, so no coordinate needs dividing).

    Each constraint is a p-polynomial in the unknowns, so over the F_p-span
    of the domain the solutions form an F_p-subspace: the kernel of one
    matrix with a column per (unknown, span basis element).  Its points,
    the F_p-combinations of a sparse basis, are kept when every unknown the
    basis moves lies in the domain, and the others are 0, read once: all
    for a subspace domain, none for a domain without 0 and a fixed unknown.
    ValueError for a domain element from another field;
    EnumerationBudgetError is raised before listing when p^dim(kernel) *
    #unknowns exceeds MAX_ENUM.
    """
    field = cs.ring.base
    gf = field.gf
    p = field.p
    nunk = len(cs.ring.names)
    domain = list(domain)
    for x in domain:
        if x.field is not field and x.field.spec != field.spec:
            raise ValueError(f"domain element {x!r} lies in {x.field!r}, not in {field!r}")
    # span basis d_j = nums[j] / den, and each domain element keyed by its
    # coordinates, which are its vector when the span is the whole space
    den, vecs = _fp_vectors(field, domain)
    width = len(vecs[0]) if vecs else 0
    rows, dpiv = rref(({c: x for c, x in enumerate(v) if x} for v in vecs), p, width)
    r = len(dpiv)
    by_coords = (dict(zip(vecs, domain)) if r == width else
                 {tuple(v[c] for c in dpiv): x for v, x in zip(vecs, domain)})
    # the numerators whose digits, as _fp_vectors reads them, are the rows
    nums = [fq.norm([gf.undigits([row.get(c, 0) for c in range(i, i + gf.e)])
                     for i in range(0, width, gf.e)]) for row in rows]
    # one column per (unknown, d_j); l^p = l for l in F_p, so
    # u = sum l_j d_j gives u^(p^e) = sum l_j d_j^(p^e)
    ncols = nunk * r
    frob = {}
    matrix = [row for _, c in cs.constraints for row in _constraint_rows(gf, c, r, nums, den, frob)]
    basis = dict(kernel_basis(*_presolved_rref(matrix, p, ncols), ncols, p))
    if p ** len(basis) * nunk > MAX_ENUM:
        raise EnumerationBudgetError(
            f"listing {p}^{len(basis)} kernel points of {nunk} unknowns exceeds {MAX_ENUM}")
    moving = sorted({c // r for v in basis.values() for c in v})
    zero = by_coords.get((0,) * r)
    points, lam = [], [0] * ncols
    if zero is not None or len(moving) == nunk:
        # an odometer: the vector of free column f turns lam[f], and its p-th
        # addition carries; the last turns fastest, so points come nearly sorted
        while True:
            try:
                points.append([by_coords[tuple(lam[u * r:u * r + r])] for u in moving])
            except KeyError:
                pass
            for f, v in reversed(basis.items()):
                for c, x in v.items():
                    lam[c] = (lam[c] + x) % p
                if lam[f]:
                    break
            else:
                break
    # the fixed unknowns agree across the points, so the moving ones order them
    points.sort(key=lambda vals: [_domain_key(v) for v in vals])
    out = []
    for vals in points:
        sol, terms = [zero] * nunk, [{} for _ in range(cs.target.nvars)]
        for u, x in zip(moving, vals):
            sol[u] = x
            if x:
                _, j, i, e = cs.slots[u]
                terms[j][(i, e)] = x
        coords = tuple(PPoly._raw(cs.source.field, cs.source.nvars, t) for t in terms)
        m = PPolyMap._raw(f"sol{len(out)}", cs.source, cs.target, coords)
        out.append(HomSolution(dict(zip(cs.ring.names, sol)), m))
    return out


class HomSolution(Record):
    __slots__ = ("values", "map")

    def __init__(self, values, map):
        self.values = values
        self.map = map


def _domain_key(x):
    return (x.den, x.num)
