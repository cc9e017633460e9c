"""Unipotent groups presented as additive-polynomial hypersurfaces.

A HypersurfaceGroup is the kernel {F = 0} inside a product of additive
groups, together with a designated pivot variable whose leading coefficient
is a unit; the pivot drives canonical forms and division.  The affine line
itself (no defining equation) appears as AffineLine, so splitting maps can
use it as source or target.

A CocycleExtension is a central factor W, a base V, and a bi-additive
cocycle h (one general polynomial per W coordinate, in two copies of V's
variables).  The group law is (w, v)(w', v') = (w + w' + h(v, v'), v + v');
the checks below verify bi-additivity, the landing of h in W, the cocycle
identity behind associativity, the identity and inverse laws, and
commutativity, all as polynomial identities modulo the V relations.
"""

from dataclasses import dataclass

from .polyring import Poly, RelationSet, is_identically_zero
from .ppoly import PPoly, is_smooth, to_relation
from .zerocert import ZeroDecision, decide_no_nontrivial_zero


class AffineLine:
    """The additive line as a bare group: one coordinate, no relation."""

    name = "Ga"
    vars = ("T",)
    nvars = 1
    f = None
    pivot = None

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AffineLine()"


def is_line(g):
    return isinstance(g, AffineLine)


@dataclass(frozen=True)
class HypersurfaceGroup:
    name: str
    vars: tuple
    f: PPoly
    pivot: int

    def __post_init__(self):
        if self.f.is_zero():
            raise ValueError("defining polynomial must be nonzero")
        if len(self.vars) != self.f.nvars:
            raise ValueError("variable names do not match the polynomial")
        n0 = self.f.max_exp(self.pivot)
        if n0 is None:
            raise ValueError("pivot variable absent from the defining polynomial")
        if not self.f.terms[(self.pivot, n0)].is_unit():
            raise ValueError("pivot leading coefficient is not a unit")

    @property
    def nvars(self):
        return len(self.vars)

    @property
    def field(self):
        return self.f.dom

    def __repr__(self):
        return f"<group {self.name}>"


@dataclass(frozen=True)
class ClassificationReport:
    smooth: bool
    connected: str           # "yes" | "unknown"
    wound: ZeroDecision
    dimension: int

    @property
    def wound_verdict(self):
        return {"no_zero": "certified", "zero": "refuted", "unknown": "unknown"}[self.wound.verdict]


def classify(g, search_bound=3):
    """Smoothness, a sufficient connectedness test, and the wound verdict."""
    f = g.f
    smooth = is_smooth(f)
    occurrences = {}
    for (i, _e) in f.terms:
        occurrences[i] = occurrences.get(i, 0) + 1
    connected = "yes" if any(c == 1 for c in occurrences.values()) else "unknown"
    wound = decide_no_nontrivial_zero(f.principal_part(), search_bound=search_bound)
    return ClassificationReport(smooth, connected, wound, g.nvars - 1)


def shift_vars(f, offset, ambient):
    """Embed a PPoly into a larger variable space at the given offset."""
    return PPoly(f.dom, ambient, {(i + offset, e): c for (i, e), c in f.terms.items()})


def block_relations(blocks, ambient):
    """RelationSet from (group, offset) pairs over an ambient space."""
    rels = []
    for g, off in blocks:
        if is_line(g):
            continue
        rels.append(to_relation(shift_vars(g.f, off, ambient), g.pivot + off))
    return RelationSet(ambient, rels)


def check_lands_in(map_polys, rset, target):
    """normal_form(F_target o map, relations) == 0, for general Poly maps."""
    if len(map_polys) != target.nvars:
        raise ValueError("map arity does not match the target")
    landing = landing_poly(map_polys, target)
    return is_identically_zero(landing, rset)


def landing_poly(map_polys, target):
    nv = map_polys[0].nvars
    fld = map_polys[0].field
    acc = Poly.zero(fld, nv)
    for (i, e), c in target.f.terms.items():
        acc = acc + map_polys[i].frob_pow(e).scale(c)
    return acc


@dataclass(frozen=True)
class CocycleExtension:
    name: str
    center: HypersurfaceGroup   # W, receiving the cocycle values
    base: HypersurfaceGroup     # V, two copies of whose variables h uses
    h: tuple                    # one Poly per center coordinate, over 2 * base.nvars

    def __post_init__(self):
        n = self.base.nvars
        if len(self.h) != self.center.nvars:
            raise ValueError("cocycle has wrong number of components")
        for comp in self.h:
            if comp.nvars != 2 * n:
                raise ValueError("cocycle components must use two copies of the base variables")

    def pair_relations(self):
        n = self.base.nvars
        return block_relations([(self.base, 0), (self.base, n)], 2 * n)

    def triple_relations(self):
        n = self.base.nvars
        return block_relations([(self.base, 0), (self.base, n), (self.base, 2 * n)], 3 * n)


def check_biadditive(h):
    """h(v + v'', v') = h(v, v') + h(v'', v') and symmetrically, as
    identities in the ambient coordinate ring (no relations needed).

    Accepts the component tuple itself or a CocycleExtension.
    """
    return all(p.is_zero() for _, p in biadditivity_defects(h))


def biadditivity_defects(h):
    if isinstance(h, CocycleExtension):
        h = h.h
    if len({comp.nvars for comp in h}) != 1 or h[0].nvars % 2:
        raise ValueError("cocycle components must share an even variable count")
    n = h[0].nvars // 2
    fld = h[0].field
    amb = 3 * n

    def var(i):
        return Poly.variable(fld, amb, i)

    v = [var(i) for i in range(n)]
    v2 = [var(n + i) for i in range(n)]
    v3 = [var(2 * n + i) for i in range(n)]
    out = []
    for idx, comp in enumerate(h):
        first = comp.substitute([v[i] + v3[i] for i in range(n)] + v2) \
            - comp.substitute(v + v2) - comp.substitute(v3 + v2)
        second = comp.substitute(v + [v2[i] + v3[i] for i in range(n)]) \
            - comp.substitute(v + v2) - comp.substitute(v + v3)
        out.append((f"h{idx + 1}.first_slot", first))
        out.append((f"h{idx + 1}.second_slot", second))
    return out


def cocycle_identities(ext):
    """Named (poly, relations) pairs whose vanishing gives the group axioms."""
    n = ext.base.nvars
    fld = ext.base.field
    amb = 3 * n

    def var(i):
        return Poly.variable(fld, amb, i)

    v = [var(i) for i in range(n)]
    v2 = [var(n + i) for i in range(n)]
    v3 = [var(2 * n + i) for i in range(n)]
    zero = [Poly.zero(fld, n) for _ in range(n)]
    small = [Poly.variable(fld, n, i) for i in range(n)]
    triple = ext.triple_relations()
    single = block_relations([(ext.base, 0)], n)
    items = []
    for idx, comp in enumerate(ext.h):
        assoc = comp.substitute(v + v2) \
            + comp.substitute([v[i] + v2[i] for i in range(n)] + v3) \
            - comp.substitute(v + [v2[i] + v3[i] for i in range(n)]) \
            - comp.substitute(v2 + v3)
        items.append((f"associativity.h{idx + 1}", assoc, triple))
        items.append((f"identity_left.h{idx + 1}", comp.substitute(zero + small), single))
        items.append((f"identity_right.h{idx + 1}", comp.substitute(small + zero), single))
        inv = comp.substitute(small + [-s for s in small])
        items.append((f"inverse.h{idx + 1}", inv, single))
    return items


@dataclass(frozen=True)
class AxiomReport:
    lands_in_center: bool
    biadditive: bool
    axioms: tuple   # (name, bool) pairs
    commutative: bool

    @property
    def all_pass(self):
        return self.lands_in_center and self.biadditive and all(ok for _, ok in self.axioms)


def check_group_axioms(ext):
    lands = check_lands_in(ext.h, ext.pair_relations(), ext.center)
    biadd = check_biadditive(ext)
    axioms = tuple((name, is_identically_zero(p, rset))
                   for name, p, rset in cocycle_identities(ext))
    return AxiomReport(lands, biadd, axioms, is_commutative(ext))


def is_commutative(ext):
    """normal_form(h(v, v') - h(v', v)) == 0 against the base relations."""
    n = ext.base.nvars
    fld = ext.base.field
    swap = [Poly.variable(fld, 2 * n, (i + n) % (2 * n)) for i in range(2 * n)]
    rset = ext.pair_relations()
    return all(is_identically_zero(comp - comp.substitute(swap), rset) for comp in ext.h)


def is_alternating(ext):
    """normal_form(h(v, v)) == 0 against the base relations."""
    n = ext.base.nvars
    fld = ext.base.field
    diag = [Poly.variable(fld, n, i % n) for i in range(2 * n)]
    single = block_relations([(ext.base, 0)], n)
    return all(is_identically_zero(comp.substitute(diag), single) for comp in ext.h)


def twist_group(g, n):
    """The Frobenius twist: every defining coefficient raised to p^n."""
    if n == 0:
        return g
    return HypersurfaceGroup(f"{g.name}^(p^{n})", g.vars, g.f.frobenius_twist(n), g.pivot)
