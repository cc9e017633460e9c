"""Multivariate additive (p-) polynomials and the division algorithm.

A PPoly represents sum(c[i,e] * X_i^(p^e)): a finite map from pairs
(variable index, Frobenius exponent) to nonzero coefficients.  Every such
polynomial defines an additive map on points, and composition, principal
parts, Frobenius twists and division against a pivoted p-polynomial all
stay inside this class of objects.

Coefficients are FieldElem values or elements of a parameter ring; the
code only relies on the shared coefficient protocol (ring operations plus
``frobenius``/``inverse``/``is_zero``/``is_unit``).  The canonical term
order is (variable, exponent) ascending.

``reduce_mod`` divides a p-polynomial by a p-polynomial whose leading
pivot coefficient is a unit, returning a replayable trace: the remainder,
again a p-polynomial, plus the exact multiples of the divisor that were
subtracted.  General polynomials are reduced by ``polyring.normal_form``.
"""

from .field import Field, FieldElem
from .polyring import Poly, Relation, _add_terms
from .record import Record


def join_dom(d1, d2):
    if d1 is d2 or d1 == d2:
        return d1
    if isinstance(d1, Field) and not isinstance(d2, Field):
        return d2
    if isinstance(d2, Field) and not isinstance(d1, Field):
        return d1
    raise ValueError("incompatible coefficient domains")


class PPoly:
    __slots__ = ("dom", "nvars", "terms")

    def __init__(self, dom, nvars, terms):
        self.dom = dom
        self.nvars = nvars
        clean = {}
        for (i, e), c in terms.items():
            if i < 0 or i >= nvars or e < 0:
                raise ValueError(f"bad term position ({i}, {e})")
            if not c.is_zero():
                clean[(i, e)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, dom, nvars, terms):
        self = object.__new__(cls)
        self.dom = dom
        self.nvars = nvars
        self.terms = terms
        return self

    @classmethod
    def zero(cls, dom, nvars):
        return cls._raw(dom, nvars, {})

    @classmethod
    def variable(cls, dom, nvars, i, e=0):
        return cls(dom, nvars, {(i, e): dom.one()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        from .parser import render_ppoly
        return f"<ppoly {render_ppoly(self)}>"

    # -- ring-module structure --------------------------------------------

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = _add_terms(dict(self.terms), other.terms.items())
        return PPoly._raw(join_dom(self.dom, other.dom), self.nvars, out)

    def __neg__(self):
        return PPoly._raw(self.dom, self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if c.is_zero():
            return PPoly.zero(self.dom, self.nvars)
        return PPoly._raw(self.dom, self.nvars, {k: c * x for k, x in self.terms.items()})

    # -- structure queries ---------------------------------------------------

    def vars_present(self):
        return sorted({i for i, _ in self.terms})

    def max_exp(self, i):
        """Top Frobenius exponent of variable i, or None when absent."""
        exps = [e for j, e in self.terms if j == i]
        return max(exps) if exps else None

    def coeff(self, i, e):
        return self.terms.get((i, e))

    # -- the operations of the calculus ---------------------------------------

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        acc = None
        for (i, e), c in self.terms.items():
            v = c * point[i].frobenius(e)
            acc = v if acc is None else acc + v
        if acc is None:
            return self.dom.zero()
        return acc

    def compose(self, maps):
        """self(maps[0], ..., maps[n-1]), again a p-polynomial."""
        if len(maps) != self.nvars:
            raise ValueError(f"expected {self.nvars} inner maps, got {len(maps)}")
        if not maps:
            return self
        nv = maps[0].nvars
        dom = self.dom
        for m in maps:
            if m.nvars != nv:
                raise ValueError("inner maps disagree on variable count")
            dom = join_dom(dom, m.dom)
        out = _add_terms({}, (((j, f + e), c * b.frobenius(e))
                              for (i, e), c in self.terms.items()
                              for (j, f), b in maps[i].terms.items()))
        return PPoly._raw(dom, nv, out)

    def principal_part(self):
        """Keep, for each variable present, only its top-exponent term, in
        increasing variable order; one pass finds every top exponent."""
        top = {}
        for i, e in self.terms:
            if top.get(i, -1) < e:
                top[i] = e
        terms = self.terms
        return PPoly._raw(self.dom, self.nvars,
                          {(i, top[i]): terms[(i, top[i])] for i in sorted(top)})

    def linear_part(self):
        return PPoly._raw(self.dom, self.nvars,
                          {k: c for k, c in self.terms.items() if k[1] == 0})

    def frobenius_twist(self, n):
        """Raise every coefficient to the p^n power; exponents unchanged."""
        if n == 0:
            return self
        return PPoly._raw(self.dom, self.nvars,
                          {k: c.frobenius(n) for k, c in self.terms.items()})

    def frob_power(self, n):
        """self ** (p^n): coefficients powered and exponents shifted."""
        if n == 0:
            return self
        return PPoly._raw(self.dom, self.nvars,
                          {(i, e + n): c.frobenius(n) for (i, e), c in self.terms.items()})

    def to_poly(self):
        """Flatten to an ordinary Poly (field coefficients only)."""
        if not isinstance(self.dom, Field):
            raise TypeError("parameter coefficients need an explicit variable layout")
        p = self.dom.p
        terms = {}
        for (i, e), c in self.terms.items():
            m = [0] * self.nvars
            m[i] = p ** e
            terms[tuple(m)] = c
        return Poly._raw(self.dom, self.nvars, terms)


def is_smooth(f):
    """Nonvanishing linear part: the hypersurface f = 0 is smooth."""
    return not f.linear_part().is_zero()


def to_relation(f, pivot):
    """Compile f = 0, pivoted at a unit-leading variable, into the rewrite
    rule X_pivot^(p^N) -> rhs used by the normal-form engine."""
    n0 = f.max_exp(pivot)
    if n0 is None:
        raise ValueError("pivot does not occur in the relation")
    u = f.terms[(pivot, n0)]
    if not (isinstance(u, FieldElem) and u.is_unit()):
        raise ValueError("relation pivot leading coefficient is not a unit")
    rest = PPoly._raw(f.dom, f.nvars, {k: c for k, c in f.terms.items() if k != (pivot, n0)})
    return Relation(pivot, f.dom.p ** n0, rest.to_poly().scale(-u.inverse()), source=f)


class ReductionTrace(Record):
    """Replayable record of division of a p-polynomial by a pivoted one.

    Each step is (multiplier, j) and contributed multiplier * (u^-1 F)^(p^j)
    to the subtracted part, u being the divisor's leading pivot coefficient.
    """

    __slots__ = ("divisor", "pivot", "steps", "remainder")

    def __init__(self, divisor, pivot, steps, remainder):
        self.divisor = divisor
        self.pivot = pivot
        self.steps = steps
        self.remainder = remainder

    def replay(self):
        """Reconstruct the dividend exactly from remainder and steps."""
        f = self.divisor
        u = f.terms[(self.pivot, f.max_exp(self.pivot))]
        uinv_f = f.scale(u.inverse())
        acc = self.remainder
        for c, j in self.steps:
            acc = acc + uinv_f.frob_power(j).scale(c)
        return acc


def reduce_mod(h, f, pivot):
    """Division of the p-polynomial h by f, pivoted at the given variable.

    Returns a ReductionTrace whose remainder h' satisfies
    deg_pivot(h') < p^(n_pivot) and h = (sum of traced multiples of f) + h'.
    The remainder is unique for (f, pivot), so reduction is idempotent and
    insensitive to adding explicit multiples of f to h.  Each step lowers
    the top pivot term in one Frobenius-shifted subtraction, whose
    multiplier c (-u^-1)^(p^j) is formed once for all the divisor's terms.
    A step at pivot exponent t adds only pivot terms below t, since every
    pivot term of f other than u's lies below n0, so one downward sweep of
    the pivot exponents from h's top to n0 takes every step in order.  The
    divisor's other terms are listed once, and -u^-1 is formed at the
    first step taken.
    """
    if not isinstance(h, PPoly):
        raise TypeError("reduce_mod divides p-polynomials; reduce a Poly with normal_form")
    n0 = f.max_exp(pivot)
    if n0 is None:
        raise ValueError("pivot variable does not appear in the divisor")
    u = f.terms[(pivot, n0)]
    if not u.is_unit():
        raise ValueError("leading pivot coefficient is not a unit")
    rem = dict(h.terms)
    dom = join_dom(h.dom, f.dom)
    steps = []
    rest = [(k, b) for k, b in f.terms.items() if k != (pivot, n0)]
    neg_uinv = None
    for t in range(max((e for i, e in rem if i == pivot), default=-1), n0 - 1, -1):
        c = rem.pop((pivot, t), None)
        if c is None:
            continue
        if neg_uinv is None:
            neg_uinv = -u.inverse()
        j = t - n0
        steps.append((c, j))
        s = c * neg_uinv.frobenius(j)
        _add_terms(rem, (((i, e + j), s * b.frobenius(j)) for (i, e), b in rest))
    return ReductionTrace(f, pivot, tuple(steps), PPoly._raw(dom, h.nvars, rem))
