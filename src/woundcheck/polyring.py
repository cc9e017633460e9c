"""Multivariate polynomials over a Field, and reduction modulo relations.

A Poly maps exponent vectors (tuples of ints, one slot per variable) to
nonzero FieldElem coefficients.  The canonical monomial order is graded
lexicographic on exponent vectors; serialization and leading-term
extraction use it, while equality is plain dict equality.

A Relation is a rewrite rule X_i^B -> rhs compiled from (and keeping as
its source) an additive polynomial with unit leading coefficient in its
pivot variable.  Relations in a RelationSet must have pairwise disjoint
variable blocks, which makes the rewriting confluent: normal_form is the
iterated division remainder and does not depend on rewrite order.
"""

from heapq import heappop, heappush
from operator import add

from .record import Record


def grlex_key(exps):
    return (sum(exps), exps)


def _add_terms(out, pairs):
    """Add each (key, coefficient) of pairs into the sparse map out, dropping
    keys whose coefficient sums to zero; returns out."""
    for k, c in pairs:
        s = out.get(k)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


class Poly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def _raw(cls, field, nvars, terms):
        self = object.__new__(cls)
        self.field = field
        self.nvars = nvars
        self.terms = terms
        return self

    @classmethod
    def zero(cls, field, nvars):
        return cls._raw(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        c = field.coerce(c)
        if c.is_zero():
            return cls.zero(field, nvars)
        return cls._raw(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, i, exp=1):
        m = [0] * nvars
        m[i] = exp
        return cls._raw(field, nvars, {tuple(m): field.one()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        return Poly._raw(self.field, self.nvars, _add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return Poly._raw(self.field, self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if c.is_zero():
            return Poly.zero(self.field, self.nvars)
        return Poly._raw(self.field, self.nvars, {m: c * x for m, x in self.terms.items()})

    def mul_term(self, exps, c):
        if c.is_zero():
            return Poly.zero(self.field, self.nvars)
        out = {}
        for m, x in self.terms.items():
            out[tuple(map(add, m, exps))] = c * x
        return Poly._raw(self.field, self.nvars, out)

    def __mul__(self, other):
        self._check(other)
        other_terms = other.terms.items()
        out = _add_terms({}, ((tuple(map(add, m1, m2)), c1 * c2)
                              for m1, c1 in self.terms.items() for m2, c2 in other_terms))
        return Poly._raw(self.field, self.nvars, out)

    def frob_pow(self, n):
        """self ** (p^n), termwise by the freshman's dream."""
        if n == 0:
            return self
        k = self.field.p ** n
        return Poly._raw(self.field, self.nvars,
                         {tuple(e * k for e in m): c.frobenius(n) for m, c in self.terms.items()})

    def pow_(self, n):
        """General power, split along base-p digits so p-power parts are cheap."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return Poly.constant(self.field, self.nvars, self.field.one())
        result = None
        p = self.field.p
        level = 0
        while n:
            d = n % p
            if d:
                piece = self.frob_pow(level)
                for _ in range(d):
                    result = piece if result is None else result * piece
            n //= p
            level += 1
        return result

    def substitute(self, args):
        """Evaluate at a tuple of Polys (the evaluation homomorphism)."""
        if len(args) != self.nvars:
            raise ValueError("wrong number of substitution arguments")
        nv = args[0].nvars if args else self.nvars
        if not self.terms:
            return Poly.zero(self.field, nv)
        out = Poly.zero(self.field, nv)
        cache = {}
        for m, c in self.terms.items():
            piece = None
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    pw = cache.get(key)
                    if pw is None:
                        pw = cache[key] = args[i].pow_(e)
                    piece = pw if piece is None else piece * pw
            if piece is None:
                piece = Poly.constant(self.field, nv, c)
            elif not c.is_one():
                piece = piece.scale(c)
            out = out + piece
        return out

    def evaluate(self, point):
        """Evaluate at field elements.  Each power point[i] ** e is taken
        once per evaluation and shared by every monomial that uses it."""
        if len(point) != self.nvars:
            raise ValueError("wrong point length")
        powers = {}
        acc = self.field.zero()
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    x = powers.get((i, e))
                    if x is None:
                        x = powers[i, e] = point[i] ** e
                    v = v * x
            acc = acc + v
        return acc

    def deg_in(self, i):
        return max((m[i] for m in self.terms), default=-1)

    def leading(self):
        """(exps, coeff) of the graded-lex leading monomial."""
        m = max(self.terms, key=grlex_key)
        return m, self.terms[m]

    def monic(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        _, c = self.leading()
        if c.is_one():
            return self
        return self.scale(c.inverse())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __repr__(self):
        from .parser import render_poly
        return f"<poly {render_poly(self)}>"


class Relation(Record):
    """Rewrite rule X_pivot^bound -> rhs, with deg_pivot(rhs) < bound,
    compiled by ppoly.to_relation from its source p-polynomial."""

    __slots__ = ("pivot", "bound", "rhs", "source")

    def __init__(self, pivot, bound, rhs, source):
        self.pivot = pivot
        self.bound = bound
        self.rhs = rhs          # a Poly
        self.source = source    # the additive polynomial it was compiled from

    @property
    def block(self):
        vs = {self.pivot}
        for m in self.rhs.terms:
            vs.update(i for i, e in enumerate(m) if e)
        return vs


class RelationSet:
    """Relations with pairwise disjoint variable blocks and distinct pivots."""

    __slots__ = ("nvars", "relations")

    def __init__(self, nvars, relations):
        self.nvars = nvars
        self.relations = tuple(relations)
        blocks = []
        for r in self.relations:
            if r.rhs.nvars != nvars:
                raise ValueError("relation over the wrong variable space")
            if r.rhs.deg_in(r.pivot) >= r.bound:
                raise ValueError("relation rhs not reduced in its own pivot")
            blocks.append(r.block)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] & blocks[j]:
                    raise ValueError("relation variable blocks overlap")

    def __iter__(self):
        return iter(self.relations)

    def __len__(self):
        return len(self.relations)


def normal_form(h, rset):
    """The unique remainder of h modulo the RelationSet rset.

    Monomials whose pivot degree meets a relation's bound are rewritten by
    one application of X^B -> rhs at a time.  A rewrite lowers the sum of
    the pivot degrees, so taking monomials in descending order of that sum
    rewrites each one once, with all of its coefficient; disjoint blocks
    make the result independent of rewrite order.
    """
    if h.nvars != rset.nvars:
        raise ValueError("polynomial and relations disagree on variable count")
    rels = rset.relations
    if not rels:
        return h
    work = dict(h.terms)
    heap = []
    new = work
    while True:
        for m in new:
            for k, r in enumerate(rels):
                if m[r.pivot] >= r.bound:
                    heappush(heap, (-sum(m[q.pivot] for q in rels), m, k))
                    break
        if not heap:
            return Poly._raw(h.field, h.nvars, work)
        _, m, k = heappop(heap)
        c = work.pop(m, None)
        if c is None:  # cancelled, or a second entry for m
            new = ()
            continue
        r = rels[k]
        lowered = list(m)
        lowered[r.pivot] -= r.bound
        new = r.rhs.mul_term(lowered, c).terms
        _add_terms(work, new.items())


def is_identically_zero(h, rset):
    """True iff h reduces to the zero polynomial modulo the relations."""
    return normal_form(h, rset).is_zero()
