"""Parameter-extended coefficient rings.

A ParamRing adjoins named symbols to a base field; the symbols may be free
(as in a homomorphism ansatz) or subject to additive-polynomial relations
solved at a pivot symbol with unit leading coefficient, in which case every
element is kept in normal form with respect to those relations.

A ParamElem wraps an ordinary Poly over the parameter variables with field
coefficients.  Arithmetic coerces field elements on either side, so
p-polynomials can mix parameter and field coefficients freely.
"""

from .field import FieldElem
from .polyring import Poly, RelationSet, _add_terms, normal_form
from .ppoly import to_relation


class ParamRing:
    __slots__ = ("base", "names", "relations", "ppoly_relations")

    def __init__(self, base, names, relations=()):
        """relations: iterable of (additive polynomial over the parameter
        space, pivot index); each pivot's leading coefficient must be a
        nonzero field constant, and pivots are pairwise distinct."""
        self.base = base
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names")
        compiled = []
        self.ppoly_relations = tuple(relations)
        for fp, pivot in self.ppoly_relations:
            if fp.nvars != len(self.names):
                raise ValueError("relation over the wrong parameter space")
            compiled.append(to_relation(fp, pivot))
        self.relations = RelationSet(len(self.names), compiled)

    @property
    def p(self):
        return self.base.p

    def __repr__(self):
        return f"ParamRing({','.join(self.names)} over {self.base!r})"

    def __eq__(self, other):
        return (isinstance(other, ParamRing)
                and self.base == other.base
                and self.names == other.names
                and self.ppoly_relations == other.ppoly_relations)

    def __hash__(self):
        return hash((self.base, self.names, self.ppoly_relations))

    def index(self, name):
        return self.names.index(name)

    def zero(self):
        return ParamElem(self, Poly.zero(self.base, len(self.names)))

    def one(self):
        return ParamElem(self, Poly.constant(self.base, len(self.names), self.base.one()))

    def param(self, name):
        return ParamElem(self, Poly.variable(self.base, len(self.names), self.index(name)))

    def coerce(self, x):
        if isinstance(x, ParamElem):
            if x.ring is not self and x.ring != self:
                raise ValueError("element from a different parameter ring")
            return x
        if isinstance(x, (FieldElem, int)):
            c = self.base.coerce(x)
            return ParamElem(self, Poly.constant(self.base, len(self.names), c))
        raise TypeError(f"cannot coerce {x!r}")


class ParamElem:
    __slots__ = ("ring", "poly")

    def __init__(self, ring, poly, reduced=False):
        self.ring = ring
        if not reduced and len(ring.relations):
            poly = normal_form(poly, ring.relations)
        self.poly = poly

    def _wrap(self, poly, reduced=False):
        return ParamElem(self.ring, poly, reduced)

    def _coerce(self, other):
        if isinstance(other, ParamElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("parameter ring mismatch")
            return other
        if isinstance(other, (FieldElem, int)):
            return self.ring.coerce(other)
        return None

    def is_zero(self):
        return self.poly.is_zero()

    def is_unit(self):
        """Nonzero field constants only (sound under-approximation)."""
        terms = self.poly.terms
        if len(terms) != 1:
            return False
        (m, c), = terms.items()
        return not any(m) and c.is_unit()

    def constant_value(self):
        if self.poly.is_zero():
            return self.ring.base.zero()
        (m, c), = self.poly.terms.items()
        if any(m):
            raise ValueError("not a constant")
        return c

    def inverse(self):
        return self._wrap(Poly.constant(self.ring.base, len(self.ring.names),
                                        self.constant_value().inverse()), reduced=True)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(self.poly + other.poly, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-self.poly, reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(self.poly - other.poly, reduced=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (FieldElem, int)):
            # a scaled normal form is already normal
            return self._wrap(self.poly.scale(self.ring.base.coerce(other)), reduced=True)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(self.poly * other.poly)

    __rmul__ = __mul__

    def frobenius(self, n=1):
        return self._wrap(self.poly.frob_pow(n))

    def __repr__(self):
        from .parser import render_poly
        return f"<param {render_poly(self.poly, self.ring.names)}>"


def flatten_ppoly(f, var_slots, param_slots, ambient_field, ambient_n):
    """Spread a PPoly (possibly with parameter coefficients) into one Poly.

    var_slots[i] is the ambient index of the p-polynomial's i-th variable;
    param_slots[j] the ambient index of the j-th parameter symbol.
    """
    p = ambient_field.p

    def spread():
        for (i, e), c in f.terms.items():
            m = [0] * ambient_n
            m[var_slots[i]] = p ** e
            if isinstance(c, FieldElem):
                yield tuple(m), c
                continue
            for pm, pc in c.poly.terms.items():
                mm = list(m)
                for j, exp in enumerate(pm):
                    if exp:
                        mm[param_slots[j]] += exp
                yield tuple(mm), pc

    return Poly._raw(ambient_field, ambient_n, _add_terms({}, spread()))
