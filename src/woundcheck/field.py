"""Exact arithmetic in towers F_q(a^(1/p^m)).

A FieldSpec fixes the prime p, the constant-field degree e (q = p^e), the
name of the transcendental generator, and the purely inseparable depth m.
The working generator is b = a^(1/p^m); every element is a reduced
rational function in b over F_q:

    FieldElem = num(b) / den(b),  den monic, gcd(num, den) = 1, 0 = 0/1.

That normal form is canonical, so equality is tuple equality.  All values
are immutable; every operation returns a fresh normalized element.

In characteristic p the map x -> x^p is a ring homomorphism, so x^(p^k)
is digit spreading of num and den and needs no product; powers are taken
digit by digit in base p on top of it.  Normalization takes its gcd from
fqpoly, which strips the common power of b before any Euclid.

Sums and products of reduced fractions use Henrici's formulas (Knuth,
TAOCP vol. 2, 4.5.1), which run Euclid on factors instead of on the full
num*den products and need no normalization afterwards:

    a/b + c/d = (t/h) / ((b/g)(d/h)),  g = gcd(b, d),
                t = a(d/g) + c(b/g),   h = gcd(t, g);
    (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)),
                g1 = gcd(a, d),        g2 = gcd(c, b).

Both results are reduced, and their denominators are monic as products
of monic quotients.  A gcd with the unit denominator d = 1 is 1, so it
is never run:

    a/b + c = (a + cb) / b,            gcd(a + cb, b) = gcd(a, b) = 1;
    (a/b) c = (a (c/g2)) / (b/g2),     g2 = gcd(c, b), g1 = 1;

and an element built with denominator 1 is already normalized.
"""

from . import fqpoly as fq
from .gfq import GFq, is_prime
from .record import Record


class FieldSpec(Record):
    __slots__ = ("p", "e", "gen", "depth")

    def __init__(self, p, e=1, gen="a", depth=0):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("e must be >= 1")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if not gen.isidentifier():
            raise ValueError(f"bad generator name {gen!r}")
        self.p = p
        self.e = e
        self.gen = gen
        self.depth = depth

    # written out for speed: FieldElem hashes and compares by its spec
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.e, self.gen, self.depth) == (other.p, other.e, other.gen, other.depth)

    def __hash__(self):
        return hash((self.p, self.e, self.gen, self.depth))

    @property
    def q(self):
        return self.p ** self.e


class Field:
    """A tower level: wraps a FieldSpec and builds its elements."""

    __slots__ = ("spec", "gf")

    def __init__(self, spec):
        self.spec = spec
        self.gf = GFq(spec.p, spec.e)

    @property
    def p(self):
        return self.spec.p

    def __repr__(self):
        return f"Field({self.spec})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    # -- element constructors -------------------------------------------

    def elem(self, num, den=fq.ONE):
        return FieldElem(self, fq.norm(num), fq.norm(den))

    def zero(self):
        return FieldElem._raw(self, (), fq.ONE)

    def one(self):
        return FieldElem._raw(self, fq.ONE, fq.ONE)

    def from_int(self, n):
        c = n % self.p  # prime-subfield constants encode as themselves
        return FieldElem._raw(self, (c,) if c else (), fq.ONE)

    def gen_elem(self):
        """The working generator b = a^(1/p^depth)."""
        return FieldElem._raw(self, (0, 1), fq.ONE)

    def base_gen(self):
        """The named generator a itself: b^(p^depth)."""
        return FieldElem._raw(self, fq.shift(fq.ONE, self.p ** self.spec.depth), fq.ONE)

    def coerce(self, x):
        if isinstance(x, FieldElem):
            if x.field.spec != self.spec:
                raise ValueError("element from a different field")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    # -- tower extension -------------------------------------------------

    def extend(self, depth):
        """The tower level k(a^(1/p^depth)); depth may not shrink."""
        if depth < self.spec.depth:
            raise ValueError("cannot shrink a purely inseparable tower")
        if depth == self.spec.depth:
            return self
        s = self.spec
        return Field(FieldSpec(s.p, s.e, s.gen, depth))

    def embed(self, x, deeper):
        """Image of x under k(a^(1/p^m)) -> k(a^(1/p^m')), m' >= m."""
        if x.field.spec != self.spec:
            raise ValueError("element does not belong to this field")
        if (deeper.spec.p, deeper.spec.e, deeper.spec.gen) != (self.spec.p, self.spec.e, self.spec.gen):
            raise ValueError("incompatible tower")
        if deeper.spec.depth < self.spec.depth:
            raise ValueError("target tower is shallower")
        k = self.p ** (deeper.spec.depth - self.spec.depth)
        return FieldElem._raw(deeper, fq.spread(x.num, k), fq.spread(x.den, k))


class FieldElem:
    """A reduced rational function in the working generator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = fq.ONE
        elif den != fq.ONE:
            gf = field.gf
            g = fq.gcd(gf, num, den)
            if len(g) > 1:
                num = fq.divmod_(gf, num, g)[0]
                den = fq.divmod_(gf, den, g)[0]
            den, lead = fq.monic(gf, den)
            if lead != 1:
                num = fq.smul(gf, gf.inv(lead), num)
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, field, num, den):
        # trusted constructor: num/den already canonical
        self = object.__new__(cls)
        self.field = field
        self.num = num
        self.den = den
        return self

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == fq.ONE and self.den == fq.ONE

    def is_unit(self):
        return bool(self.num)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return ((self.field is other.field or self.field.spec == other.field.spec)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.field.spec, self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        f, gf = self.field, self.field.gf
        b, d = self.den, other.den
        if b == fq.ONE and d == fq.ONE:
            return FieldElem._raw(f, fq.add(gf, self.num, other.num), fq.ONE)
        a, c = self.num, other.num
        if d == fq.ONE or b == fq.ONE:
            # a/b + c = (a + cb)/b, reduced since gcd(a + cb, b) = gcd(a, b)
            if b == fq.ONE:
                a, b, c = c, d, a
            t = fq.add(gf, a, fq.mul(gf, c, b))
            return FieldElem._raw(f, t, b) if t else f.zero()
        g = fq.gcd(gf, b, d)
        if g != fq.ONE:
            b, d = _exact_div(gf, b, g), _exact_div(gf, d, g)
        t = fq.add(gf, fq.mul(gf, a, d), fq.mul(gf, c, b))
        if not t:
            return f.zero()
        den = fq.mul(gf, b, d)
        if g != fq.ONE:
            h = fq.gcd(gf, t, g)
            if h != fq.ONE:
                t, g = _exact_div(gf, t, h), _exact_div(gf, g, h)
            den = fq.mul(gf, den, g)
        return FieldElem._raw(f, t, den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem._raw(self.field, fq.neg(self.field.gf, self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        f, gf = self.field, self.field.gf
        a, c = self.num, other.num
        if not a or not c:
            return f.zero()
        b, d = self.den, other.den
        if b == fq.ONE and d == fq.ONE:
            return FieldElem._raw(f, fq.mul(gf, a, c), fq.ONE)
        # gcd(x, 1) = 1: a unit denominator cancels nothing
        g1 = fq.gcd(gf, a, d) if d != fq.ONE else fq.ONE
        g2 = fq.gcd(gf, c, b) if b != fq.ONE else fq.ONE
        if g1 != fq.ONE:
            a, d = _exact_div(gf, a, g1), _exact_div(gf, d, g1)
        if g2 != fq.ONE:
            c, b = _exact_div(gf, c, g2), _exact_div(gf, b, g2)
        return FieldElem._raw(f, fq.mul(gf, a, c), fq.mul(gf, b, d))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        num, lead = fq.monic(self.field.gf, self.num)
        den = fq.smul(self.field.gf, self.field.gf.inv(lead), self.den)
        return FieldElem._raw(self.field, den, num)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        """self ** n as the product over the base-p digits d_k of n of
        frobenius(k) ** d_k.  The Frobenius powers cost no product, so
        self ** (p^k) multiplies nothing; only each digit power d_k < p
        runs square-and-multiply."""
        if n < 0:
            return self.inverse() ** (-n)
        p = self.field.p
        r = None
        k = 0
        while n:
            n, d = divmod(n, p)
            if d:
                y = _digit_pow(self.frobenius(k), d)
                r = y if r is None else r * y
            k += 1
        return self.field.one() if r is None else r

    # -- Frobenius structure ------------------------------------------------

    def frobenius(self, n=1):
        """self ** (p^n), computed by digit spreading (no convolution)."""
        if n == 0 or not self.num:
            return self
        gf = self.field.gf
        return FieldElem._raw(self.field, fq.frob(gf, self.num, n), fq.frob(gf, self.den, n))

    def pth_root(self):
        """The y with y^p = self, or None.

        Membership in k^p is decided by a vanishing formal derivative with
        respect to the working generator (valid since F_q is perfect).
        """
        gf = self.field.gf
        if fq.deriv(gf, self.num) or fq.deriv(gf, self.den):
            return None
        num = fq.proot(gf, self.num)
        den = fq.proot(gf, self.den)
        if num is None or den is None:
            return None
        return FieldElem._raw(self.field, num, den)

    def __repr__(self):
        from .parser import render_elem
        return f"<{render_elem(self)}>"


def _exact_div(gf, f, g):
    """f / g for a g that divides f."""
    return fq.divmod_(gf, f, g)[0]


def _digit_pow(x, d):
    """x ** d for d >= 1 by square-and-multiply."""
    r = None
    while True:
        if d & 1:
            r = x if r is None else r * x
        d >>= 1
        if not d:
            return r
        x = x * x


def common_denominator(gf, dens):
    """The lcm of monic polynomials, monic.  It starts from the first
    denominator other than 1, and a denominator 1 adds nothing to it."""
    den = fq.ONE
    for d in dens:
        if den == fq.ONE:
            den = d
        elif d != fq.ONE and d != den:
            den = fq.mul(gf, den, _exact_div(gf, d, fq.gcd(gf, den, d)))
    return den


def clear_denominators(field, elems):
    """(D, numerators): D is the monic lcm of the denominators and each
    numerator is x * D as a polynomial."""
    if all(x.den == fq.ONE for x in elems):
        return fq.ONE, [x.num for x in elems]
    gf = field.gf
    den = common_denominator(gf, (x.den for x in elems))
    return den, [fq.mul(gf, x.num, den if x.den == fq.ONE else _exact_div(gf, den, x.den))
                 for x in elems]


def rref(rows, p, width):
    """Reduced row echelon form mod p (p prime) of the matrix with columns
    0 .. width-1 whose sparse rows are given: (nonzero rows, pivot columns),
    each row a dict from column to a nonzero entry in [0, p), in pivot order.

    The rows are read one at a time, and the input is not modified.  Each is
    reduced against the basis so far, which is kept fully reduced: a basis
    row has a 1 at its pivot and no entry in another basis row's pivot
    column.  A row that does not vanish joins with a leading 1 at its
    lowest column and clears that column from every basis row that has it.
    ``holders`` maps each column to the pivots of every basis row that has
    held it (a superset of those that hold it now), so the join looks only
    at them.  Once the rank equals width, no further row can change the
    row space, so the remaining rows are never read."""
    basis, holders = {}, {}
    rows = iter(rows)
    while len(basis) < width:
        row = next(rows, None)
        if row is None:
            break
        r = dict(row)
        for c in [c for c in r if c in basis]:
            _axpy(r, -r[c], basis[c], p)
        if not r:
            continue
        c = min(r)
        if r[c] != 1:
            inv = pow(r[c], p - 2, p)
            r = {k: v * inv % p for k, v in r.items()}
        for b in holders.pop(c, ()):
            if c in basis[b]:
                _axpy(basis[b], -basis[b][c], r, p)
                for k in r:
                    holders.setdefault(k, []).append(b)
        for k in r:
            holders.setdefault(k, []).append(c)
        basis[c] = r
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def kernel_basis(reduced, pivots, width, p):
    """The kernel mod p of ``rref``'s output, as (f, vector) per free column f
    in increasing f, each made when asked for: 1 at f, -row[f] at each pivot."""
    pivot_set = set(pivots)
    for f in range(width):
        if f not in pivot_set:
            v = {c: -row[f] % p for c, row in zip(pivots, reduced) if f in row}
            v[f] = 1
            yield f, v


def _axpy(a, f, b, p):
    """a += f * b mod p on sparse rows, in place, dropping the zeros."""
    for k, v in b.items():
        x = (a.get(k, 0) + f * v) % p
        if x:
            a[k] = x
        else:
            del a[k]
