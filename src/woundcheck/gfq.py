"""Small finite fields F_q, q = p^e.

Elements are integers 0 <= x < q.  The integer sum(d_i * p**i) stands for
the residue class sum(d_i * t**i) modulo a fixed monic irreducible f(t) of
degree e over F_p; for e = 1 this is plain arithmetic mod p.  The modulus
is chosen deterministically from (p, e): the lexicographically smallest
monic irreducible of degree e, scanning coefficient vectors low-to-high.
digits/undigits are the one place where a code is read as its base-p
digits.  The modulus search (Ben-Or's test) and the tables run on fqpoly
over F_p = GFq(p).

For e > 1 every operation is a table lookup over a primitive element g:
exp/log tables for products, and a Zech table zech[i] = log(1 + g^i)
(None where 1 + g^i = 0) for sums, since a + b = a * (1 + b/a).  The
tables are built once per field: adding 1 to a code raises only its
lowest digit.  axpy is the one multiply-add loop of fqpoly's product and
division, so a row of coefficients costs one call.

Field handles are cached by (p, e).  Elements carry no field pointer, so
callers must keep operands inside one field.
"""

import functools

from . import fqpoly as fq

_TABLE_LIMIT = 4096  # largest q for which e > 1 lookup tables are built


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@functools.cache
def GFq(p, e=1):
    return _GFq(p, e)


class _GFq:
    __slots__ = ("p", "e", "q", "modulus", "_exp", "_log", "_zech", "_log_minus_one")

    def __init__(self, p, e):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        if e == 1:
            self.modulus = None
            self._exp = self._log = self._zech = self._log_minus_one = None
        else:
            if self.q > _TABLE_LIMIT:
                raise ValueError(f"q = {self.q} too large for table-based extension field")
            self.modulus = self._smallest_irreducible()
            self._build_tables()

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    # -- digits, and the tables built on fqpoly over F_p --------------

    def digits(self, x):
        """The e base-p digits of the code x, lowest first: the coefficients
        of the residue class that x stands for."""
        p, out = self.p, []
        for _ in range(self.e):
            out.append(x % p)
            x //= p
        return out

    def undigits(self, ds):
        """The code whose base-p digits, lowest first, are ds."""
        x = 0
        for d in reversed(ds):
            x = x * self.p + d
        return x

    def _mul_raw(self, a, b):
        fp = GFq(self.p)
        da, db = fq.norm(self.digits(a)), fq.norm(self.digits(b))
        return self.undigits(fq.rem(fp, fq.mul(fp, da, db), self.digits(self.modulus) + [1]))

    def _build_tables(self):
        # discrete-log and Zech tables over a primitive element, found by
        # scanning; exp and zech are stored twice over so that a sum of two
        # logs, or a difference of two, indexes them without a reduction
        q = self.q
        order = q - 1
        factors = _prime_factors(order)
        g = None
        for cand in range(2, q):
            if all(self._pow_raw(cand, order // f) != 1 for f in factors):
                g = cand
                break
        exp = [1] * (2 * order)
        log = [0] * q
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x = self._mul_raw(x, g)
        for i in range(order, 2 * order):
            exp[i] = exp[i - order]
        p = self.p
        zech = []
        for x in exp[:order]:
            one_plus = x - x % p + (x + 1) % p
            zech.append(log[one_plus] if one_plus else None)
        self._exp = exp
        self._log = log
        self._zech = zech + zech
        self._log_minus_one = 0 if p == 2 else order // 2

    def _pow_raw(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return r

    def _smallest_irreducible(self):
        """Code of the sub-leading digits of the smallest monic irreducible
        of degree e, scanning codes low-to-high.  Ben-Or's test: f is
        irreducible iff gcd(x^(p^i) - x, f) = 1 for every i <= e/2, with
        x^(p^i) mod f taken by one Frobenius step from x^(p^(i-1)) mod f."""
        fp, x = GFq(self.p), (0, 1)
        for code in range(self.q):
            f = tuple(self.digits(code)) + (1,)
            h = x
            for _ in range(self.e // 2):
                h = fq.rem(fp, fq.frob(fp, h, 1), f)
                if fq.gcd(fp, fq.add(fp, h, fq.neg(fp, x)), f) != fq.ONE:
                    break
            else:
                return code

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if not a:
            return 0
        return self._exp[self._log[a] + self._log_minus_one]

    def axpy(self, out, k, c, terms):
        """out[k + i] += c * t for every (i, t) in terms, in place; c and
        every t are nonzero."""
        if self.e == 1:
            p = self.p
            for i, t in terms:
                out[k + i] = (out[k + i] + c * t) % p
            return
        exp, log, zech = self._exp, self._log, self._zech
        lc = log[c]
        for i, t in terms:
            j = k + i
            lt = lc + log[t]
            o = out[j]
            if o:
                lo = log[o]
                z = zech[lt - lo]
                out[j] = 0 if z is None else exp[lo + z]
            else:
                out[j] = exp[lt]

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in finite field")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1) - self._log[a]]

    def pow_(self, a, n):
        if self.e == 1:
            return pow(a, n, self.p) if a else (0 if n else 1)
        if a == 0:
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frob_n(self, a, n):
        if self.e == 1 or a == 0:
            return a
        return self.pow_(a, pow(self.p, n % self.e, self.q - 1))

    def proot(self, a):
        """The unique p-th root (Frobenius is bijective on F_q)."""
        return self.proot_n(a, 1)

    def proot_n(self, a, n):
        return self.frob_n(a, -n)


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out
