"""Dense univariate polynomials over a GFq handle.

A polynomial is a tuple of field elements (ints), lowest degree first,
with no trailing zeros; () is the zero polynomial.  All functions take
the field handle as first argument and return canonical tuples.

Tuples stay dense, but the kernels cost work in proportion to nonzero
coefficients, not to length: in a tower, x^(p^k) and the embeddings
spread coefficients p^k apart, and denominators are powers of x.  The
operands are short (about three coefficients in a tower's identities),
so the cost is Python calls more than arithmetic, and a row of
coefficients costs one gfq call: smul, neg and monic make one gfq.scale
(one gfq.mul for a constant), and mul takes a monomial operand c*x^k as
one scaling plus a shift.  add touches only the nonzero coefficients of
the shorter operand, one gfq.add each.  Every other product is the
schoolbook loop, long division the quotient loop, gcd's remainders the
same loop without a quotient, and exact_div, for a divisor known to
divide, the loop without a remainder; they run through gfq.axpy, one
call per row, over the nonzero coefficients of one operand only, so
division skips zero divisor coefficients as the product skips zero
factor coefficients.  All are exact for any p.  Over F_p, frob is spread,
since Frobenius fixes every coefficient.

The generator x is prime in F_q[x], and in a tower every denominator that
comes from a coefficient a^(-1/p^m) is a power of it.  So gcd first takes
out the common power x^min(order f, order g) and runs Euclid only on
operands that are not constants after their own x-power is stripped, on
remainders only, in place; and divmod_ by a monomial c*x^k is a slice.
All are exact: the results are the same canonical tuples that plain
Euclid and long division return.
"""

ONE = (1,)


def norm(v):
    n = len(v)
    while n and v[n - 1] == 0:
        n -= 1
    return tuple(v[:n])


def degree(f):
    """Degree, with -1 for the zero polynomial."""
    return len(f) - 1


def order(f):
    """The x-adic valuation: the index of the lowest nonzero coefficient;
    f must be nonzero."""
    for i, c in enumerate(f):
        if c:
            return i
    raise ValueError("the zero polynomial has no finite order")


def add(gf, f, g):
    """f + g, touching only the nonzero coefficients of the shorter one; a
    constant costs one gfq.add.  Only equal lengths can cancel the top."""
    if len(f) < len(g):
        f, g = g, f
    if len(g) <= 1:
        if not g:
            return f
        s = gf.add(f[0], g[0])
        if len(f) > 1:
            return (s,) + f[1:]
        return (s,) if s else ()
    out = list(f)
    for i, c in enumerate(g):
        if c:
            out[i] = gf.add(out[i], c) if out[i] else c
    return tuple(out) if len(f) > len(g) else norm(out)


def neg(gf, f):
    # -1 is the code p - 1: its one nonzero digit is the lowest
    return smul(gf, gf.p - 1, f)


def smul(gf, c, f):
    """c * f in one gfq call: a product for a constant f, else a
    gfq.scale row."""
    if c == 1 or not f:
        return f
    if c == 0:
        return ()
    if len(f) == 1:
        return (gf.mul(c, f[0]),)
    return gf.scale(c, f)


def mul(gf, f, g):
    """f * g, with work in proportion to nonzero coefficients.

    A monomial operand c*x^k, of either length, costs one scaling plus a
    shift; otherwise the schoolbook loop pairs only nonzero coefficients."""
    if not f or not g:
        return ()
    if len(f) < len(g):
        f, g = g, f
    if len(f) == 1:
        return (gf.mul(f[0], g[0]),)
    if not any(g[:-1]):
        return shift(smul(gf, g[-1], f), len(g) - 1)
    if not any(f[:-1]):
        return shift(smul(gf, f[-1], g), len(f) - 1)
    ft = [(i, a) for i, a in enumerate(f) if a]
    out = [0] * (len(f) + len(g) - 1)
    axpy = gf.axpy
    for j, b in enumerate(g):
        if b:
            axpy(out, j, b, ft)
    return norm(out)


def divmod_(gf, f, g):
    """Quotient and remainder; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), f
    k = len(g) - 1
    if not any(g[:k]):  # g = c * x^k
        low = f[:k]
        return smul(gf, gf.inv(g[k]), f[k:]), norm(low) if any(low) else ()
    # each step cancels rem[j + k] against c * x^j * g; only the terms of
    # g below its lead are added, negated once here, so rem[j + k] is
    # left stale and never read again.  The top quotient coefficient is
    # f's lead over g's, so the quotient needs no normalization.
    inv_lead = gf.inv(g[k])
    minus_g = [(i, c) for i, c in enumerate(neg(gf, g[:k])) if c]
    rem = list(f)
    quo = [0] * (len(f) - k)
    axpy, mul_ = gf.axpy, gf.mul
    for j in range(len(f) - k - 1, -1, -1):
        c = rem[j + k]
        if c:
            c = quo[j] = mul_(c, inv_lead)
            axpy(rem, j, c, minus_g)
    return tuple(quo), norm(rem[:k])


def exact_div(gf, f, g):
    """f / g for a nonzero g that divides f: divmod_'s quotient loop with
    no remainder.  Each quotient coefficient is stored in the slot of the
    coefficient it cancels, which no later step writes, so the top of the
    list is the quotient and the bottom, the zero remainder, is not read."""
    k = len(g) - 1
    if not any(g[:k]):  # g = c * x^k
        return smul(gf, gf.inv(g[k]), f[k:])
    inv_lead = gf.inv(g[k])
    minus_g = [(i, c) for i, c in enumerate(neg(gf, g[:k])) if c]
    out = list(f)
    axpy, mul_ = gf.axpy, gf.mul
    for j in range(len(f) - k - 1, -1, -1):
        c = out[j + k]
        if c:
            c = out[j + k] = mul_(c, inv_lead)
            axpy(out, j, c, minus_g)
    return tuple(out[k:])


def rem(gf, f, g):
    return divmod_(gf, f, g)[1]


def _rem_in_place(gf, a, g):
    """a <- a mod g on the list a, with no quotient; g is nonzero and
    canonical, and a is left so.  g's terms below its lead are scaled
    once by -1/lead, so a step is one axpy row by the coefficient it
    cancels, which is cut off with the rest of the top."""
    k = len(g) - 1
    if len(a) <= k:
        return
    tail = [(i, c) for i, c in enumerate(smul(gf, gf.neg(gf.inv(g[k])), g[:k])) if c]
    if tail:
        axpy = gf.axpy
        for t in range(len(a) - 1, k - 1, -1):
            c = a[t]
            if c:
                axpy(a, t - k, c, tail)
    del a[k:]
    while a and not a[-1]:
        a.pop()


def gcd(gf, f, g):
    """Monic gcd; gcd(0, 0) = 0.

    x is prime, so gcd(x^i f', x^j g') = x^min(i, j) gcd(f', g') where
    neither f' nor g' is divisible by x; Euclid runs only when neither of
    them is a constant, since otherwise gcd(f', g') = 1.  Euclid is the
    remainder sequence alone (Knuth, TAOCP vol. 2, 4.6.1), on two lists
    reduced in place by turns, and it stops at the first constant.
    """
    if not f or not g:
        return monic(gf, f or g)[0]
    i, j = order(f), order(g)
    f, g = f[i:], g[j:]
    m = min(i, j)
    if len(f) > 1 and len(g) > 1:
        a, b = list(f), list(g)
        while len(b) > 1:
            _rem_in_place(gf, a, b)
            a, b = b, a
        # a nonzero constant remainder ends Euclid with gcd 1
        if not b:
            return shift(monic(gf, tuple(a))[0], m)
    return shift(ONE, m)


def monic(gf, f):
    """(f / lead, lead) with the first part monic; zero maps to ((), 1)."""
    if not f:
        return (), 1
    lead = f[-1]
    if lead == 1:
        return f, 1
    return smul(gf, gf.inv(lead), f), lead


def frob(gf, f, n):
    """f ** (p^n): spread exponents by p^n and power the coefficients,
    which Frobenius fixes over F_p."""
    if n == 0 or not f:
        return f
    k = gf.p ** n
    if gf.e == 1:
        return spread(f, k)
    out = [0] * ((len(f) - 1) * k + 1)
    for i, c in enumerate(f):
        if c:
            out[i * k] = gf.frob_n(c, n)
    return tuple(out)


def spread(f, k):
    """f(x) -> f(x^k), coefficients untouched (tower embedding)."""
    if k == 1 or len(f) <= 1:
        return f
    out = [0] * ((len(f) - 1) * k + 1)
    for i, c in enumerate(f):
        if c:
            out[i * k] = c
    return tuple(out)


def proot(gf, f, n=1):
    """The p^n-th root, or None when f is not a p^n-th power."""
    if not f:
        return ()
    k = gf.p ** n
    if (len(f) - 1) % k:
        return None
    out = [0] * ((len(f) - 1) // k + 1)
    for i, c in enumerate(f):
        if c:
            if i % k:
                return None
            out[i // k] = gf.proot_n(c, n)
    return tuple(out)


def deriv(gf, f):
    return norm([gf.mul(i % gf.p, c) for i, c in enumerate(f)][1:])


def shift(f, k):
    """Multiply by x^k."""
    if not f or not k:
        return f
    return (0,) * k + tuple(f)
