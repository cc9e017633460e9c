"""Dense univariate polynomials over a GFq handle.

A polynomial is a tuple of field elements (ints), lowest degree first,
with no trailing zeros; () is the zero polynomial.  All functions take
the field handle as first argument and return canonical tuples.

Tuples stay dense, but the kernels cost work in proportion to nonzero
coefficients, not to length: in a tower, x^(p^k) and the embeddings
spread coefficients p^k apart, and denominators are powers of x.  add
and smul touch only nonzero coefficients, and mul takes a monomial
operand c*x^k as one scaling plus a shift; every other product is the
schoolbook loop over pairs of nonzero coefficients, exact for any p.

The generator x is prime in F_q[x], and in a tower every denominator that
comes from a coefficient a^(-1/p^m) is a power of it.  So gcd first takes
out the common power x^min(order f, order g) and runs Euclid only on
operands that are not constants after their own x-power is stripped, and
divmod_ by a monomial c*x^k is a slice.  Both are exact: the results are
the same canonical tuples that plain Euclid and long division return.
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
    """f + g, touching only the nonzero coefficients of the shorter one."""
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        if c:
            out[i] = gf.add(out[i], c) if out[i] else c
    return norm(out)


def neg(gf, f):
    return tuple(gf.neg(c) for c in f)


def smul(gf, c, f):
    """c * f; zero coefficients are left alone."""
    if c == 0:
        return ()
    if c == 1:
        return f
    return tuple([gf.mul(c, x) if x else 0 for x in f])


def mul(gf, f, g):
    """f * g, with work in proportion to nonzero coefficients.

    A monomial operand c*x^k, of either length, costs one scaling plus a
    shift; otherwise the schoolbook loop pairs only nonzero coefficients."""
    if not f or not g:
        return ()
    if len(f) < len(g):
        f, g = g, f
    if not any(g[:-1]):
        return shift(smul(gf, g[-1], f), len(g) - 1)
    if not any(f[:-1]):
        return shift(smul(gf, f[-1], g), len(f) - 1)
    ft = [(i, a) for i, a in enumerate(f) if a]
    out = [0] * (len(f) + len(g) - 1)
    for j, b in enumerate(g):
        if b:
            for i, a in ft:
                out[i + j] = gf.add(out[i + j], gf.mul(a, b))
    return norm(out)


def divmod_(gf, f, g):
    """Quotient and remainder; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return (), f
    k = len(g) - 1
    if order(g) == k:  # g = c * x^k
        return smul(gf, gf.inv(g[-1]), f[k:]), norm(f[:k])
    inv_lead = gf.inv(g[-1])
    rem = list(f)
    quo = [0] * (len(f) - len(g) + 1)
    for k in range(len(f) - len(g), -1, -1):
        c = gf.mul(rem[k + len(g) - 1], inv_lead)
        if c:
            quo[k] = c
            for i, gc in enumerate(g):
                rem[k + i] = gf.sub(rem[k + i], gf.mul(c, gc))
    return norm(quo), norm(rem)


def rem(gf, f, g):
    return divmod_(gf, f, g)[1]


def gcd(gf, f, g):
    """Monic gcd; gcd(0, 0) = 0.

    x is prime, so gcd(x^i f', x^j g') = x^min(i, j) gcd(f', g') where
    neither f' nor g' is divisible by x; Euclid runs only when neither of
    them is a constant, since otherwise gcd(f', g') = 1.
    """
    if not f or not g:
        return monic(gf, f or g)[0]
    i, j = order(f), order(g)
    f, g = f[i:], g[j:]
    if len(f) == 1 or len(g) == 1:
        return shift(ONE, min(i, j))
    while g:
        f, g = g, rem(gf, f, g)
    return shift(monic(gf, f)[0], min(i, j))


def monic(gf, f):
    """(f / lead, lead) with the first part monic; zero maps to ((), 1)."""
    if not f:
        return (), 1
    lead = f[-1]
    if lead == 1:
        return f, 1
    return smul(gf, gf.inv(lead), f), lead


def frob(gf, f, n):
    """f ** (p^n): spread exponents by p^n and power the coefficients."""
    if n == 0 or not f:
        return f
    k = gf.p ** n
    out = [0] * ((len(f) - 1) * k + 1)
    for i, c in enumerate(f):
        if c:
            out[i * k] = gf.frob_n(c, n)
    return tuple(out)


def spread(f, k):
    """f(x) -> f(x^k), coefficients untouched (tower embedding)."""
    if k == 1 or not f:
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
    if not f:
        return f
    return (0,) * k + tuple(f)
