"""No-nontrivial-zero decisions for principal parts, with certificates.

1. Equal exponents p^N: clear denominators (scaling does not move the zero
   set) and decompose each coefficient over the basis {b^j : j < p^N} of k
   over k^(p^N), writing c_i = sum u_ij^(p^N) b^j.  The polynomial has a
   nontrivial zero iff the matrix [u_ij] has rank < n over k; a left kernel
   vector is an explicit witness, a full-rank matrix is the certificate.
   The u_ij lie in F_q[b], so the elimination is fraction-free and
   normalizes only the witness entries (``left_kernel_vector``).
2. Mixed exponents run three stages in turn, the first decisive one wins:
   a. ``exhaustive_poly_search``, also the test suites' confirmation
      search, over every witness vector with polynomial entries of degree
      <= B = SEARCH_BOUND, a constant 3.  Such a vector is a vector of F_p
      digits, one per (coefficient, basis element of F_q over F_p), and
      the principal part is F_p-linear in them, so the search is one
      sparse row reduction mod p (``field.rref``) with a column per
      (variable, coefficient, digit) and a row per output digit, holding
      only its nonzero entries; it returns the first zero of a fixed scan
      order, built as FieldElems and re-verified exactly once, and that
      vector settles Zero.
   b. The relaxation w_i = x_i^(p^(N_i - N_min)), decided as in 1 on the
      same coefficients with every N_i read as N_min.  Its NoZero is sound
      for the original, so the search before it finds nothing and the
      order changes no answer; its zero decides nothing.
   c. ``_poly_search`` again, at the per-variable bounds n B p^(M - N_i),
      with B = SEARCH_BOUND, M = max N_i and n variables.  Let x be a zero
      with entries a_i / d_i, d_i monic and deg a_i <= deg d_i <= B, D the
      lcm of the d_i and y_i = x_i D^(p^(M - N_i)).  Then P(y) = D^(p^M)
      P(x) = 0, y != 0 and deg y_i <= n B p^(M - N_i), so this search finds
      a zero whenever such a rational one exists.  A witness settles Zero;
      none returns Unknown.  The stage's one elimination is linear in B.
"""

from . import fqpoly as fq
from .field import Field, FieldElem, clear_denominators, kernel_basis, rref
from .record import Record

SEARCH_BOUND = 3  # B: witness degree bound of the mixed-exponent stages a and c


class ZeroDecision(Record):
    __slots__ = ("verdict", "stage", "witness", "matrix", "columns", "rank")

    def __init__(self, verdict, stage, witness=None, matrix=None, columns=None, rank=None):
        self.verdict = verdict      # "no_zero" | "zero" | "unknown"
        self.stage = stage          # where the verdict was reached
        self.witness = witness
        self.matrix = matrix        # semilinear certificate rows (tuples of FieldElem)
        self.columns = columns
        self.rank = rank


def left_kernel_vector(rows, field):
    """(rank, x) for the matrix over F_q[b] whose rows are the given fqpoly
    tuples: x is a nonzero FieldElem vector with x . rows = 0, or None when
    the rows are independent.

    Fraction-free (Bareiss) elimination on the transpose t: pivot d turns
    row i into (d t[i] - t[i][c] t[r]) / prev, an exact division by the
    previous pivot, so entries stay polynomials; while that pivot is 1
    (before the first pivot, and after any pivot 1) there is no division.
    When the rank is deficient, back-substitution from D = t[f-1][f-1], the
    determinant of the pivots before the first free column f, gives z = D x
    over F_q[b] (Cramer's rule), and only x[c] = z[c] / D is normalized.  It
    is the vector read off the unique reduced echelon form.
    """
    gf = field.gf
    n = len(rows)
    t = [list(col) for col in zip(*rows)]
    pivots, prev = [], fq.ONE
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(t)) if t[i][c]), None)
        if pr is None:
            continue
        t[r], t[pr] = t[pr], t[r]
        top, d = t[r], t[r][c]
        for i in range(r + 1, len(t)):
            f = fq.neg(gf, t[i][c])
            row = [fq.add(gf, fq.mul(gf, d, v), fq.mul(gf, f, u))
                   for v, u in zip(t[i][c + 1:], top[c + 1:])]
            if prev != fq.ONE:
                row = [fq.divmod_(gf, v, prev)[0] for v in row]
            t[i][c + 1:] = row
        pivots.append(c)
        prev = d
    if len(pivots) == n:
        return n, None
    free = next(c for c in range(n) if c not in pivots)
    D = t[free - 1][free - 1] if free else fq.ONE
    z = [()] * free + [D]
    for i in range(free - 1, -1, -1):
        s = ()
        for j in range(i + 1, free + 1):
            s = fq.add(gf, s, fq.mul(gf, t[i][j], z[j]))
        z[i] = fq.divmod_(gf, fq.neg(gf, s), t[i][i])[0]
    x = [FieldElem(field, u, D) for u in z[:free]] + [field.one()] + [field.zero()] * (n - free - 1)
    return len(pivots), x


def _semilinear_rows(field, polys, N):
    """Decompose c = sum_j u_j^(p^N) b^j; returns (columns, rows of u_ij as
    fqpoly tuples)."""
    gf = field.gf
    qN = field.p ** N
    cols = sorted({m % qN for c in polys for m, g in enumerate(c) if g})
    col_at = {j: k for k, j in enumerate(cols)}
    rows = []
    for c in polys:
        row = [dict() for _ in cols]
        for m, g in enumerate(c):
            if g:
                row[col_at[m % qN]][(m - (m % qN)) // qN] = gf.proot_n(g, N)
        rows.append(tuple(fq.norm([d.get(i, 0) for i in range(max(d) + 1)]) if d else () for d in row))
    return tuple(cols), rows


def _equal_exponent(field, coeffs, N, stage):
    """The decision for sum_i coeffs[i] * x_i^(p^N): no_zero with the full-rank
    semilinear rows, or zero with a left kernel vector as the witness."""
    polys = clear_denominators(field, coeffs)[1]
    cols, rows = _semilinear_rows(field, polys, N)
    rank, x = left_kernel_vector(rows, field)
    if x is None:
        matrix = tuple(tuple(FieldElem._raw(field, u, fq.ONE) for u in row) for row in rows)
        return ZeroDecision("no_zero", stage, matrix=matrix, columns=cols, rank=rank)
    return ZeroDecision("zero", stage, witness=tuple(x), rank=rank)


def decide_no_nontrivial_zero(P):
    """Decide whether the principal part P has only the trivial zero.

    P must equal its own principal part and carry pure field coefficients.
    """
    if not isinstance(P.dom, Field):
        raise ValueError("decision requires pure field coefficients")
    if P != P.principal_part():
        raise ValueError("input must equal its own principal part")
    if P.is_zero():
        raise ValueError("zero polynomial has every vector as a zero")
    field = P.dom
    pres = P.vars_present()
    if len(pres) < P.nvars:
        missing = next(i for i in range(P.nvars) if i not in pres)
        w = [field.zero()] * P.nvars
        w[missing] = field.one()
        return ZeroDecision("zero", "absent_variable", witness=tuple(w))

    top = sorted(P.terms.items())
    exps = [e for (_, e), _ in top]
    coeffs = [c for _, c in top]
    nmin, nmax = min(exps), max(exps)
    if nmin == nmax:
        res = _equal_exponent(field, coeffs, nmin, "equal_exponent")
        if res.witness is not None and not P.evaluate(res.witness).is_zero():
            raise RuntimeError("equal-exponent witness does not vanish")
        return res

    # mixed exponents: polynomial witnesses first (one F_p-kernel), then the
    # min-exponent relaxation w_i = x_i^(p^(N_i - nmin)), whose zeros decide
    # nothing, then the polynomial witnesses that clear rational ones
    n = P.nvars
    found = _poly_search(P, [SEARCH_BOUND] * n)
    if found is None:
        res = _equal_exponent(field, coeffs, nmin, "relaxation")
        if res.verdict == "no_zero":
            return res
        found = _poly_search(P, [n * SEARCH_BOUND * field.p ** (nmax - e) for e in exps])
    if found is not None:
        return ZeroDecision("zero", "search", witness=found[1])
    return ZeroDecision("unknown", "search")


# ---------------------------------------------------------------------------
# exhaustive polynomial witness search (independent confirmation oracle)


def exhaustive_poly_search(P, degree_bound):
    """Search all witness vectors with polynomial entries of degree <=
    degree_bound for a zero of the principal part P.  Returns a tuple of
    tuples of F_q codes, degree_bound + 1 coefficients from degree 0 per
    variable, or None; a hit is re-verified in exact arithmetic.

    Write each witness coefficient in the F_p basis 1, t, ..., t^(e-1) of
    F_q (the digits of its ``gfq`` code).  Then c * x^(p^N) is F_p-linear
    in those digits, so the zeros are the kernel of one matrix with a
    column per (variable, coefficient, digit): the unit t^j at coefficient
    d contributes c * (t^j)^(p^N) at offset d * p^N.  The hit is the first
    zero of the scan that lists the last variable first, then the others in
    order, each variable's coefficients from degree 0, most significant
    first, and each coefficient's code in increasing order (digit e-1 most
    significant): with the columns least significant first, that is the
    first vector of ``field.kernel_basis``, the one of the first free column.
    """
    if P != P.principal_part():
        raise ValueError("input must equal its own principal part")
    pres = P.vars_present()
    if len(pres) < P.nvars:
        missing = next(i for i in range(P.nvars) if i not in pres)
        return tuple((int(i == missing),) + (0,) * degree_bound for i in range(P.nvars))
    found = _poly_search(P, [degree_bound] * P.nvars)
    return None if found is None else found[0]


def _poly_search(P, bounds):
    """(codes, point) for ``exhaustive_poly_search`` on a principal part P
    in which every variable is present, variable i's entry of degree <=
    bounds[i]: the codes it returns, and the FieldElem vector they stand
    for, built and verified once; or None."""
    field = P.dom
    p, e = field.p, field.spec.e
    n = P.nvars
    exps = {i: N for (i, N), _ in P.terms.items()}
    coeffs = clear_denominators(field, [P.coeff(i, exps[i]) for i in range(n)])[1]
    gf = field.gf

    # scan order, most significant first: variable n-1, then 0 .. n-2.
    # Column blocks and the coefficients in them run least significant
    # first: the block of variable k, the last in scan order first, holds
    # bounds[k] + 1 coefficients, and its column (D * e + j) is the unit t^j
    # at coefficient bounds[k] - D.  Row m * e + s is digit s of output
    # coefficient m, a dict of its nonzero entries; zero rows are never
    # made, and the row order does not change the reduced form.  A column's
    # nonzero digits do not depend on the coefficient degree, which only
    # shifts their rows.
    blocks = list(range(n - 2, -1, -1)) + [n - 1]
    rows, width = {}, 0
    for k in blocks:
        for j in range(e):
            col = fq.smul(gf, gf.frob_n(p ** j, exps[k]), coeffs[k])
            entries = [(m * e + s, digit) for m, x in enumerate(col) if x
                       for s, digit in enumerate(gf.digits(x)) if digit]
            for d in range(bounds[k] + 1):
                c = width + (bounds[k] - d) * e + j
                offset = d * p ** exps[k] * e
                for r, digit in entries:
                    rows.setdefault(offset + r, {})[c] = digit
        width += (bounds[k] + 1) * e
    _, hit = next(kernel_basis(*rref(rows.values(), p, width), width, p), (None, None))
    if hit is None:
        return None
    codes = [gf.undigits([hit.get(i + s, 0) for s in range(e)]) for i in range(0, width, e)]
    witness, start = [None] * n, 0
    for k in blocks:
        witness[k] = tuple(reversed(codes[start:start + bounds[k] + 1]))
        start += bounds[k] + 1
    point = tuple(field.elem(w) for w in witness)
    if not P.evaluate(point).is_zero():
        raise RuntimeError("kernel witness does not vanish")
    return tuple(witness), point
