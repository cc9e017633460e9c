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
      search, over every witness vector with polynomial entries up to a
      degree bound.  Such a vector is a vector of F_p digits, one per
      (coefficient, basis element of F_q over F_p), and the principal part
      is F_p-linear in them, so the search is one sparse row reduction mod
      p (``field.rref``) with a column per (variable, coefficient, digit)
      and a row per output digit, holding only its nonzero entries; it
      returns the first zero of a fixed scan order, built as FieldElems and
      re-verified exactly once, and that vector settles Zero.
   b. The relaxation w_i = x_i^(p^(N_i - N_min)), decided as in 1 on the
      same coefficients with every N_i read as N_min.  Its NoZero is sound
      for the original, so the search before it finds nothing and the
      order changes no answer; its zero decides nothing.
   c. A budgeted search over rational entries of bounded degree, charging
      one unit per vector, as a lookup join on the last variable: the one
      last entry that can cancel a prefix of the other entries is the
      p^N-th root of -(prefix sum) / c_last, found by a dict lookup.  Each
      degree level is built only when the scan reaches it.  When N >= 1, a
      prefix whose terms have a nonzero derivative sum cannot hit, since
      k^p is the kernel of d/db (F_q is perfect); it is charged as before
      and skipped.  A witness settles Zero; exhausting the budget or the
      bound returns Unknown.
"""

import itertools

from . import fqpoly as fq
from .field import Field, FieldElem, clear_denominators, kernel_basis, rref
from .record import Record


class ZeroDecision(Record):
    __slots__ = ("verdict", "stage", "witness", "matrix", "columns", "rank", "search_bound")

    def __init__(self, verdict, stage, witness=None, matrix=None, columns=None, rank=None,
                 search_bound=None):
        self.verdict = verdict      # "no_zero" | "zero" | "unknown"
        self.stage = stage          # where the verdict was reached
        self.witness = witness
        self.matrix = matrix        # semilinear certificate rows (tuples of FieldElem)
        self.columns = columns
        self.rank = rank
        self.search_bound = search_bound


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


def decide_no_nontrivial_zero(P, search_bound=3, search_budget=50_000):
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
    nmin = min(e for (_, e), _ in top)
    coeffs = [c for _, c in top]
    if all(e == nmin for (_, e), _ in top):
        res = _equal_exponent(field, coeffs, nmin, "equal_exponent")
        if res.witness is not None and not P.evaluate(res.witness).is_zero():
            raise RuntimeError("equal-exponent witness does not vanish")
        return res

    # mixed exponents: polynomial witnesses first (one F_p-kernel), then the
    # min-exponent relaxation w_i = x_i^(p^(N_i - nmin)), whose zeros decide
    # nothing, then rational witnesses
    found = _poly_search(P, search_bound)
    if found is not None:
        return ZeroDecision("zero", "search", witness=found[1])
    res = _equal_exponent(field, coeffs, nmin, "relaxation")
    if res.verdict == "no_zero":
        return res
    found = _rational_witness_search(P, search_bound, search_budget)
    if found is not None:
        return ZeroDecision("zero", "search", witness=found)
    return ZeroDecision("unknown", "search", search_bound=search_bound)


def rational_candidates(field, max_deg):
    """Rational candidates by level, for d = 0 .. max_deg.

    Level d lists the reduced fractions num / den with den monic of degree
    exactly d and num of degree <= d, each once; level 0 is the constants
    0, 1, 2, ...  A fraction that reduces to a lower level was listed there,
    so no level repeats one.  Fractions whose numerator has the higher
    degree, such as b, are never candidates.  Each level is built only when
    the caller asks for it.
    """
    q = field.spec.q
    seen = set()
    for d in range(max_deg + 1):
        level = []
        nums = [fq.norm(t) for t in itertools.product(range(q), repeat=d + 1)]
        dens = [fq.norm(t + (1,)) for t in itertools.product(range(q), repeat=d)]
        for den in dens:
            for num in nums:
                if not num and len(den) > 1:
                    continue
                x = FieldElem(field, num, den)
                key = (x.num, x.den)
                if key in seen:
                    continue
                seen.add(key)
                level.append(x)
        yield level


def _rational_witness_search(P, bound, budget):
    """The first zero among rational candidate vectors, by degree level.

    The scan runs itertools.product over the candidate pool, the last
    present variable fastest.  At each level it covers the vectors with an
    entry of that level, skips the zero vector, and charges one unit of the
    budget per vector; the budget spent or the levels done, it returns None.

    It runs as a lookup join on the last variable.  A vector vanishes iff
    its last entry v satisfies v^(p^N) = t, where t = -s / c for the prefix
    sum s of the other variables' terms and the last coefficient c.  So v
    is the p^N-th root of t: unique, since Frobenius is injective, and
    canonical when t is.  One dict lookup from canonical (num, den) forms to
    pool indices finds it, and a prefix is charged the number of last
    entries it pairs with.  The dict holds only the entries that a hit can
    reach within the budget, and prefix terms are built lazily and
    memoized, so the budget bounds the work.  A hit is re-verified through
    P.evaluate.

    When N >= 1, t must lie in k^p, the kernel of d/db (F_q is perfect),
    so a prefix can hit only if the derivatives of its terms s_k
    v_k^(p^N_k) sum to zero.  Each prefix is tested so before its sum is
    made: the derivative terms are memoized like the terms, and the last
    prefix variable's are stored negated, so with three variables the test
    is one comparison of canonical forms.  A prefix that fails it is
    charged the same units as one whose root misses, so the first hit, the
    None and the budget spent are those of the scan without the test.  With
    N = 0 every t is a p^0-th power and the test is off.
    """
    field = P.dom
    gf = field.gf
    pres = P.vars_present()
    exps = {i: e for (i, e), _ in P.terms.items()}
    terms = [(P.coeff(i, exps[i]), exps[i]) for i in pres]
    c_last, n_last = terms[-1]
    scales = [-c / c_last for c, _ in terms[:-1]]
    pool = []
    memo = [{} for _ in scales]  # per prefix variable: j -> -c_k / c_last * pool[j]^(p^N_k)
    index = {}  # (num, den) of pool[j] -> j

    def term(k, j):
        if j not in memo[k]:
            memo[k][j] = scales[k] * pool[j].frobenius(terms[k][1])
        return memo[k][j]

    dscales = [s.derivative() for s in scales]
    dmemo = [{} for _ in scales]

    def dterm(k, j):
        # d(s v^(p^N)) = s' v^(p^N), plus s v' when N = 0; negated for the
        # last prefix variable
        if j not in dmemo[k]:
            s, ds, (_, N), v = scales[k], dscales[k], terms[k], pool[j]
            d = ds * v.frobenius(N)
            if N == 0:
                d += s * v.derivative()
            dmemo[k][j] = -d if k == len(scales) - 1 else d
        return dmemo[k][j]

    def derivative_vanishes(prefix):
        *head, i = prefix
        ds = [dterm(k, j) for k, j in enumerate(head)]
        lhs, rhs = sum(ds[1:], ds[0]) if ds else field.zero(), dterm(len(head), i)
        return lhs.num == rhs.num and lhs.den == rhs.den

    spent = 0
    for level in rational_candidates(field, bound):
        cut = len(pool)
        pool += level
        m = len(pool)
        for j in range(len(index), min(m, cut + budget - spent + 1)):
            index[(pool[j].num, pool[j].den)] = j
        for prefix in itertools.product(range(m), repeat=len(scales)):
            if spent >= budget:
                return None
            # last entries below cut pair with an all-below-cut prefix at a
            # lower level; pool[0] is the only zero candidate
            lo = cut if all(i < cut for i in prefix) else 0
            skip = lo == 0 and not any(prefix)
            if n_last and not derivative_vanishes(prefix):
                spent += m - lo - skip
                continue
            ts = [term(k, i) for k, i in enumerate(prefix)]
            t = sum(ts[1:], ts[0])
            root = (fq.proot(gf, t.num, n_last), fq.proot(gf, t.den, n_last))
            j = index.get(root)
            if j is not None and j >= lo and not (skip and j == 0):
                if spent + j - lo + 1 - skip > budget:
                    return None
                point = [field.zero()] * P.nvars
                for slot, i in zip(pres, prefix + (j,)):
                    point[slot] = pool[i]
                if not P.evaluate(point).is_zero():
                    raise RuntimeError("search witness does not vanish")
                return tuple(point)
            spent += m - lo - skip
    return None


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
    found = _poly_search(P, degree_bound)
    return None if found is None else found[0]


def _poly_search(P, degree_bound):
    """(codes, point) for ``exhaustive_poly_search`` on a principal part P
    in which every variable is present: the codes it returns, and the
    FieldElem vector they stand for, built and verified once; or None."""
    field = P.dom
    p, e = field.p, field.spec.e
    ncoef = degree_bound + 1
    n = P.nvars
    exps = {i: N for (i, N), _ in P.terms.items()}
    coeffs = clear_denominators(field, [P.coeff(i, exps[i]) for i in range(n)])[1]

    gf = field.gf
    ns = [exps[i] for i in range(n)]
    qs = [p ** N for N in ns]

    # scan order, most significant first: variable n-1, then 0 .. n-2.
    # Column blocks and the coefficients in them run least significant
    # first: block b holds variable order[n-1-b], and its column
    # (D * e + j) is the unit t^j at coefficient degree_bound - D.  Row
    # m * e + s is digit s of output coefficient m, a dict of its nonzero
    # entries; zero rows are never made, and the row order does not change
    # the reduced form.  A column's nonzero digits do not depend on the
    # coefficient degree, which only shifts their rows.
    order = [n - 1] + list(range(n - 1))
    width = n * ncoef * e
    rows = {}
    for b, k in enumerate(reversed(order)):
        for j in range(e):
            col = fq.smul(gf, gf.frob_n(p ** j, ns[k]), coeffs[k])
            entries = [(m * e + s, digit) for m, x in enumerate(col) if x
                       for s, digit in enumerate(gf.digits(x)) if digit]
            for d in range(ncoef):
                c = (b * ncoef + degree_bound - d) * e + j
                offset = d * qs[k] * e
                for r, digit in entries:
                    rows.setdefault(offset + r, {})[c] = digit
    _, hit = next(kernel_basis(*rref(rows.values(), p, width), width, p), (None, None))
    if hit is None:
        return None
    codes = [gf.undigits([hit.get(i + s, 0) for s in range(e)]) for i in range(0, width, e)]
    witness = [None] * n
    for b, k in enumerate(reversed(order)):
        witness[k] = tuple(reversed(codes[b * ncoef:(b + 1) * ncoef]))
    point = tuple(field.elem(w) for w in witness)
    if not P.evaluate(point).is_zero():
        raise RuntimeError("kernel witness does not vanish")
    return tuple(witness), point
