"""No-nontrivial-zero decisions for principal parts, with certificates.

The decision runs in three stages:

1. Equal exponents p^N: clear denominators (scaling does not move the zero
   set) and decompose each coefficient over the basis {b^j : j < p^N} of k
   over k^(p^N), writing c_i = sum u_ij^(p^N) b^j.  The polynomial has a
   nontrivial zero iff the matrix [u_ij] has rank < n over k; a left kernel
   vector is an explicit witness, a full-rank matrix is the certificate.
2. Mixed exponents: substitute w_i = x_i^(p^(N_i - N_min)), an
   equal-exponent relaxation, decided by the same call on the same top
   coefficients with every N_i read as N_min.  NoZero for the relaxation
   is sound for the original; a relaxation zero decides nothing.
3. Budgeted witness search over rational entries of bounded degree,
   enumerated by increasing degree and joined on the last variable.
   Finding a witness settles Zero; exhausting the budget or the bound
   returns Unknown.

Over every F_q, stage 3 first runs ``exhaustive_poly_search``, which the
test suites also use as the independent confirmation search.  It covers
every witness vector with polynomial entries up to a degree bound in the
tower generator.  Such a vector is a vector of F_p digits, one per
(coefficient, basis element of F_q over F_p), and the principal part is
F_p-linear in them, so the search is one row reduction mod p of a matrix
with a column per (variable, coefficient, digit); it returns the first
zero of a fixed scan order and re-verifies it exactly.  The rational
search then scans vectors of rational entries, charging the budget one
unit per vector, as a lookup join on the last variable: for each prefix
of the other entries, the one last entry that can cancel it is the
p^N-th root of -(prefix sum) / c_last, found by a dict lookup.  It builds
each degree level only when its scan reaches it, so the budget bounds its
work.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import fqpoly as fq
from .field import Field, FieldElem, _rref, clear_denominators


@dataclass(frozen=True)
class ZeroDecision:
    verdict: str          # "no_zero" | "zero" | "unknown"
    stage: str            # where the verdict was reached
    witness: tuple = None
    matrix: tuple = None  # semilinear certificate rows (tuples of FieldElem)
    columns: tuple = None
    rank: int = None
    search_bound: int = None


def left_kernel_vector(rows, field):
    """(rank, x) for the matrix with the given rows: x is a nonzero vector
    with x . rows = 0, or None when the rows are independent."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    t = [[rows[i][j] for i in range(n)] for j in range(ncols)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(t)) if not t[i][c].is_zero()), None)
        if pr is None:
            continue
        t[r], t[pr] = t[pr], t[r]
        inv = t[r][c].inverse()
        t[r] = [v * inv for v in t[r]]
        for i in range(len(t)):
            if i != r and not t[i][c].is_zero():
                f = t[i][c]
                t[i] = [t[i][k] - f * t[r][k] for k in range(n)]
        pivots.append(c)
        r += 1
        if r == len(t):
            break
    rank = len(pivots)
    if rank == n:
        return rank, None
    free = next(c for c in range(n) if c not in pivots)
    x = [field.zero()] * n
    x[free] = field.one()
    for i, c in enumerate(pivots):
        x[c] = -t[i][free]
    return rank, x


def _semilinear_rows(field, polys, N):
    """Decompose c = sum_j u_j^(p^N) b^j; returns (columns, rows of u_ij)."""
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
        rows.append(tuple(
            FieldElem._raw(field, fq.norm([d.get(i, 0) for i in range(max(d) + 1)]) if d else (), fq.ONE)
            for d in row))
    return tuple(cols), rows


def _equal_exponent(field, coeffs, N, stage):
    """The decision for sum_i coeffs[i] * x_i^(p^N): no_zero with the full-rank
    semilinear rows, or zero with a left kernel vector as the witness."""
    polys = clear_denominators(field, coeffs)[1]
    cols, rows = _semilinear_rows(field, polys, N)
    rank, x = left_kernel_vector(rows, field)
    if x is None:
        return ZeroDecision("no_zero", stage, matrix=tuple(rows), columns=cols, rank=rank)
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

    # one term per variable; with mixed exponents this is the min-exponent
    # relaxation w_i = x_i^(p^(N_i - nmin)), whose zeros decide nothing
    top = sorted(P.terms.items())
    nmin = min(e for (_, e), _ in top)
    stage = "equal_exponent" if all(e == nmin for (_, e), _ in top) else "relaxation"
    res = _equal_exponent(field, [c for _, c in top], nmin, stage)
    if stage == "equal_exponent":
        if res.witness is not None and not P.evaluate(res.witness).is_zero():
            raise RuntimeError("equal-exponent witness does not vanish")
        return res
    if res.verdict == "no_zero":
        return res

    # polynomial witnesses first (one F_p-kernel), then rational ones
    arrays = exhaustive_poly_search(P, search_bound)
    if arrays is not None:
        witness = tuple(field.elem(tuple(int(v) for v in w)) for w in arrays)
        return ZeroDecision("zero", "search", witness=witness)
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
    arrays of F_q codes, one of shape (degree_bound + 1,) per variable, or
    None; a hit is re-verified in exact arithmetic.

    Write each witness coefficient in the F_p basis 1, t, ..., t^(e-1) of
    F_q (the digits of its ``gfq`` code).  Then c * x^(p^N) is F_p-linear
    in those digits, so the zeros are the kernel of one matrix with a
    column per (variable, coefficient, digit): the unit t^j at coefficient
    d contributes c * (t^j)^(p^N) at offset d * p^N.  The hit is the first
    zero of the scan that lists the last variable first, then the others in
    order, each variable's coefficients from degree 0, most significant
    first, and each coefficient's code in increasing order (digit e-1 most
    significant): with the columns least significant first, that is the
    kernel vector of the first free column.
    """
    field = P.dom
    p, e = field.p, field.spec.e
    if P != P.principal_part():
        raise ValueError("input must equal its own principal part")
    ncoef = degree_bound + 1
    pres = P.vars_present()
    n = len(pres)
    if n < P.nvars:
        missing = next(i for i in range(P.nvars) if i not in pres)
        out = [np.zeros(ncoef, dtype=np.int64) for _ in range(P.nvars)]
        out[missing][0] = 1
        return tuple(out)
    exps = {i: N for (i, N), _ in P.terms.items()}
    coeffs = clear_denominators(field, [P.coeff(i, exps[i]) for i in pres])[1]

    gf = field.gf
    ns = [exps[i] for i in pres]
    qs = [p ** N for N in ns]
    out_len = max(degree_bound * q + len(c) for q, c in zip(qs, coeffs))

    # scan order, most significant first: variable n-1, then 0 .. n-2.
    # Column blocks and the coefficients in them run least significant
    # first.  cols[b, d, j, m, s] is digit s, at output coefficient m, of
    # c_k * x^(p^N_k) for x the unit t^j at coefficient degree_bound - d
    order = [n - 1] + list(range(n - 1))
    cols = np.zeros((n, ncoef, e, out_len, e), dtype=np.int64)
    for block, k in zip(cols, reversed(order)):
        for j in range(e):
            col = np.array(fq.smul(gf, gf.frob_n(p ** j, ns[k]), coeffs[k]))
            digits = col[:, None] // p ** np.arange(e) % p
            for d in range(ncoef):
                block[degree_bound - d, j, d * qs[k]:d * qs[k] + len(col)] = digits
    matrix = cols.reshape(n * ncoef * e, -1).T
    reduced, pivots = _rref(matrix[matrix.any(axis=1)], p)
    free = next((c for c in range(n * ncoef * e) if c not in pivots), None)
    if free is None:
        return None
    hit = np.zeros(n * ncoef * e, dtype=np.int64)
    hit[free] = 1
    for row, c in zip(reduced, pivots):
        hit[c] = -row[free] % p
    codes = hit.reshape(n, ncoef, e)[::-1, ::-1] @ p ** np.arange(e)
    witness = [None] * n  # every variable is present: pres is 0 .. n-1
    for k, d in zip(order, codes):
        witness[k] = d
    point = [field.elem(tuple(int(v) for v in w)) for w in witness]
    if not P.evaluate(point).is_zero():
        raise RuntimeError("kernel witness does not vanish")
    return tuple(witness)
