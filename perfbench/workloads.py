"""Seeded inputs, ops and independent answer checks for the three workloads.

An op makes the same public library calls as the matching CLI subcommand.
Its check runs after it, outside the timed region, and does not share the
decision's code path: witnesses are re-evaluated, certificates are
re-multiplied and their rank recomputed, small instances are confirmed by
exhaustive search, solution counts come from a brute force or a pinned
table, divisions are replayed, and every oracle verdict must agree with
the symbolic one.

A workload builds one list of ops from the seed: a fixed mix of op
kinds, with the seed picking the random instances and their order.
The library is reached only through the ``lib`` namespace handed in, so a
tracer that rebinds module attributes sees every call.
"""

import itertools
import random

PRIMES = (2, 3, 5)
DOMAINS = {"fq": 0, "deg1": 1, "deg2": 2}


class Op:
    """One timed call.  ``run()`` returns the result; ``check(result)``
    returns (decided, ok, detail)."""

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check


def _rng(seed, workload):
    return random.Random(f"{workload}:{seed}")


def _field(lib, p, e=1, depth=0):
    return lib.field.Field(lib.field.FieldSpec(p, e, "a", depth))


def rand_elem(k, rng, deg=2, rational=False):
    """A nonzero element num/den with random coefficients of degree <= deg."""
    q = k.spec.q
    while True:
        num = tuple(rng.randrange(q) for _ in range(rng.randint(1, deg + 1)))
        den = (1,)
        if rational:
            den = tuple(rng.randrange(q) for _ in range(rng.randint(0, deg))) + (1,)
        x = k.elem(num, den)
        if not x.is_zero():
            return x


# ---------------------------------------------------------------------------
# decide: groups.classify on random and corpus hypersurface groups


def _tops(rng, n, mixed):
    while True:
        tops = [rng.randrange(3) for _ in range(n)] if mixed else [rng.randrange(3)] * n
        if not mixed or len(set(tops)) > 1:
            return tops


def _group(lib, k, rng, top_coeffs, tops):
    n = len(tops)
    terms = {}
    for i, t in enumerate(tops):
        terms[(i, t)] = top_coeffs[i]
        for e in range(t):
            if rng.random() < 0.5:
                terms[(i, e)] = rand_elem(k, rng)
    f = lib.ppoly.PPoly(k, n, terms)
    names = tuple(f"X{i}" for i in range(n))
    return lib.groups.HypersurfaceGroup("G", names, f, rng.randrange(n))


def random_group(lib, k, rng, n, mixed):
    """Random defining polynomial; some top coefficients are rational."""
    tops = _tops(rng, n, mixed)
    coeffs = [rand_elem(k, rng, rational=rng.random() < 0.3) for _ in range(n)]
    return _group(lib, k, rng, coeffs, tops)


def planted_group(lib, k, rng, n):
    """Mixed top exponents whose principal part vanishes at a planted point
    with polynomial entries of degree <= 1, so a zero exists."""
    tops = _tops(rng, n, True)
    while True:
        x = [rand_elem(k, rng, deg=1) for _ in range(n)]
        coeffs = [rand_elem(k, rng, rational=rng.random() < 0.3) for _ in range(n - 1)]
        acc = k.zero()
        for c, xi, t in zip(coeffs, x, tops):
            acc = acc + c * xi.frobenius(t)
        last = -acc / x[-1].frobenius(tops[-1])
        if not last.is_zero():
            return _group(lib, k, rng, coeffs + [last], tops)


def _rank(rows):
    """Row rank by plain Gaussian elimination (independent of zerocert)."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if not m[i][c].is_zero():
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def certificate_ok(P, d):
    """The semilinear certificate: row i rebuilds lambda * c_i as
    sum_j u_ij^(p^N) b^(col_j) for one common lambda != 0, the columns are
    distinct residues below p^N, and the rows have full rank."""
    k = P.dom
    tops = {i: e for (i, e) in P.terms}
    pres = sorted(tops)
    N = min(tops.values())
    cols, rows = d.columns, d.matrix
    if rows is None or len(rows) != len(pres) or len(set(cols)) != len(cols):
        return False
    if any(not 0 <= j < k.p ** N for j in cols):
        return False
    b = k.gen_elem()
    ratio = None
    for i, row in zip(pres, rows):
        recon = k.zero()
        for j, u in zip(cols, row):
            recon = recon + u.frobenius(N) * b ** j
        r = recon / P.terms[(i, tops[i])]
        if r.is_zero() or (ratio is not None and r != ratio):
            return False
        ratio = r
    return _rank(rows) == len(pres)


# exhaustive confirmation degree bound: p^(bound + 1) candidates per entry
_SEARCH_BOUND = {2: 3, 3: 2, 5: 1}


def _check_decision(lib, g, expect):
    def check(report):
        d = report.wound
        P = g.f.principal_part()
        k = P.dom
        if d.verdict == "zero":
            w = d.witness
            ok = (len(w) == P.nvars and any(not x.is_zero() for x in w)
                  and P.evaluate(w).is_zero() and expect != "no_zero")
            return ok, ok, "" if ok else "witness does not vanish"
        if d.verdict == "no_zero":
            if expect in ("zero", "has_zero") or not certificate_ok(P, d):
                return False, False, "certificate rejected"
            npres = len({i for i, _ in P.terms})
            if k.spec.e == 1 and npres <= 3:
                hit = lib.zerocert.exhaustive_poly_search(P, _SEARCH_BOUND[k.p])
                if hit is not None:
                    return False, False, "exhaustive search found a zero"
            return True, True, ""
        # an honest unknown is not decided; the exact stage never gives one
        ok = expect not in ("exact", "zero", "no_zero")
        return False, ok, "" if ok else "unknown where the decision is exact"
    return check


def _classify_op(lib, kind, g, expect):
    label = f"{kind}: {g.f.sorted_terms()!r} pivot={g.pivot}"
    return Op(kind, label, lambda: lib.groups.classify(g), _check_decision(lib, g, expect))


def _mixed_demo(lib, k):
    """The demo file's group Mixed: X^p + a Y^(p^2)."""
    a = k.base_gen()
    f = lib.ppoly.PPoly(k, 2, {(0, 1): k.one(), (1, 2): a})
    return lib.groups.HypersurfaceGroup("Mixed", ("X", "Y"), f, 0)


class Decide:
    """One op: ``woundcheck classify``.

    The op list holds three instances of every equal-exponent kind (p, e,
    depth, n), a random mixed instance at p = 2, e = 1 with 2 variables,
    planted mixed instances in the numbers of ``PLANTED``, and the corpus
    groups.  Planted instances have a zero, so the relaxation
    cannot certify them and the searches run.

    Over F_9 and F_25 the rational search hits the time limit whatever
    the coefficients: one instance of each such kind keeps those slow
    decisions in every list.  With W2 these 5 time-outs are under a tenth
    of the 162 ops, so the 90th percentile falls on a decision that
    finishes.  At p = 5 with 3 variables the meet-in-the-middle search
    builds a table of 625^2 entries and finishes in 0.4-1 s, under the
    2 s limit; its six instances set the peak memory (86-162 MB each, a
    fixed amount per instance, where a search cut off by the limit would
    leave a peak that depends on the speed of the machine).  The 90th
    percentile falls among the 21 planted instances at p = 3, n = 3,
    whose searches finish in 3-8 ms depending on the instance: with 21
    of them the percentile sits inside the group, near its 75th
    percentile, and moves little with the seed; with seven it fell on
    the third fastest and moved by a fifth.  Random mixed instances in 3
    variables, at p = 5, at e = 2, or at p = 3 finish in a millisecond or
    run the rational search for seconds depending on their coefficients
    (2 of 40 at p = 2 with 3 variables hit the limit), so the number of
    slow ops, and with it every timing, would vary with the seed; the
    planted kinds keep it fixed.
    """

    name = "decide"
    limit_s = 2.0
    # planted instances per mixed kind (p, e, n)
    PLANTED = {(2, 1, 2): 2, (2, 1, 3): 2, (3, 1, 2): 2, (3, 1, 3): 21, (5, 1, 2): 2,
               (5, 1, 3): 6, (3, 2, 2): 1, (3, 2, 3): 1, (5, 2, 2): 1, (5, 2, 3): 1}

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed
        self.fields = {(p, e, depth): _field(lib, p, e, depth)
                       for p in PRIMES for e in (1, 2) for depth in (0, 1)}
        c = lib.corpus
        self.corpus = []
        for p in PRIMES:
            k = self.fields[(p, 1, 0)]
            self.corpus += [(f"corpus Wa p={p}", c.group_wa(k), "no_zero"),
                            (f"corpus Va p={p}", c.group_va(k), "no_zero"),
                            (f"corpus U p={p}", c.group_u(k), "no_zero"),
                            (f"corpus twisted Wa p={p}",
                             lib.groups.twist_group(c.group_wa(k), 1), "zero")]
        self.corpus.append(("corpus W2 p=2", c.group_w2(self.fields[(2, 1, 0)]), None))
        self.corpus.append(("corpus Mixed p=3", _mixed_demo(lib, self.fields[(3, 1, 0)]), None))

    def warm_up(self):
        for _, g, expect in self.corpus:
            if expect is not None:  # W2 and Mixed run the slow searches
                self.lib.groups.classify(g)

    def ops(self):
        lib = self.lib
        rng = _rng(self.seed, self.name)
        ops = []
        for p, e, depth, n, _ in itertools.product(PRIMES, (1, 2), (0, 1), (1, 2, 3), range(3)):
            g = random_group(lib, self.fields[(p, e, depth)], rng, n, mixed=False)
            ops.append(_classify_op(lib, f"equal p={p} e={e} depth={depth} n={n}", g, "exact"))
        k = self.fields[(2, 1, rng.randrange(2))]
        ops.append(_classify_op(lib, f"mixed p=2 e=1 depth={k.spec.depth} n=2",
                                random_group(lib, k, rng, 2, mixed=True), None))
        planted = [kind for kind, count in self.PLANTED.items() for _ in range(count)]
        for p, e, n in planted:
            k = self.fields[(p, e, rng.randrange(2))]
            ops.append(_classify_op(lib, f"mixed-planted p={p} e={e} depth={k.spec.depth} n={n}",
                                    planted_group(lib, k, rng, n), "has_zero"))
        for kind, g, expect in self.corpus:
            ops.append(_classify_op(lib, kind, g, expect))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# hom: derive_hom_constraints + solve_homs_bounded, as ``woundcheck solve``

# Solution counts of the bounded search, per (p, source, target): p for the
# pairs listed, 1 (the zero map) for the others.  They do not depend on the
# domain, because every solution has constant coefficients.
_P_MAPS = {
    2: {("Wa", "Wa"), ("Wa", "U"), ("Va", "Wa"), ("Va", "Va"), ("Va", "U"), ("Va", "W"),
        ("U", "Wa"), ("U", "U"), ("W", "Wa"), ("W", "U"), ("W", "W")},
    "odd": {("Wa", "Wa"), ("Va", "Wa"), ("Va", "Va"), ("Va", "U"), ("Va", "W"),
            ("U", "U"), ("W", "Wa"), ("W", "U"), ("W", "W")},
}


def pinned_count(p, s, t):
    return p if (s, t) in _P_MAPS[2 if p == 2 else "odd"] else 1


_GROUPS = ("Wa", "Va", "U", "W")


def domain_elems(k, name):
    """The coefficient domain exactly as the CLI's ``--domain`` builds it."""
    if name == "fq":
        if k.spec.e > 1:
            return [k.elem((c,) if c else ()) for c in range(k.spec.q)]
        return [k.from_int(c) for c in range(k.p)]
    out = [k.elem(coeffs) for coeffs in itertools.product(range(k.spec.q), repeat=DOMAINS[name] + 1)]
    return sorted(set(out), key=lambda x: (x.den, x.num))


def hom_kinds():
    """(p, source, target, domain): every group pair at p = 2 on every
    domain, at p = 3 on fq/deg1 plus two deg2 pairs, at p = 5 on fq plus
    the known-slow deg1/deg2 pairs, which hit the time limit; and the line
    sources.  U->U at p = 5 over deg1 (0.6 s) is left out: it finishes,
    and alone it took a fifth of every pass, leaving too few passes for a
    steady best time."""
    pairs = list(itertools.product(_GROUPS, _GROUPS))
    kinds = [(2, s, t, d) for s, t in pairs for d in DOMAINS]
    kinds += [(3, s, t, d) for s, t in pairs for d in ("fq", "deg1")]
    kinds += [(3, "Va", "U", "deg2"), (3, "U", "U", "deg2")]
    kinds += [(5, s, t, "fq") for s, t in pairs]
    kinds += [(5, "Va", "U", "deg1"), (5, "Va", "Va", "deg1"),
              (5, "U", "U", "deg2"), (5, "Va", "U", "deg2")]
    kinds += [(p, "split", "Ga", d) for p in PRIMES for d in DOMAINS]
    kinds += [(p, "Wa", "Ga", "fq") for p in PRIMES]
    kinds += [(p, "Wa", "Ga", "deg1") for p in (2, 3)]
    return kinds


class Hom:
    """One op: ``woundcheck solve SRC DST --domain D``.  The op list holds
    every kind of ``hom_kinds`` once, in seeded order."""

    name = "hom"
    limit_s = 1.0

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed
        c = lib.corpus
        build = {"Wa": c.group_wa, "Va": c.group_va, "U": c.group_u, "W": c.group_w,
                 "split": c.split_line}
        self.kinds = []
        self._wpoints = {}
        self._domains = {}
        for p, s, t, d in hom_kinds():
            k = c.base_field(p)
            if (p, d) not in self._domains:
                self._domains[(p, d)] = domain_elems(k, d)
            src = build[s](k)
            tgt = lib.groups.AffineLine() if t == "Ga" else build[t](k)
            self.kinds.append((p, s, t, d, src, tgt, self._domains[(p, d)]))

    def warm_up(self):
        lib = self.lib
        for p, s, t, d, src, tgt, dom in self.kinds:
            if d == "fq" and t == "Ga":
                lib.homs.solve_homs_bounded(lib.homs.derive_hom_constraints(src, tgt), dom)

    def _expected(self, p, s, t, d, dom, cs):
        if t == "Ga":
            return len(dom) ** len(cs.ring.names)
        if (s, t) == ("Va", "U"):
            # Hom(V, U) is parametrized by the W-points (criterion 8)
            if (p, d) not in self._wpoints:
                fw = self.lib.corpus.group_w(self.lib.corpus.base_field(p)).f
                self._wpoints[(p, d)] = sum(1 for x in dom for y in dom
                                            if fw.evaluate((x, y)).is_zero())
            return self._wpoints[(p, d)]
        return pinned_count(p, s, t)

    def _op(self, p, s, t, d, src, tgt, dom):
        lib = self.lib

        def run():
            cs = lib.homs.derive_hom_constraints(src, tgt)
            return cs, lib.homs.solve_homs_bounded(cs, dom)

        def check(result):
            cs, sols = result
            want = self._expected(p, s, t, d, dom, cs)
            if len(sols) != want:
                return False, False, f"{len(sols)} solutions, expected {want}"
            if not all(lib.homs.verify_hom(sol.map) for sol in sols):
                return False, False, "a solution fails verify_hom"
            return True, True, ""

        kind = f"{s}->{t} p={p} {d}"
        return Op(kind, kind, run, check)

    def ops(self):
        rng = _rng(self.seed, self.name)
        ops = [self._op(*kind) for kind in self.kinds]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# identities: reduce, check-extension, verify-hom (+ oracle), verify-iso


def rand_ppoly(lib, k, rng, nvars, max_exp=3, deg=2, density=0.6):
    terms = {}
    for i in range(nvars):
        for e in range(max_exp + 1):
            if rng.random() < density:
                terms[(i, e)] = rand_elem(k, rng, deg, rational=rng.random() < 0.2)
    return lib.ppoly.PPoly(k, nvars, terms)


def division_pair(lib, k, rng, nvars):
    """(h, f, pivot) in nvars variables: a nonzero divisor, and a dividend
    with a pivot term at or above the divisor's, so every division takes
    at least one step.

    Exponents go up to p^3 for p <= 3 and p^2 above, so a Frobenius power
    spreads a coefficient by at most 49: at p = 7, depth 2, p^3 makes
    single divisions of 0.5 s, whose number per seed would swamp every
    timing.  Dividends that are already reduced return at once; mixed with
    the rest they would make the median depend on their share."""
    max_exp = 3 if k.p <= 3 else 2
    while True:
        f = rand_ppoly(lib, k, rng, nvars, max_exp)
        if f.is_zero():
            continue
        pivot = rng.choice(sorted({i for i, _ in f.terms}))
        n0 = f.max_exp(pivot)
        terms = dict(rand_ppoly(lib, k, rng, nvars, max_exp).terms)
        terms[(pivot, rng.randint(n0, max_exp))] = rand_elem(k, rng)
        return lib.ppoly.PPoly(k, nvars, terms), f, pivot


def _splitting_pair(lib, wa, b):
    """Mutually inverse maps wa <-> Ga for wa = X + X^p + b^p Y^p:
    (X, Y) -> X + b Y and T -> (-T^p, (T + T^p) / b)."""
    PPoly, PPolyMap = lib.ppoly.PPoly, lib.homs.PPolyMap
    k = b.field
    line = lib.groups.AffineLine()
    f = PPolyMap("to_line", wa, line, (PPoly(k, 2, {(0, 0): k.one(), (1, 0): b}),))
    g = PPolyMap("from_line", line, wa,
                 (PPoly(k, 1, {(0, 1): -k.one()}),
                  PPoly(k, 1, {(0, 0): b.inverse(), (0, 1): b.inverse()})))
    return f, g


def splitting_pairs(lib, k):
    """Wa splits over k(a^(1/p)) with b = a^(1/p); its Frobenius twist
    X + X^p + a^p Y^p splits over k itself with b = a."""
    deep = k.extend(1)
    twisted = lib.groups.twist_group(lib.corpus.group_wa(k), 1)
    return [("split",) + _splitting_pair(lib, lib.corpus.group_wa(deep), deep.gen_elem()),
            ("twist_split",) + _splitting_pair(lib, twisted, k.base_gen())]


class Identities:
    """Ops mirroring ``reduce``, ``check-extension``, ``verify-hom`` (the
    symbolic check plus the 100-trial oracle) and ``verify-iso``.

    The list holds 3 random divisions per (p, e, depth, nvars) kind, the
    Gabber extension and the splitting pairs at p = 3, 5, 7, and, with
    oracle seeds 0 and 1, the oracle ops: phi_b, the splitting maps and the
    Gabber and b landings at p = 3, b2 and its landing at p = 2, and the
    relative Frobenius of every corpus group at p = 3 (n = 1) and p = 2
    (n = 1, 2).  Oracle calls at p = 5 (0.3-0.8 s) or of the p^2 Frobenius
    at p = 3 (0.2-0.35 s) would leave a run too few passes for a steady
    best time; p = 5 keeps the symbolic ops and the commutator, which the
    oracle refutes at once.  The oracle ops are over 10% of the list, so
    the 90th percentile falls inside that group; the many divisions steady
    the median.
    """

    name = "identities"
    limit_s = 20.0
    TRIALS = 100           # the CLI default
    ORACLE_SEEDS = (0, 1)  # the CLI default, and one more
    FROBENIUS_POWERS = {2: (1, 2), 3: (1,)}

    def __init__(self, lib, seed):
        self.lib = lib
        self.seed = seed
        self.fields = {(p, e, depth): _field(lib, p, e, depth)
                       for p in (2, 3, 5, 7) for e in (1, 2) for depth in (0, 1, 2)}
        c, groups, homs = lib.corpus, lib.groups, lib.homs
        self.maps = []        # (kind, map) for verify-hom with the oracle
        self.identities = []  # (kind, poly, relations, expected zero)
        self.exts = []        # (kind, extension)
        self.isos = []        # (kind, f, g)
        for p in (2, 3, 5, 7):
            k = c.base_field(p)
            if p != 2:
                self.exts.append((f"check-extension gabber p={p}", c.gabber_extension(k)))
                for tag, f, g in splitting_pairs(lib, k):
                    self.isos.append((f"verify-iso {tag} p={p}", f, g))
                    if p == 3:
                        self.maps += [(f"verify-hom {tag}.f p={p}", f),
                                      (f"verify-hom {tag}.g p={p}", g)]
            for n in self.FROBENIUS_POWERS.get(p, ()):
                for build in (c.group_wa, c.group_va, c.group_u, c.group_w):
                    g = build(k)
                    self.maps.append((f"verify-hom frobenius^{n} {g.name} p={p}",
                                      homs.relative_frobenius(g, n)))
            if p in (3, 5):
                ext = c.gabber_extension(k)
                pair = ext.pair_relations()
                n = ext.base.nvars
                swap = [lib.polyring.Poly.variable(k, 2 * n, (i + n) % (2 * n))
                        for i in range(2 * n)]
                self.identities.append((f"identity gabber.commutator p={p}",
                                        ext.h[0] - ext.h[0].substitute(swap), pair, False))
            if p == 3:
                self.maps.append((f"verify-hom phi_b p={p}", c.phi_b_map(k)))
                self.identities.append((f"identity gabber.landing p={p}",
                                        groups.landing_poly(ext.h, ext.center), pair, True))
                rset = groups.block_relations([(c.group_w(k), 0), (c.group_va(k), 2)], 4)
                self.identities.append((f"identity b.landing p={p}",
                                        groups.landing_poly(c.b_map_polys(k), c.group_u(k)),
                                        rset, True))
        k2 = c.base_field(2)
        self.maps.append(("verify-hom b2 p=2", c.b2_induced_map(k2)))
        rset2 = groups.block_relations([(c.group_w2(k2), 0), (c.group_va(k2), 3)], 5)
        self.identities.append(("identity b2.landing p=2",
                                groups.landing_poly(c.b2_polys(k2), c.group_u(k2)), rset2, True))

    def warm_up(self):
        rng = random.Random(0)
        for k in self.fields.values():
            h, f, pivot = division_pair(self.lib, k, rng, 2)
            self.lib.ppoly.reduce_mod(h, f, pivot)

    def _reduce_op(self, kind, h, f, pivot):
        lib = self.lib

        def check(tr):
            n0 = f.max_exp(pivot)
            top = max((e for i, e in tr.remainder.terms if i == pivot), default=-1)
            ok = top < n0 and tr.replay() == h
            return ok, ok, "" if ok else "replay or degree bound failed"

        return Op(kind, f"{kind}: {h.sorted_terms()!r} by {f.sorted_terms()!r} pivot={pivot}",
                  lambda: lib.ppoly.reduce_mod(h, f, pivot), check)

    def _hom_op(self, kind, m, oseed):
        lib = self.lib

        def run():
            ok = lib.homs.verify_hom(m)
            ident = lib.homs.landing_identity(m)
            sampled = None
            if ident is not None:
                sampled = lib.oracle.random_point_oracle(ident[0], ident[1], seed=oseed,
                                                         trials=self.TRIALS)
            return ok, sampled

        def check(result):
            ok, sampled = result
            good = ok is True and sampled in (None, True)
            return good, good, "" if good else f"verified={ok} oracle={sampled}"

        return Op(kind, kind, run, check)

    def _identity_op(self, kind, poly, rset, expected, oseed):
        lib = self.lib

        def run():
            symbolic = lib.polyring.is_identically_zero(poly, rset)
            return symbolic, lib.oracle.random_point_oracle(poly, rset, seed=oseed,
                                                            trials=self.TRIALS)

        def check(result):
            symbolic, sampled = result
            good = symbolic == expected and sampled == symbolic
            return good, good, "" if good else f"symbolic={symbolic} oracle={sampled}"

        return Op(kind, kind, run, check)

    def _extension_op(self, kind, ext):
        lib = self.lib

        def run():
            return lib.groups.check_group_axioms(ext), lib.groups.is_alternating(ext)

        def check(result):
            rep, alternating = result
            good = (rep.lands_in_center and rep.biadditive and alternating
                    and all(ok for _, ok in rep.axioms) and len(rep.axioms) > 0
                    and not rep.commutative)
            return good, good, "" if good else f"report={rep} alternating={alternating}"

        return Op(kind, kind, run, check)

    def _iso_op(self, kind, f, g):
        lib = self.lib

        def check(result):
            return result is True, result is True, "" if result is True else "not inverse"

        return Op(kind, kind, lambda: lib.homs.verify_mutual_inverse(f, g), check)

    def ops(self):
        rng = _rng(self.seed, self.name)
        ops = []
        for (p, e, depth), k in self.fields.items():
            for nvars, _ in itertools.product((1, 2, 3), range(3)):
                h, f, pivot = division_pair(self.lib, k, rng, nvars)
                ops.append(self._reduce_op(f"reduce p={p} e={e} depth={depth} n={nvars}",
                                           h, f, pivot))
        for kind, ext in self.exts:
            ops.append(self._extension_op(kind, ext))
        for kind, f, g in self.isos:
            ops.append(self._iso_op(kind, f, g))
        for oseed in self.ORACLE_SEEDS:
            for kind, m in self.maps:
                ops.append(self._hom_op(f"{kind} --seed {oseed}", m, oseed))
            for kind, poly, rset, expected in self.identities:
                ops.append(self._identity_op(f"{kind} --seed {oseed}", poly, rset, expected, oseed))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Decide, Hom, Identities)}
