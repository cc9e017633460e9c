"""Command-line front end.

Reports are machine-parseable `key: value` lines on stdout, byte-identical
across runs for identical inputs and seeds; elapsed time goes to stderr.
Exit codes: 0 verified/certified, 1 refuted, 2 unknown, 3 input error.
Every refused input exits 3 with empty stdout and one `error:` line on
stderr: a file statement that the parser or a constructor refuses, a name
or argument the command cannot use (a line source or an exponent cap
that `homs.derive_hom_constraints` refuses, in its words), a `solve`
whose kernel points times unknowns exceed `homs.MAX_ENUM` (10^7), and a
command line that argparse rejects, such as a negative twist `n`.  Each
command takes only the flags it reads: `--trials` and `--seed`
(verify-hom, selftest-paper); any other is a usage error.
"""

import argparse
import sys
import time
from importlib import import_module

from .gfq import is_prime
from .groups import AffineLine, check_group_axioms, classify, is_alternating, twist_group
from .parser import (MAX_PPOWER, ParseError, check_ppower, parse_ppoly, render_elem,
                     render_poly, render_ppoly)
from .ppoly import reduce_mod
from .session import parse_session, render_extension, render_group, render_map
from .zerocert import SEARCH_BOUND

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is an input error: it raises ParseError, which main
    reports as one `error:` line with exit 3, instead of argparse's usage
    text and exit 2, the code for `unknown`."""

    def error(self, message):
        raise ParseError(message)


class Report:
    def __init__(self, command):
        self.lines = [("command", command)]

    def add(self, key, value):
        self.lines.append((key, value))

    def emit(self):
        for k, v in self.lines:
            print(f"{k}: {v}")


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_session(fh.read())
    except OSError as exc:
        raise ParseError(str(exc)) from None


def _field_line(field):
    s = field.spec
    return f"field p={s.p} e={s.e} gen={s.gen} depth={s.depth}"


def _group(s, name):
    """The named hypersurface group; the line Ga has no defining polynomial."""
    g = s.group_or_line(name)
    if isinstance(g, AffineLine):
        raise ParseError(f"{name} is the additive line, not a hypersurface group")
    return g


def _witness_str(witness):
    return "(" + ", ".join(render_elem(x) for x in witness) + ")"


def _classify_into(rep, g):
    c = classify(g)
    rep.add("smooth", str(c.smooth).lower())
    rep.add("connected", c.connected)
    rep.add("dimension", c.dimension)
    verdict = c.wound_verdict
    if verdict == "certified" and c.wound.stage == "relaxation":
        rep.add("wound", "certified (relaxation)")
    else:
        rep.add("wound", verdict)
    if c.wound.verdict == "no_zero":
        rep.add("certificate.rank", c.wound.rank)
        rep.add("certificate.columns", ",".join(str(j) for j in c.wound.columns))
        for name, row in zip(g.vars, c.wound.matrix):
            rep.add(f"certificate.row.{name}", ", ".join(render_elem(x) for x in row))
    elif c.wound.verdict == "zero":
        rep.add("witness", _witness_str(c.wound.witness))
    else:
        rep.add("search.bound", SEARCH_BOUND)
    return c


def cmd_classify(args):
    s = _load(args.file)
    g = _group(s, args.group)
    rep = Report("classify")
    rep.add("group", args.group)
    rep.add("field", _field_line(s.field))
    rep.add("defining", render_ppoly(g.f, g.vars))
    c = _classify_into(rep, g)
    rep.emit()
    return {"no_zero": EXIT_VERIFIED, "zero": EXIT_REFUTED, "unknown": EXIT_UNKNOWN}[c.wound.verdict]


def cmd_reduce(args):
    s = _load(args.file)
    if args.group:
        g = _group(s, args.group)
        f, pivot, vars_ = g.f, g.pivot, g.vars
    else:
        if not (args.f and args.pivot and args.vars):
            raise ParseError("reduce needs --group or all of --f/--pivot/--vars")
        vars_ = tuple(args.vars.split(","))
        f = parse_ppoly(args.f, s.field, vars_)
        if args.pivot not in vars_:
            raise ParseError(f"pivot {args.pivot!r} not among --vars")
        pivot = vars_.index(args.pivot)
    dom = s.ring or s.field
    h = parse_ppoly(args.h, dom, vars_)
    try:
        tr = reduce_mod(h, f, pivot)
    except ValueError as exc:  # the pivot is absent from f, or its coefficient is not a unit
        raise ParseError(str(exc)) from None
    rep = Report("reduce")
    rep.add("field", _field_line(s.field))
    rep.add("dividend", render_ppoly(h, vars_))
    rep.add("divisor", render_ppoly(f, vars_))
    rep.add("pivot", vars_[pivot])
    rep.add("remainder", render_ppoly(tr.remainder, vars_))
    rep.add("steps", len(tr.steps))
    rep.add("replay.exact", str(tr.replay() == h).lower())
    rep.emit()
    return EXIT_VERIFIED


def cmd_verify_hom(args):
    from .homs import landing_identity, verify_hom
    from .oracle import UnsupportedRelationError, random_point_oracle
    s = _load(args.file)
    if args.map not in s.maps:
        raise ParseError(f"unknown map {args.map!r}")
    m = s.maps[args.map]
    ok = verify_hom(m)
    rep = Report("verify-hom")
    rep.add("map", render_map(m))
    rep.add("field", _field_line(s.field))
    rep.add("verified", str(ok).lower())
    ident = landing_identity(m)
    if ident is not None:
        try:
            sampled = random_point_oracle(ident[0], ident[1], seed=args.seed,
                                          trials=args.trials)
        except UnsupportedRelationError:
            rep.add("oracle.result", "unsupported")
        else:
            rep.add("oracle.trials", args.trials)
            rep.add("oracle.result", "all-trials-vanish" if sampled else "nonzero-point-found")
            rep.add("oracle.agrees", str(sampled == ok).lower())
    rep.emit()
    return EXIT_VERIFIED if ok else EXIT_REFUTED


def _derive(s, args):
    """The constraint system of `derive`/`solve`: the CLI reads each --cap as
    a source variable name and an integer, and derive checks the caps."""
    from .homs import derive_hom_constraints
    src = s.group_or_line(args.source)
    tgt = s.group_or_line(args.target)
    caps = {}
    for item in args.cap or ():
        var, _, val = item.partition("=")
        if var not in src.vars:
            raise ParseError(f"cap for unknown variable {var!r}")
        i = src.vars.index(var)
        if i in caps:
            raise ParseError(f"cap for variable {var!r} is given twice")
        try:
            caps[i] = int(val)
        except ValueError:
            raise ParseError(f"cap {item!r} is not VAR=<integer>") from None
    try:
        return src, tgt, derive_hom_constraints(src, tgt, caps=caps or None)
    except ValueError as exc:  # a line source, or a cap derive refuses
        raise ParseError(str(exc)) from None


def cmd_derive(args):
    src, tgt, cs = _derive(_load(args.file), args)
    rep = Report("derive")
    rep.add("source", render_group(src))
    rep.add("target", "Ga" if isinstance(tgt, AffineLine) else render_group(tgt))
    rep.add("unknowns", ", ".join(cs.ring.names))
    rep.add("constraints", len(cs.constraints))
    for (i, e), p in cs.constraints:
        rep.add(f"constraint.{src.vars[i]}.{e}", render_poly(p.to_poly(), cs.ring.names))
    rep.emit()
    return EXIT_VERIFIED


_DOMAINS = {"fq": 0, "deg1": 1, "deg2": 2}


def _domain_elems(field, name):
    import itertools
    deg = _DOMAINS[name]
    out = []
    for coeffs in itertools.product(range(field.spec.q), repeat=deg + 1):
        out.append(field.elem(coeffs))
    return sorted(set(out), key=lambda x: (x.den, x.num))


def cmd_solve(args):
    from .homs import EnumerationBudgetError, solve_homs_bounded
    s = _load(args.file)
    src, tgt, cs = _derive(s, args)
    domain = _domain_elems(s.field, args.domain)
    try:
        sols = solve_homs_bounded(cs, domain)
    except EnumerationBudgetError as exc:
        raise ParseError(str(exc)) from None
    rep = Report("solve")
    rep.add("source", render_group(src))
    rep.add("target", "Ga" if isinstance(tgt, AffineLine) else render_group(tgt))
    rep.add("domain", args.domain)
    rep.add("domain.size", len(domain))
    rep.add("completeness", "complete within bound")
    rep.add("solutions", len(sols))
    for i, sol in enumerate(sols):
        rep.add(f"solution.{i}", render_map(sol.map))
    rep.emit()
    return EXIT_VERIFIED


def cmd_check_extension(args):
    s = _load(args.file)
    if args.extension not in s.extensions:
        raise ParseError(f"unknown extension {args.extension!r}")
    ext = s.extensions[args.extension]
    rep = Report("check-extension")
    rep.add("extension", render_extension(ext))
    r = check_group_axioms(ext)
    rep.add("lands_in_center", str(r.lands_in_center).lower())
    rep.add("biadditive", str(r.biadditive).lower())
    rep.add("alternating", str(is_alternating(ext)).lower())
    for name, ok in r.axioms:
        rep.add(f"axiom.{name}", "pass" if ok else "fail")
    rep.add("commutative", str(r.commutative).lower())
    rep.emit()
    return EXIT_VERIFIED if r.all_pass else EXIT_REFUTED


def cmd_twist(args):
    from .homs import relative_frobenius, verify_hom
    s = _load(args.file)
    g = _group(s, args.group)
    # the twist raises variables and coefficients (a = b^(p^depth)) to p^n
    top = max([s.field.spec.depth] + [e for _, e in g.f.terms])
    check_ppower(s.field.p, args.n + top, "twisted exponent")
    tw = twist_group(g, args.n)
    m = relative_frobenius(g, args.n)
    rep = Report("twist")
    rep.add("group", render_group(g))
    rep.add("n", args.n)
    rep.add("twisted", render_group(tw))
    _classify_into(rep, tw)
    rep.add("relative_frobenius", render_map(m))
    rep.add("relative_frobenius.hom", str(verify_hom(m)).lower())
    rep.emit()
    return EXIT_VERIFIED


def cmd_verify_iso(args):
    from .homs import verify_mutual_inverse
    s = _load(args.file)
    for name in (args.f, args.g):
        if name not in s.maps:
            raise ParseError(f"unknown map {name!r}")
    f, g = s.maps[args.f], s.maps[args.g]
    if not (f.target == g.source and g.target == f.source):
        raise ParseError(f"maps {args.f!r} and {args.g!r} do not compose in both orders")
    ok = verify_mutual_inverse(f, g)
    rep = Report("verify-iso")
    rep.add("f", render_map(f))
    rep.add("g", render_map(g))
    rep.add("mutually_inverse", str(ok).lower())
    rep.emit()
    return EXIT_VERIFIED if ok else EXIT_REFUTED


def cmd_selftest(args):
    from . import corpus
    p = args.p
    items = corpus.selftest_items(p, seed=args.seed, trials=args.trials)
    rep = Report("selftest-paper")
    rep.add("p", p)
    failures = 0
    for idx, (name, fn) in enumerate(items):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not a stack trace
            ok, detail = False, f"error: {exc}"
        if not ok:
            failures += 1
        key = f"item.{idx:02d}.{name}"
        rep.add(key, ("pass" if ok else "FAIL") + (f" ({detail})" if detail else ""))
    rep.add("items", len(items))
    rep.add("failures", failures)
    rep.add("selftest", "pass" if failures == 0 else "FAIL")
    rep.emit()
    return EXIT_VERIFIED if failures == 0 else EXIT_REFUTED


def _at_least(low):
    """An argparse type: an integer >= low, or a usage error."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"{n} is below {low}")
        return n
    return parse


def _corpus_prime(text):
    """An argparse type for selftest-paper: a prime p that passes
    corpus.check_corpus_degree, or a usage error."""
    from . import corpus
    p = _at_least(2)(text)
    try:
        corpus.check_corpus_degree(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return p


def _command(sub, name, fn, summary, *positionals, needs=()):
    """A subcommand run by fn, which imports the modules named in needs."""
    sp = sub.add_parser(name, help=summary)
    for arg in positionals:
        sp.add_argument(arg)
    sp.set_defaults(fn=fn, needs=needs)
    return sp


def _add_oracle(sp):
    sp.add_argument("--trials", type=_at_least(1), default=100,
                    help="randomized oracle trials (default 100)")
    sp.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")


def main(argv=None):
    ap = _ArgumentParser(prog="woundcheck",
                         description="certificates for additive-polynomial groups")
    sub = ap.add_subparsers(dest="cmd", required=True)

    _command(sub, "classify", cmd_classify, "smooth/connected/wound report", "file", "group")

    sp = _command(sub, "reduce", cmd_reduce,
                  "division with remainder against a pivoted p-polynomial", "file")
    sp.add_argument("h", help="dividend p-polynomial")
    sp.add_argument("--group", help="take divisor and pivot from this group")
    sp.add_argument("--f", help="divisor p-polynomial")
    sp.add_argument("--pivot", help="pivot variable for --f")
    sp.add_argument("--vars", help="comma-separated variables for --f")

    sp = _command(sub, "verify-hom", cmd_verify_hom, "check the landing condition of a map",
                  "file", "map", needs=("homs", "oracle"))
    _add_oracle(sp)

    sp = _command(sub, "derive", cmd_derive, "derive the homomorphism constraint system",
                  "file", "source", "target", needs=("homs",))
    sp.add_argument("--cap", action="append", metavar="VAR=N",
                    help="exponent cap N >= 0 for a source variable")

    sp = _command(sub, "solve", cmd_solve, "homomorphisms with coefficients in a finite "
                  "domain: the F_p-kernel over the domain's span, filtered to the domain",
                  "file", "source", "target", needs=("homs",))
    sp.add_argument("--domain", choices=sorted(_DOMAINS), default="fq")
    sp.add_argument("--cap", action="append", metavar="VAR=N")

    _command(sub, "check-extension", cmd_check_extension, "cocycle extension group axioms",
             "file", "extension")

    sp = _command(sub, "twist", cmd_twist, "Frobenius twist and relative Frobenius",
                  "file", "group", needs=("homs",))
    sp.add_argument("n", type=_at_least(0))

    _command(sub, "verify-iso", cmd_verify_iso, "check mutually inverse homomorphisms",
             "file", "f", "g", needs=("homs",))

    sp = _command(sub, "selftest-paper", cmd_selftest,
                  "replay the built-in worked-example corpus", needs=("corpus", "oracle"))
    sp.add_argument("p", type=_corpus_prime, help=f"a prime p with p^2 <= {MAX_PPOWER}")
    _add_oracle(sp)

    t0 = None
    try:
        args = ap.parse_args(argv)
        # elapsed_ms times the command, not the compile of its modules
        for module in args.needs:
            import_module(f"{__package__}.{module}")
        t0 = time.perf_counter()
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if t0 is not None:
            elapsed = (time.perf_counter() - t0) * 1000.0
            print(f"elapsed_ms: {elapsed:.1f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
