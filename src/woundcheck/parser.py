"""Text grammar for elements, p-polynomials and general polynomials.

Field elements serialize as ``<poly in gen>/<poly in gen>`` with the
denominator omitted when it is 1.  Integer literals are reduced mod p when
e = 1; when e > 1 they are F_q digit codes below q (the base-p digits of n
are its coordinates in the basis of ``gfq``), and larger ones are errors.
Inside a tower of depth m the working generator is printed in terms of the
named generator: ``a``, ``a^3``, ``a^(1/p^2)``, ``a^(5/p^1)`` and so on.

p-polynomials are sums of ``<coef>*<VAR>^(p^<e>)`` in canonical (variable,
exponent) order; general polynomials are sums of ``<coef>*V1^n1*V2^n2``
in descending graded-lex order.  Parsing accepts any term order, bare
variables (meaning exponent p^0 resp. 1), and parenthesized coefficients,
so every rendered form round-trips.
"""

import re

from . import fqpoly as fq
from .field import FieldElem
from .polyring import Poly, _add_terms, grlex_key
from .ppoly import PPoly

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)"
                       r"|(?P<op>->|[-+*/^(),:;=]))")


class ParseError(ValueError):
    pass


# Elements are dense in the working generator b, and a = b^(p^depth), so a
# tower depth or a p-power exponent e of a variable scales degrees in b by
# p^e; inputs may scale them by at most this much.
MAX_PPOWER = 4096


def check_ppower(p, e, what):
    """ParseError unless p^e <= MAX_PPOWER (p >= 2, so a large e is
    refused before p^e is formed)."""
    if e >= MAX_PPOWER.bit_length() or p ** e > MAX_PPOWER:
        raise ParseError(f"{what} p^{e} exceeds the supported degree scale {MAX_PPOWER}")


def tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"bad character at {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


class _Stream:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("end", None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def accept(self, kind, value=None):
        k, v = self.peek()
        if k == kind and (value is None or v == value):
            self.i += 1
            return v
        return None

    def expect(self, kind, value=None):
        v = self.accept(kind, value)
        if v is None:
            raise ParseError(f"expected {value or kind}, got {self.peek()!r}")
        return v

    def done(self):
        return self.i >= len(self.toks)


# ---------------------------------------------------------------------------
# field elements


def _gen_power(field, stream):
    """A factor `a`, `a^k`, or `a^(u/p^j)` as a FieldElem."""
    spec = field.spec
    stream.expect("name", spec.gen)
    scale = field.p ** spec.depth  # b-exponent of a itself
    if not stream.accept("op", "^"):
        return field.elem(fq.shift(fq.ONE, scale))
    if stream.accept("op", "("):
        u = stream.expect("int")
        stream.expect("op", "/")
        stream.expect("name", "p")
        j = stream.expect("int") if stream.accept("op", "^") else 1
        stream.expect("op", ")")
        if j > spec.depth:
            raise ParseError(f"{spec.gen}^({u}/p^{j}) needs tower depth >= {j}")
        return field.elem(fq.shift(fq.ONE, u * field.p ** (spec.depth - j)))
    k = stream.expect("int")
    return field.elem(fq.shift(fq.ONE, k * scale))


def _literal(field, n):
    """An integer literal: reduced mod p when e = 1, else the F_q digit code."""
    spec = field.spec
    if spec.e == 1:
        return field.from_int(n)
    if n >= spec.q:
        raise ParseError(f"literal {n} is not an F_{spec.q} digit code (below {spec.q})")
    return field.elem((n,) if n else ())


def _param_power(ring, name, e):
    x = ring.param(name)
    acc = ring.one()
    for _ in range(e):
        acc = acc * x
    return acc


def _term(field, ring, stream, var=None):
    """One product of factors, as (variable factors, coefficient).

    A factor is, in this order of precedence: an integer literal, a
    parenthesized coefficient, a variable (when var(stream) consumes one and
    returns it), a generator power, or a power of a parameter of ring.
    """
    acc = ring.one() if ring is not None else field.one()
    factors = []
    first = True
    while True:
        kind, val = stream.peek()
        if kind == "int":
            stream.next()
            acc = acc * _literal(field, val)
        elif kind == "op" and val == "(":
            stream.next()
            acc = acc * _coef(field, ring, stream)
            stream.expect("op", ")")
        elif kind == "name" and var is not None and (v := var(stream)) is not None:
            factors.append(v)
        elif kind == "name" and val == field.spec.gen:
            acc = acc * _gen_power(field, stream)
        elif kind == "name" and ring is not None and val in ring.names:
            stream.next()
            e = stream.expect("int") if stream.accept("op", "^") else 1
            acc = acc * _param_power(ring, val, e)
        else:
            if first:
                raise ParseError(f"unexpected token {stream.peek()!r}")
            break
        first = False
        if not stream.accept("op", "*"):
            break
    return factors, acc


def _sum(stream, term):
    """The terms of `[-] t {(+|-) t}` as (key, signed coefficient) pairs;
    term() reads one t as (key, coefficient)."""
    out = []
    neg = stream.accept("op", "-") is not None
    while True:
        key, c = term()
        out.append((key, -c if neg else c))
        if stream.accept("op", "+"):
            neg = False
        elif stream.accept("op", "-"):
            neg = True
        else:
            return out


def _scalar_sum(field, ring, stream):
    coefs = [c for _, c in _sum(stream, lambda: _term(field, ring, stream))]
    return sum(coefs[1:], coefs[0])


def _coef(field, ring, stream):
    """A sum of scalar terms with an optional `/<sum>`, as one coefficient."""
    acc = _scalar_sum(field, ring, stream)
    if stream.accept("op", "/"):
        den = _scalar_sum(field, None, stream)
        if den.is_zero():
            raise ParseError("zero denominator")
        acc = acc * den.inverse()
    return acc


def _done(stream, value):
    if not stream.done():
        raise ParseError(f"trailing input at {stream.peek()!r}")
    return value


def parse_element(field, text):
    """Parse `<poly in gen>` or `<poly in gen>/<poly in gen>`."""
    stream = _Stream(tokenize(text))
    return _done(stream, _coef(field, None, stream))


def render_elem(x):
    num = _render_gen_poly(x.field, x.num)
    if x.den == fq.ONE:
        return num
    den = _render_gen_poly(x.field, x.den)
    if "+" in num:
        num = f"({num})"
    if "+" in den:
        den = f"({den})"
    return f"{num}/{den}"


def _render_gen_exp(field, i):
    """The printed form of b^i in terms of the named generator."""
    spec = field.spec
    u, j = i, spec.depth
    while j > 0 and u % field.p == 0:
        u //= field.p
        j -= 1
    if j == 0:
        return spec.gen if u == 1 else f"{spec.gen}^{u}"
    return f"{spec.gen}^({u}/p^{j})"


def _render_gen_poly(field, coeffs):
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(_render_gen_exp(field, i))
        else:
            parts.append(f"{c}*{_render_gen_exp(field, i)}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# p-polynomials


def parse_ppoly(text, dom, var_names):
    """Parse a p-polynomial over the given coefficient domain.

    dom is a Field or a ParamRing; var_names maps names to variable slots.
    """
    from .params import ParamRing

    ring = dom if isinstance(dom, ParamRing) else None
    field = ring.base if ring is not None else dom
    nvars = len(var_names)
    index = {n: i for i, n in enumerate(var_names)}
    stream = _Stream(tokenize(text))
    if stream.toks == [("int", 0)]:
        return PPoly.zero(dom, nvars)

    def var(stream):
        """`V`, `V^(p)` or `V^(p^e)`: the slot (variable, e)."""
        name = stream.peek()[1]
        if name not in index:
            return None
        stream.next()
        e = 0
        if stream.accept("op", "^"):
            stream.expect("op", "(")
            stream.expect("name", "p")
            e = stream.expect("int") if stream.accept("op", "^") else 1
            stream.expect("op", ")")
            check_ppower(field.p, e, "exponent")
        return index[name], e

    def term():
        slots, coef = _term(field, ring, stream, var)
        if not slots:
            raise ParseError("p-polynomial term lacks a variable")
        if len(slots) > 1:
            raise ParseError("two variables in one p-polynomial term")
        return slots[0], coef

    terms = _add_terms({}, _sum(stream, term))
    return _done(stream, PPoly(dom, nvars, terms))


def render_coef(c):
    if isinstance(c, FieldElem):
        s = render_elem(c)
        if "+" in s or "-" in s or "/" in s:
            return f"({s})"
        return s
    return f"({render_poly(c.poly, c.ring.names)})"


def render_ppoly(f, var_names=None):
    if not f.terms:
        return "0"
    if var_names is None:
        var_names = [f"X{i}" for i in range(f.nvars)]
    parts = []
    for (i, e), c in f.sorted_terms():
        parts.append(f"{render_coef(c)}*{var_names[i]}^(p^{e})")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# general polynomials


def parse_poly(text, field, var_names):
    nvars = len(var_names)
    index = {n: i for i, n in enumerate(var_names)}
    stream = _Stream(tokenize(text))

    def var(stream):
        """`V` or `V^n`: the exponent vector of the factor."""
        name = stream.peek()[1]
        if name not in index:
            return None
        stream.next()
        exps = [0] * nvars
        exps[index[name]] = stream.expect("int") if stream.accept("op", "^") else 1
        return exps

    def term():
        powers, coef = _term(field, None, stream, var)
        return tuple(map(sum, zip([0] * nvars, *powers))), coef

    terms = _add_terms({}, _sum(stream, term))
    return _done(stream, Poly._raw(field, nvars, terms))


def render_poly(f, var_names=None):
    if f.is_zero():
        return "0"
    if var_names is None:
        var_names = [f"X{i}" for i in range(f.nvars)]
    parts = []
    for m, c in sorted(f.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        factors = [render_coef(c)]
        for i, e in enumerate(m):
            if e == 1:
                factors.append(var_names[i])
            elif e:
                factors.append(f"{var_names[i]}^{e}")
        if len(factors) > 1 and factors[0] == "1":
            factors = factors[1:]
        parts.append("*".join(factors))
    return " + ".join(parts)
