"""Line-oriented input files: field, params, relations, groups, extensions,
maps.

A file declares exactly one field; every later object shares it.  Names
live in one namespace ("Ga" is reserved for the affine line).  Statements:

    field p=3 e=1 gen=a depth=0
    params d,e
    relation pivot=d : 1*d^(p^2) + 2*d^(p^0) + a*e^(p^1)
    group Wa vars=X,Y pivot=X : 1*X^(p^0) + 1*X^(p^1) + a*Y^(p^1)
    extension Ua center=Wa base=Va : h1 = <poly> ; h2 = <poly>
    map phi from=Va to=U : X -> <p-poly> ; Y -> <p-poly>

`#` starts a comment; blank lines are ignored.  Extension cocycles are
polynomials in the base group's variables and their primed copies.  A map
names each target variable once and an extension each center coordinate
h1..hn once; a name outside those, a repeated one or a missing one is
refused.  A statement that the parser or an object's constructor refuses
raises one ParseError that names its line.
"""

import re

from .field import Field, FieldSpec
from .groups import AffineLine, CocycleExtension, HypersurfaceGroup
from .homs import PPolyMap
from .params import ParamRing
from .parser import ParseError, check_ppower, parse_poly, parse_ppoly


class Session:
    def __init__(self):
        self.field = None
        self.param_names = ()
        self.param_relations = []   # (ppoly over param space, pivot index)
        self._ring = None
        self.groups = {}
        self.extensions = {}
        self.maps = {}
        self._names = set()

    @property
    def ring(self):
        if self._ring is None and self.param_names:
            self._ring = ParamRing(self.field, self.param_names, self.param_relations)
        return self._ring

    def group_or_line(self, name):
        if name == "Ga":
            return AffineLine()
        if name in self.groups:
            return self.groups[name]
        raise ParseError(f"unknown group {name!r}")

    def _claim(self, name):
        if name == "Ga" or name in self._names:
            raise ParseError(f"name {name!r} already in use")
        self._names.add(name)


_KV_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(\S+)")


def _kvs(text):
    return dict(_KV_RE.findall(text))


def _header(head, *keys):
    """The key=value pairs of a statement header, with its name (the first
    word after the kind) under "name"; ParseError if one of keys is missing."""
    kind, *words = [w for w in head.split() if "=" not in w]
    kv = _kvs(head)
    if words:
        kv["name"] = words[0]
    missing = [k for k in keys if k not in kv]
    if missing:
        raise ParseError(f"{kind} statement lacks {', '.join(missing)}")
    return kv


def parse_session(text):
    s = Session()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _statement(s, line)
        except ValueError as exc:  # a ParseError, or a constructor refusing the input
            raise ParseError(f"line {lineno}: {exc}") from None
    if s.field is None:
        raise ParseError("no field statement")
    return s


def _require_field(s):
    if s.field is None:
        raise ParseError("field must be declared first")


def _components(tail, sep, keys, what):
    """{key: text} for the `key sep text` pieces of a statement body split at
    `;`; ParseError for a key outside keys, a repeated key or a missing one."""
    out = {}
    for piece in tail.split(";"):
        lhs, _, rhs = piece.partition(sep)
        key = lhs.strip()
        if key not in keys:
            raise ParseError(f"{what} {key!r} is not one of {', '.join(keys)}")
        if key in out:
            raise ParseError(f"{what} {key!r} is given twice")
        out[key] = rhs.strip()
    missing = [k for k in keys if k not in out]
    if missing:
        raise ParseError(f"missing {what} {missing[0]!r}")
    return out


def _statement(s, line):
    head, _, tail = line.partition(":")
    head = head.strip()
    tail = tail.strip()
    kind = head.split()[0] if head else ""
    if kind == "field":
        if s.field is not None:
            raise ParseError("duplicate field statement")
        kv = _kvs(head)
        spec = FieldSpec(int(kv.get("p", "0")), int(kv.get("e", "1")),
                         kv.get("gen", "a"), int(kv.get("depth", "0")))
        check_ppower(spec.p, spec.depth, "tower depth")
        s.field = Field(spec)  # a table-based F_q refuses a large q
    elif kind == "params":
        _require_field(s)
        names = head[len(kind):].replace(" ", "")
        s.param_names = tuple(n for n in names.split(",") if n)
        for n in s.param_names:
            s._claim(n)
        s._ring = None
    elif kind == "relation":
        _require_field(s)
        kv = _header(head, "pivot")
        if kv["pivot"] not in s.param_names:
            raise ParseError(f"pivot {kv['pivot']!r} is not a declared parameter")
        fp = parse_ppoly(tail, s.field, s.param_names)
        s.param_relations.append((fp, s.param_names.index(kv["pivot"])))
        s._ring = None
        s.ring  # compile now: validates the pivot
    elif kind == "group":
        _require_field(s)
        kv = _header(head, "name", "vars", "pivot")
        name = kv["name"]
        vars_ = tuple(kv["vars"].split(","))
        pivot = kv["pivot"]
        if pivot not in vars_:
            raise ParseError(f"pivot {pivot!r} not among vars")
        f = parse_ppoly(tail, s.field, vars_)
        s._claim(name)
        s.groups[name] = HypersurfaceGroup(name, vars_, f, vars_.index(pivot))
    elif kind == "extension":
        _require_field(s)
        kv = _header(head, "name", "center", "base")
        name = kv["name"]
        center = s.group_or_line(kv["center"])
        base = s.group_or_line(kv["base"])
        keys = tuple(f"h{i + 1}" for i in range(center.nvars))
        comps = _components(tail, "=", keys, "extension component")
        hvars = base.vars + tuple(v + "'" for v in base.vars)
        h = tuple(parse_poly(comps[k], s.field, hvars) for k in keys)
        s._claim(name)
        s.extensions[name] = CocycleExtension(name, center, base, h)
    elif kind == "map":
        _require_field(s)
        kv = _header(head, "name", "from", "to")
        name = kv["name"]
        src = s.group_or_line(kv["from"])
        tgt = s.group_or_line(kv["to"])
        dom = s.ring if s.param_names else s.field
        coords = _components(tail, "->", tgt.vars, "map coordinate")
        ordered = tuple(parse_ppoly(coords[v], dom, src.vars) for v in tgt.vars)
        s._claim(name)
        s.maps[name] = PPolyMap(name, src, tgt, ordered, s.ring if s.param_names else None)
    else:
        raise ParseError(f"unknown statement {kind!r}")


def render_group(g):
    from .parser import render_ppoly
    vars_ = ",".join(g.vars)
    return (f"group {g.name} vars={vars_} pivot={g.vars[g.pivot]} : "
            f"{render_ppoly(g.f, g.vars)}")


def render_map(m):
    from .parser import render_ppoly
    body = " ; ".join(f"{v} -> {render_ppoly(c, m.source.vars)}"
                      for v, c in zip(m.target.vars, m.coords))
    return f"map {m.name} from={m.source.name} to={m.target.name} : {body}"


def render_extension(e):
    from .parser import render_poly
    hvars = e.base.vars + tuple(v + "'" for v in e.base.vars)
    body = " ; ".join(f"h{i + 1} = {render_poly(c, hvars)}" for i, c in enumerate(e.h))
    return (f"extension {e.name} center={e.center.name} base={e.base.name} : {body}")
