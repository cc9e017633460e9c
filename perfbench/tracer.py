"""Outside-in tracer for the woundcheck layers.

The tracer wraps, from outside the package, every public module function
and every public method (plus the arithmetic dunders and ``__init__``) of
the classes defined in each layer module.  Names that other modules bound
with ``from ... import`` are rebound to the wrapper too, so a call made
through ``homs.reduce_mod`` is seen exactly like one made through
``ppoly.reduce_mod``.  ``uninstall`` puts every original back.

Each wrapped call pushes a frame; on return its duration is charged to the
function, and the parent frame is told how much of its own interval the
child covered, so self time is duration minus the time covered by wrapped
children.  The low layers (``gfq``, ``fqpoly``, ``field``) are only
aggregated per function: they make millions of calls per run.  For the
other layers a span (name, start, end, parent span) is kept in memory for
every call that enters the layer from a different layer or from the
benchmark; calls that stay inside a layer are folded into the entering
span's self time.  A function that a later version of the package drops
is simply never called and reads as zero.
"""

import inspect
from time import perf_counter

LAYERS = ("gfq", "fqpoly", "field", "ppoly", "polyring", "params",
          "zerocert", "oracle", "groups", "homs")
AGGREGATED = frozenset(("gfq", "fqpoly", "field"))

# dunders that carry arithmetic or normalization work
_DUNDERS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__neg__", "__pow__",
))
FIELD_ARITH = tuple(f"field.FieldElem.{name}" for name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"))
MAX_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Install with ``install(modules)``; read ``stats``, ``counters`` and
    ``spans``; always ``uninstall()`` afterwards."""

    def __init__(self):
        self.stats = {}          # "layer.Qual.name" -> Stat
        self.counters = {}       # derived counts (stages, steps, trials, ...)
        self.spans = []          # (name, start, end, parent index or -1)
        self.dropped_spans = 0
        self._stack = []         # frames: [key, start, child_s, span index]
        self._restore = []       # (owner, attribute, original)
        self.active = True       # False: wrappers call straight through

    # -- public API -------------------------------------------------------

    def install(self, modules):
        """Wrap the layer modules given as {layer name: module}; ``modules``
        may also carry non-layer modules whose imported names need
        rebinding."""
        originals = {}
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, name, obj)
                self._set(mod, name, wrapper)
                originals[id(obj)] = (obj, wrapper)
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for mname, raw in list(vars(cls).items()):
                    if mname.startswith("_") and mname not in _DUNDERS:
                        continue
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(layer, f"{cname}.{mname}", raw.__func__))
                    elif isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(layer, f"{cname}.{mname}", raw.__func__))
                    elif inspect.isfunction(raw):
                        wrapped = self._wrap(layer, f"{cname}.{mname}", raw)
                    else:
                        continue
                    self._set(cls, mname, wrapped)
        # rebind names imported with ``from ... import`` elsewhere
        for mod in {m for m in modules.values() if m is not None}:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def begin(self, name):
        """Open the span of one op; returns the depth to pass to ``end``."""
        depth = len(self._stack)
        self._stack.append([name, perf_counter(), 0.0, self._span(name, -1)])
        return depth

    def end(self, depth):
        # an op interrupted by the time limit may leave frames whose
        # finally clause never ran
        del self._stack[depth + 1:]
        key, start, _, span = self._stack.pop()
        if span >= 0:
            self.spans[span] = (key, start, perf_counter(), -1)

    def layer_self_s(self, layer):
        pre = layer + "."
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(pre))

    def layer_calls(self, layer):
        pre = layer + "."
        return sum(s.calls for k, s in self.stats.items() if k.startswith(pre))

    def calls(self, key):
        s = self.stats.get(key)
        return s.calls if s else 0

    def self_s(self, key):
        s = self.stats.get(key)
        return s.self_s if s else 0.0

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- wrapping -----------------------------------------------------------

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _span(self, key, parent):
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return -1
        self.spans.append((key, 0.0, 0.0, parent))
        return len(self.spans) - 1

    def _wrap(self, layer, qualname, fn):
        key = f"{layer}.{qualname}"
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        pre, post = self._hooks(key)
        spans_on = layer not in AGGREGATED
        layer_dot = layer + "."

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            span = -1
            if spans_on:
                parent = stack[-1] if stack else None
                if parent is None or not parent[0].startswith(layer_dot):
                    span = self._span(key, parent[3] if parent else -1)
            frame = [key, perf_counter(), 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - frame[1]
                stat.calls += 1
                stat.self_s += elapsed - frame[2]
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                if span >= 0:
                    self.spans[span] = (key, frame[1], end, self.spans[span][3])
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self, key):
        """Per-function counters that need the arguments or the result."""
        count = self.count
        stack = self._stack
        if key == "fqpoly.mul":
            def pre(args):
                count("fqpoly.mul.operand_len", len(args[1]) + len(args[2]))
            return pre, None
        if key in FIELD_ARITH:
            def pre(args):
                a, b = args[0], args[1]
                if len(a.den) > 1 or len(getattr(b, "den", ())) > 1:
                    count("field.arith.with_den")
            return pre, None
        if key == "zerocert.decide_no_nontrivial_zero":
            def post(result):
                count(f"zerocert.stage.{result.stage}")
                if result.verdict == "unknown":
                    count("zerocert.unknown")
            return None, post
        if key == "ppoly.reduce_mod":
            def post(result):
                count("ppoly.reduce_mod.steps", len(result.steps))
            return None, post
        if key == "homs.solve_homs_bounded":
            def post(result):
                count("homs.solutions", len(result))
            return None, post
        if key == "oracle.random_point_oracle":
            def post(result):
                if result is False:
                    count("oracle.refuted")
            return None, post
        if key == "polyring.Poly.evaluate":
            # each oracle trial evaluates the identity exactly once
            def pre(args):
                if stack and stack[-1][0] == "oracle.random_point_oracle":
                    count("oracle.trials")
            return pre, None
        return None, None
