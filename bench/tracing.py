"""Spans around the package's public functions, patched in from outside.

The package imports by name (`from .ring_snf import snf_over_R`), so a
function is replaced wherever a module binds it, not only where it is
defined: `pipeline.snf_over_R`, `ring_snf.field_rank`,
`cli.check_regularity` and so on.  Spans live in memory as
[id, parent id, name, job, start, end] and are written out by the caller
when the run ends.  Self time is a span's duration minus the time of its
direct children; time in helpers that are not wrapped counts as self time
of the nearest wrapped caller.
"""

import inspect
import sys
import time
from functools import wraps

LAYERS = ("cli", "jsonio", "actions", "transfer", "pipeline", "groupring",
          "ring_snf", "exact", "simplicial", "checks")

# Called once per scalar, polynomial or simplex operation: wrapping them
# would cost more than the work they do and bury the layer boundaries.
LEAF_HELPERS = frozenset({
    "exact.GF", "exact.parse_field", "exact.poly_str", "exact.parse_poly",
    "exact.poly_gcd", "exact.poly_xgcd",
    "simplicial.as_simplex", "simplicial.faces", "simplicial.default_orientation",
    "actions.coset_ordering", "actions.coset_position",
    "groupring.sigma", "groupring.rho",
    "jsonio.simplex_key", "jsonio.parse_simplex_key",
})

# Methods are wrapped only where a layer boundary sits on one.
METHODS = (("transfer", "IsotropyTriple", "validate"),)

# exact.field_rank is split by the layer that called it.
FIELD_RANK_CALLER = {"ring_snf": "cert", "simplicial": "oracle", "cli": "oracle",
                     "checks": "checks"}


def _public_functions(module, layer):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == module.__name__
                and f"{layer}.{name}" not in LEAF_HELPERS):
            yield name, obj


class Tracer:
    """Install with `install(package)`, run jobs with `job` set, then
    `uninstall()` and read `spans`.

    `observe` maps a span name to a function called with each result of
    that function, for counts taken at the same boundary as the span.
    """

    def __init__(self, observe=None):
        self.spans = []
        self.job = None
        self.observe = observe or {}
        self.wrapped = set()    # span names of every function wrapped
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self.observe.get(name)
        self.wrapped.add(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, self.job,
                   time.perf_counter(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS
                   if f"{package}.{layer}" in sys.modules}
        wrapped = {}            # id(original) -> wrapper
        for layer, module in modules.items():
            for name, fn in _public_functions(module, layer):
                wrapped[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            if cls is not None and meth in vars(cls):
                self._undo.append((cls, meth, vars(cls)[meth], setattr))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        rebinding = [m for name, m in sys.modules.items()
                     if name == package or name.startswith(package + ".")]
        for module in rebinding:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._undo.append((module, attr, value, setattr))
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    # dispatch tables, e.g. the CLI's command -> function map
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._undo.append((value, key, item, dict.__setitem__))
                            value[key] = wrapped[id(item)]

    def uninstall(self):
        for target, attr, original, put in reversed(self._undo):
            put(target, attr, original)
        self._undo.clear()


def reported_names(name):
    """Names under which summarize() reports the spans of function `name`."""
    if name == "exact.field_rank":
        return [f"{name}.{c}" for c in sorted(set(FIELD_RANK_CALLER.values()) | {"other"})]
    return [name]


def _span_name(spans, rec):
    """Reporting name: field_rank gets a suffix naming its caller's layer."""
    name = rec[2]
    if name == "exact.field_rank":
        parent = spans[rec[1]][2].split(".")[0] if rec[1] is not None else "top"
        return f"{name}.{FIELD_RANK_CALLER.get(parent, 'other')}"
    return name


def summarize(spans):
    """Per reporting name: calls, total_s (outermost spans only, so that
    recursion is not counted twice) and self_s; plus per job, self time
    per layer and per function."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[1] is not None:
            child_time[rec[1]] += rec[5] - rec[4]
    funcs, jobs = {}, {}
    for rec in spans:
        name = _span_name(spans, rec)
        dur = rec[5] - rec[4]
        own = dur - child_time[rec[0]]
        f = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["self_s"] += own
        parent, nested = rec[1], False
        while parent is not None:
            if spans[parent][2] == rec[2]:
                nested = True
                break
            parent = spans[parent][1]
        if not nested:
            f["total_s"] += dur
        j = jobs.setdefault(rec[3], {"layers": {}, "funcs": {}})
        layer = name.split(".")[0]
        j["layers"][layer] = j["layers"].get(layer, 0.0) + own
        j["funcs"][name] = j["funcs"].get(name, 0.0) + own
    return funcs, jobs
