"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public module-level functions of each fano212
module (the layers) and patches every name that refers to them: the module
itself, every other loaded module that imported the function, and the
entries of module-level dicts that hold it (the command table of `cli`).  A wrapped
call records a span (name, start, end, parent span, self time) in memory.
`Cyclotomic.__mul__`, `Cyclotomic.inverse` and `cyclotomic_coeffs` run far
too often for one span each: they only add to aggregate counters.  The time
of an aggregate call still counts as child time of the enclosing span, so a
span's self time is its duration minus the time of everything it called that
was traced.

Per-term helpers (monomial arithmetic, leading terms, `cyc`, ...) are left
unwrapped: a span per monomial would multiply the run time and hide the
layers it is meant to show.  Their time counts as the caller's self time.

Spans stay in memory until `write_spans`, after the run.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "instancefile", "action", "characters", "cohomology", "model",
          "groebner", "multipoly", "linalg", "cyclotomic")

# per-term helpers, called once per monomial or coefficient
HOT_HELPERS = {
    "groebner": {"grevlex_key", "monomial_divides", "monomial_div", "monomial_mul",
                 "monomial_lcm", "leading_term", "qp_trim", "qp_add",
                 "qp_shift_minus_one", "qp_binomial", "qp_eval"},
    "cyclotomic": {"euler_phi", "cyc", "root_of_unity", "as_power_of_root"},
    "linalg": {"mat", "proj_normalize", "proj_equal"},
}

# (module, attribute path) traced by aggregate counters only
AGGREGATES = {
    ("cyclotomic", "Cyclotomic.__mul__"): "cyclotomic.mul",
    ("cyclotomic", "Cyclotomic.inverse"): "cyclotomic.inverse",
    ("cyclotomic", "cyclotomic_coeffs"): "cyclotomic.phi_build",
}

ROOT = "bench.verdict"


class Tracer:
    def __init__(self):
        self.names = []          # span name of each id
        self._ids = {}
        # one entry per span, in start order
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self.self_s = []
        self.rational = {}       # buchberger span -> True when its input is rational
        self.aggregates = {}     # counter name -> [calls, self seconds]
        self.maxima = {"groebner.basis_len.max": 0, "multipoly.poly_det.max_n": 0,
                       "cyclotomic.max_phi": 0}
        self.generated = 0       # instances returned by the generators
        self.sampled = [0, 0]    # points returned, attempts made
        # frames of open calls: [span index or -1 for an aggregate, child time]
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span named `name`."""
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_s.append(0.0)
            if before is not None:
                before(index, args, kwargs)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = self.start[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[index] = t1
                self.self_s[index] = t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, name, fn, after=None):
        """Wrap fn so each call only adds to the counter `name`."""
        record = self.aggregates.setdefault(name, [0, 0.0])
        stack = self._stack

        def counted(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                record[0] += 1
                record[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(result)
            return result

        counted.__wrapped__ = fn
        return counted

    def verdict(self, fn):
        """Run one verdict under a root span."""
        return self.span(ROOT, fn)()

    # -- hooks for the counters that need arguments or results ----------------------

    def _buchberger_input(self, index, args, kwargs):
        gens = args[0] if args else kwargs.get("generators", ())
        self.rational[index] = all(
            c.is_rational() for g in gens for c in g.terms.values())

    def _basis_len(self, args, kwargs, result):
        key = "groebner.basis_len.max"
        self.maxima[key] = max(self.maxima[key], len(result))

    def _det_size(self, index, args, kwargs):
        rows = args[0] if args else kwargs.get("rows", ())
        key = "multipoly.poly_det.max_n"
        self.maxima[key] = max(self.maxima[key], len(rows))

    def _phi_degree(self, result):
        key = "cyclotomic.max_phi"
        self.maxima[key] = max(self.maxima[key], len(result) - 1)

    def _generated(self, args, kwargs, result):
        self.generated += 1

    def _sampler_attempts(self, default):
        def after(args, kwargs, result):
            self.sampled[0] += len(result)
            self.sampled[1] += kwargs.get("attempts", args[3] if len(args) > 3 else default)
        return after

    # -- installing ---------------------------------------------------------------

    def install(self, package: str = "fano212"):
        modules = {layer: sys.modules["%s.%s" % (package, layer)] for layer in LAYERS
                   if "%s.%s" % (package, layer) in sys.modules}
        replaced = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or attr in HOT_HELPERS.get(layer, ()):
                    continue
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap(layer, attr, obj)
                replaced[id(obj)] = (obj, wrapper)
        cyclotomic = getattr(modules.get("cyclotomic"), "Cyclotomic", None)
        for method in ("__mul__", "inverse") if cyclotomic else ():
            original = vars(cyclotomic).get(method)
            if original is None:
                continue
            wrapper = self.aggregate(AGGREGATES["cyclotomic", "Cyclotomic." + method],
                                     original)
            for attr, value in list(vars(cyclotomic).items()):
                if value is original:  # __rmul__ is __mul__
                    self._patch(cyclotomic, attr, wrapper)
        # patch every namespace, and every module-level dict, that holds a
        # wrapped function under any name
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, dict):
                    for key, entry in list(value.items()):
                        hit = replaced.get(id(entry))
                        if hit is not None and hit[0] is entry:
                            self._patch_item(value, key, hit[1])
                    continue
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _wrap(self, layer, attr, fn):
        key = (layer, attr)
        if key in AGGREGATES:
            after = self._phi_degree if attr == "cyclotomic_coeffs" else None
            return self.aggregate(AGGREGATES[key], fn, after)
        name = "%s.%s" % (layer, attr)
        before = after = None
        if name == "groebner.buchberger":
            before, after = self._buchberger_input, self._basis_len
        elif name == "multipoly.poly_det":
            before = self._det_size
        elif name in ("action.random_equivariant_model", "action.random_diagonal_model"):
            after = self._generated
        elif name == "model.sample_curve_points":
            param = inspect.signature(fn).parameters.get("attempts")
            after = self._sampler_attempts(param.default if param else 0)
        return self.span(name, fn, before, after)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, table, key, value):
        self._restore.append((table, key, table[key]))
        table[key] = value

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def _ancestor(self, index, wanted):
        """Nearest ancestor span (or the span itself) whose name id is in wanted."""
        while index >= 0 and self.name_of[index] not in wanted:
            index = self.parent[index]
        return index

    def metrics(self) -> dict:
        """The per-layer numbers, keyed by metric name (seconds or counts)."""
        ids = self._ids
        names = self.names
        verdicts = sum(1 for n in self.name_of if n == ids.get(ROOT))
        layer_self = {layer: 0.0 for layer in LAYERS}
        calls = {}
        for nid, s in zip(self.name_of, self.self_s):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += s

        def count(name):
            return calls.get(name, 0)

        def under(child, ancestors):
            """Spans named child with an ancestor among the named ones."""
            child_id = ids.get(child)
            wanted = {ids[a] for a in ancestors if a in ids}
            if child_id is None or not wanted:
                return 0
            return sum(1 for i, nid in enumerate(self.name_of)
                       if nid == child_id and self._ancestor(self.parent[i], wanted) >= 0)

        # groebner self time inside each buchberger call, split by domain
        domain = {"rational": 0.0, "cyclotomic": 0.0}
        bb = ids.get("groebner.buchberger")
        if bb is not None:
            for i, nid in enumerate(self.name_of):
                if not names[nid].startswith("groebner."):
                    continue
                top = self._ancestor(i, {bb})
                if top >= 0:
                    domain["rational" if self.rational[top] else "cyclotomic"] += self.self_s[i]

        generators = ("action.random_equivariant_model", "action.random_diagonal_model")
        drawn = under("model.determinantal_quartic", generators)
        agg = self.aggregates
        linalg = [n for n in calls if n.startswith("linalg.")]
        out = {
            "groebner.buchberger.calls": count("groebner.buchberger"),
            "groebner.buchberger.rational_s": domain["rational"],
            "groebner.buchberger.cyclotomic_s": domain["cyclotomic"],
            "groebner.basis_len.max": self.maxima["groebner.basis_len.max"],
            "groebner.self_s": layer_self["groebner"],
            "cyclotomic.inverse.calls": agg.get("cyclotomic.inverse", [0, 0.0])[0],
            "cyclotomic.inverse.self_s": agg.get("cyclotomic.inverse", [0, 0.0])[1],
            "cyclotomic.phi_build_s": agg.get("cyclotomic.phi_build", [0, 0.0])[1],
            "cyclotomic.max_phi": self.maxima["cyclotomic.max_phi"],
            "cyclotomic.mul.calls": agg.get("cyclotomic.mul", [0, 0.0])[0],
            "cyclotomic.mul.self_s": agg.get("cyclotomic.mul", [0, 0.0])[1],
            "multipoly.poly_det.calls": count("multipoly.poly_det"),
            "multipoly.poly_det.self_s": sum(
                s for nid, s in zip(self.name_of, self.self_s)
                if names[nid] == "multipoly.poly_det"),
            "multipoly.poly_det.max_n": self.maxima["multipoly.poly_det.max_n"],
            "linalg.calls": sum(calls[n] for n in linalg),
            "linalg.self_s": layer_self["linalg"],
            "model.self_s": layer_self["model"],
            "model.charts_per_verdict": (
                under("groebner.is_unit_ideal", ["model.full_smoothness"]) / verdicts
                if verdicts else 0.0),
            "model.sampler.hit_ratio": (
                self.sampled[0] / self.sampled[1] if self.sampled[1] else 0.0),
            "action.self_s": layer_self["action"],
            "action.generate.accept_ratio": self.generated / drawn if drawn else 0.0,
            "cli.calls": count("cli.main"),
            "cli.self_s": layer_self["cli"],
            "instancefile.self_s": layer_self["instancefile"],
            "characters.self_s": layer_self["characters"],
            "cohomology.self_s": layer_self["cohomology"],
        }
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as `name start end parent self` lines (gzip)."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\tself_s\n")
            for i, nid in enumerate(self.name_of):
                handle.write("%s\t%.6f\t%.6f\t%d\t%.6f\n" % (
                    self.names[nid], self.start[i] - t0, self.end[i] - t0,
                    self.parent[i], self.self_s[i]))
        return len(self.name_of)
