"""Span tracing of vpequil's layers from outside the package, and the
per-layer metrics computed from the spans.

``Tracer.install`` wraps every public function of the layer modules in every
``vpequil.*`` namespace that binds it (``physical`` calls ``density`` through
its own ``from .distmodels import density`` binding, so patching
``distmodels`` alone would miss those calls), plus
``PolytropicIndexTable.__init__``, ``SolutionProfile.samples`` and the
quadrature's adaptive fallback.  Spans stay in memory as
(name, start, end, parent index, task id, count) and ``uninstall`` restores
the original objects.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# module -> layer; the private quadrature module belongs to distmodels
LAYERS = {
    "vpequil.distmodels": "distmodels",
    "vpequil._quadrature": "distmodels",
    "vpequil.physical": "physical",
    "vpequil.compactsys": "compactsys",
    "vpequil.analysis": "analysis",
    "vpequil.cli": "cli",
}
LAYER_OF_PREFIX = {mod.split(".")[1]: layer for mod, layer in LAYERS.items()}

# deterministic count carried by a span, taken from the call's result
ANNOTATE = {
    "physical.integrate_physical": lambda args, res: res.diagnostics["n_steps"],
    "analysis.sweep_omega_c": lambda args, res: len(args[1]),
    "analysis.check_theorem1": lambda args, res: res.witness.get("grid_nodes", 0),
    "analysis.check_theorem2": lambda args, res: res.witness.get("grid_nodes", 0),
    "compactsys.PolytropicIndexTable.__init__": lambda args, res: args[0].n_nodes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, annotate = self.spans, self._stack, ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.task, 0)
            if annotate is not None:
                spans[idx] = (name, start, end, parent, self.task, annotate(args, result))
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        from vpequil import _quadrature, compactsys, physical

        wrappers = {}
        for modname in LAYERS:
            mod = sys.modules[modname]
            prefix = modname.split(".")[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{prefix}.{attr}", obj))
        fallback = _quadrature._adaptive
        wrappers[id(fallback)] = (fallback, self._wrap("_quadrature._adaptive", fallback))

        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "vpequil" or name.startswith("vpequil.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        table = compactsys.PolytropicIndexTable
        self._patch(table, "__init__",
                    self._wrap("compactsys.PolytropicIndexTable.__init__", table.__init__))
        samples = physical.SolutionProfile.samples
        self._patch(physical.SolutionProfile, "samples",
                    property(self._wrap("physical.SolutionProfile.samples", samples.fget)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "count"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                                 for s in self.spans]}, fh)


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass whose tasks took ``wall_s``.

    A span's self time is its duration minus that of its direct children, so
    the layers' self times plus ``trace.uninstrumented_s`` (task time outside
    any span) add up to ``wall_s``.  Per-call times of a function the
    workload never calls are reported as 0.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, incl, self_t, count = {}, {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS.values()}
    top_level = 0.0
    for i, (name, start, end, parent, _, n) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + own
        count[name] = count.get(name, 0) + n
        layer_self[LAYER_OF_PREFIX[name.split(".")[0]]] += own
        if parent < 0:
            top_level += dur

    def c(name):
        return calls.get(name, 0)

    def per_call(totals, name, scale):
        return scale * totals.get(name, 0.0) / c(name) if c(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def under(name, ancestor):
        """Spans called ``name`` with an ancestor span called ``ancestor``."""
        total = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            total += parent >= 0
        return total

    builds = [s for s in spans
              if s[0] == "compactsys.PolytropicIndexTable.__init__" and s[5] > 0]
    n_builds = len(builds)
    checks = ("analysis.check_theorem1", "analysis.check_theorem2")
    n_checks = sum(c(n) for n in checks)
    n_solves = c("physical.integrate_physical")
    n_orbits = c("compactsys.integrate_compact")

    m = {}
    for fn in ("eval_g", "eval_dg", "eval_n"):
        m[f"distmodels.{fn}.calls"] = c(f"distmodels.{fn}")
        m[f"distmodels.{fn}.us_per_call"] = per_call(incl, f"distmodels.{fn}", 1e6)
    m["distmodels.density.calls"] = c("distmodels.density")
    m["distmodels.integrate_weighted.calls"] = c("_quadrature.integrate_weighted")
    m["distmodels.integrate_weighted.us_per_call"] = per_call(
        incl, "_quadrature.integrate_weighted", 1e6)
    m["distmodels.fallback.calls"] = c("_quadrature._adaptive")

    m["physical.integrate_physical.calls"] = n_solves
    m["physical.integrate_physical.ms_per_call"] = per_call(
        incl, "physical.integrate_physical", 1e3)
    m["physical.rhs_physical.calls"] = c("physical.rhs_physical")
    m["physical.rhs_physical.self_us_per_call"] = per_call(
        self_t, "physical.rhs_physical", 1e6)
    m["physical.rhs_per_solve"] = ratio(c("physical.rhs_physical"), n_solves)
    m["physical.steps_per_solve"] = ratio(count.get("physical.integrate_physical", 0),
                                          n_solves)
    m["physical.solver_self_s"] = self_t.get("physical.integrate_physical", 0.0)
    m["physical.samples.ms_per_call"] = per_call(
        incl, "physical.SolutionProfile.samples", 1e3)

    m["compactsys.integrate_compact.calls"] = n_orbits
    m["compactsys.integrate_compact.ms_per_call"] = per_call(
        incl, "compactsys.integrate_compact", 1e3)
    m["compactsys.rhs_compact.calls"] = c("compactsys.rhs_compact")
    m["compactsys.rhs_compact.self_us_per_call"] = per_call(
        self_t, "compactsys.rhs_compact", 1e6)
    m["compactsys.rhs_per_orbit"] = ratio(c("compactsys.rhs_compact"), n_orbits)
    m["compactsys.table.builds"] = n_builds
    m["compactsys.table.s_per_build"] = ratio(sum(s[2] - s[1] for s in builds), n_builds)
    m["compactsys.table.nodes"] = ratio(sum(s[5] for s in builds), n_builds)
    m["compactsys.table.eval_n_calls"] = under(
        "distmodels.eval_n", "compactsys.PolytropicIndexTable.__init__")
    m["compactsys.orbits_per_build"] = ratio(n_orbits, n_builds)
    m["compactsys.map_profile.calls"] = c("compactsys.map_profile")

    m["analysis.sweep_omega_c.s_per_call"] = per_call(incl, "analysis.sweep_omega_c", 1.0)
    m["analysis.solves_per_grid_point"] = ratio(
        under("physical.integrate_physical", "analysis.sweep_omega_c"),
        count.get("analysis.sweep_omega_c", 0))
    m["analysis.omega_crit.ms_per_call"] = per_call(incl, "analysis.omega_crit", 1e3)
    m["analysis.omega_crit.eval_n_calls"] = ratio(
        under("distmodels.eval_n", "analysis.omega_crit"), c("analysis.omega_crit"))
    m["analysis.check.ms_per_call"] = ratio(1e3 * sum(incl.get(n, 0.0) for n in checks),
                                            n_checks)
    m["analysis.check.grid_nodes"] = sum(count.get(n, 0) for n in checks)
    m["analysis.classify_solution.ms_per_call"] = per_call(
        incl, "analysis.classify_solution", 1e3)

    m["cli.main.calls"] = c("cli.main")
    m["cli.main.ms_per_call"] = per_call(incl, "cli.main", 1e3)

    for layer, own in layer_self.items():
        m[f"{layer}.self_s"] = own
        m[f"{layer}.share"] = ratio(own, wall_s)
    m["trace.spans"] = len(spans)
    m["trace.uninstrumented_s"] = wall_s - top_level
    return m
