"""Spans around backwave's layers, recorded from outside the program.

``Tracer.install`` wraps each layer's public functions.  A name is
replaced in every backwave module that imported it, so
``backwave.scenarios.residual_box_psi01`` is wrapped as well as
``backwave.radiation.residual_box_psi01``.  Spans (name, start, end,
parent) are kept in memory and written when the run ends; ``metrics``
derives calls, inclusive times, self times and the engine's forcing
counters from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# span-name prefix -> layer, where the prefix is not the layer: forcing
# callbacks are closures built by the scenarios module
_LAYER_OF = {"engine.source": "scenarios"}

# layers whose self time is reported; the others' self time equals a
# reported inclusive time (cutoffs.s, functionals.s, engine.step_self_s,
# outputs.write_bundle.s, config.parse_s)
SELF_LAYERS = ("scenarios", "radiation", "profiles", "angular", "backscatter")

# spans whose calls and inclusive times are reported one by one
FUNCTIONS = ("radiation.residual_box_psi01", "radiation.eval_dt_psi01_exact",
             "radiation.eval_approximant", "radiation.derive_F1",
             "radiation.source_norm_weighted", "profiles.antiderivative",
             "profiles.sampled", "angular.to_values", "angular.to_modes",
             "backscatter.phi_k_modes", "backscatter.brute_force_phi_k",
             "outputs.write_bundle")


def layer_of(name: str) -> str:
    return _LAYER_OF.get(name, name.split(".", 1)[0])


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = {"engine.solve_calls": 0, "engine.steps": 0,
                         "engine.cell_updates": 0, "engine.source_calls": 0,
                         "engine.source_nonzero": 0, "engine.source_entries": 0}
        self._source_times = set()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return spanned

    # -- installation -------------------------------------------------------

    def patch(self, module, attr, name, wrapper=None):
        """Replace ``module.attr`` in every backwave module that holds it."""
        original = getattr(module, attr)
        new = (wrapper or self.wrap)(name, original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("backwave")
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, new)

    def patch_public(self, module, layer):
        for attr, obj in vars(module).copy().items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                self.patch(module, attr, f"{layer}.{attr}")

    def install(self):
        import backwave.angular as angular
        import backwave.backscatter as backscatter
        import backwave.cli  # noqa: F401  (loads every module that imports a layer)
        import backwave.config as config
        import backwave.cutoffs as cutoffs
        import backwave.engine as engine
        import backwave.functionals as functionals
        import backwave.outputs as outputs
        import backwave.profiles as profiles
        import backwave.radiation as radiation
        import backwave.scenarios as scenarios

        for module, layer in ((radiation, "radiation"), (backscatter, "backscatter"),
                              (functionals, "functionals")):
            self.patch_public(module, layer)
        self.patch(scenarios, "run_scenario", "scenarios.run_scenario")
        self.patch(config, "parse_config", "config.parse_config")
        self.patch(outputs, "write_bundle", "outputs.write_bundle")
        self.patch(engine, "solve_backward_system", "engine.solve", self._wrap_solve)
        self.patch(angular, "product_closures", "angular.product_closures",
                   self._wrap_closures)
        for cls, attr, name in ((profiles.Profile, "value", "profiles.value"),
                                (profiles.Profile, "derivative", "profiles.derivative"),
                                (profiles.AntiderivativeProfile, "_value",
                                 "profiles.antiderivative"),
                                (profiles.SampledProfile, "_eval", "profiles.sampled"),
                                (cutoffs.Cutoff, "value", "cutoffs.value"),
                                (cutoffs.Cutoff, "derivative", "cutoffs.derivative")):
            setattr(cls, attr, self.wrap(name, vars(cls)[attr]))

    def _wrap_closures(self, name, product_closures):
        def closures(*args, **kwargs):
            to_values, to_modes = product_closures(*args, **kwargs)
            return (self.wrap("angular.to_values", to_values),
                    self.wrap("angular.to_modes", to_modes))

        return self.wrap(name, closures)

    def _wrap_solve(self, name, solve):
        counters, seen = self.counters, self._source_times

        def counted_source(source):
            spanned = self.wrap("engine.source", source)

            def src(t, views):
                out = spanned(t, views)
                counters["engine.source_calls"] += 1
                seen.add(round(float(t), 9))
                for arr in (out or {}).values():
                    counters["engine.source_nonzero"] += int(np.count_nonzero(arr))
                    counters["engine.source_entries"] += arr.size
                return out

            return src

        def solve_counted(fields, source, *args, **kwargs):
            traj = solve(fields, None if source is None else counted_source(source),
                         *args, **kwargs)
            counters["engine.solve_calls"] += 1
            counters["engine.steps"] += traj.steps
            counters["engine.cell_updates"] += traj.steps * sum(
                len(st.modes) * (st.grid.J + 1) for st in fields.values())
            return traj

        return self.wrap(name, solve_counted)

    # -- results ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")

    def metrics(self) -> dict:
        out = span_metrics(self.spans)
        c = self.counters
        for key in ("engine.solve_calls", "engine.steps", "engine.cell_updates",
                    "engine.source_calls"):
            out[key] = c[key]
        out["engine.source_distinct_t"] = len(self._source_times)
        out["engine.source_reuse"] = (len(self._source_times) / c["engine.source_calls"]
                                      if c["engine.source_calls"] else 0.0)
        out["engine.source_nonzero_share"] = (c["engine.source_nonzero"]
                                              / c["engine.source_entries"]
                                              if c["engine.source_entries"] else 0.0)
        return out


def span_metrics(spans) -> dict:
    """Calls, inclusive and self times from (name, start, end, parent) spans.

    A span's self time is its duration minus that of its direct children.
    ``X.s`` counts only the outermost of nested spans of X, ``<layer>.s``
    only spans entered from another layer, so no interval counts twice.
    """
    calls, incl, entries, entry_s, self_s = {}, {}, {}, {}, {}
    layers = [layer_of(sp[0]) for sp in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        layer = layers[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + d
        if parent >= 0:
            self_s[layers[parent]] -= d
        same_name = same_layer = False
        p = parent
        while p >= 0:
            same_name = same_name or spans[p][0] == name
            same_layer = same_layer or layers[p] == layer
            p = spans[p][3]
        if not same_name:
            incl[name] = incl.get(name, 0.0) + d
        if not same_layer:
            entries[layer] = entries.get(layer, 0) + 1
            entry_s[layer] = entry_s.get(layer, 0.0) + d

    out = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
    for layer in ("cutoffs", "functionals"):
        out[f"{layer}.calls"] = entries.get(layer, 0)
        out[f"{layer}.s"] = entry_s.get(layer, 0.0)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["engine.solve_s"] = incl.get("engine.solve", 0.0)
    out["engine.source_s"] = incl.get("engine.source", 0.0)
    out["engine.step_self_s"] = out["engine.solve_s"] - out["engine.source_s"]
    out["config.parse_s"] = incl.get("config.parse_config", 0.0)
    return out
