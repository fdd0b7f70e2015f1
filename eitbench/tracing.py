"""Per-layer spans recorded around calls into eitmol's public functions.

The tracer replaces a function by a timing wrapper in every loaded eitmol
module that holds it, so calls through ``from .analytic import ...`` bindings
are seen too.  Nothing in ``src/`` is edited, and the untraced benchmark run
never installs a wrapper.

Kernel and solver functions are expected to be renamed or fused by later
refactors.  A target that no longer exists is reported as absent and its
metrics stay zero; a counter that cannot read a changed call signature is
reported the same way, and the call itself always goes through.
"""

import sys
import time
from collections import defaultdict

import numpy as np


def _size_of_result(args, kwargs, result):
    return int(np.size(result))


def _size_of_first_arg(args, kwargs, result):
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


def _len_of_result(args, kwargs, result):
    return len(result)


# (span name, module, function, counter name, counter)
TARGETS = (
    ("analytic.rho22", "eitmol.analytic", "population_rho22",
     "analytic.rho22_points", _size_of_result),
    ("analytic.rho33", "eitmol.analytic", "population_rho33",
     "analytic.rho33_points", _size_of_result),
    ("doppler.reduce", "eitmol.doppler", "compensated_weighted_sum",
     "doppler.reduce_terms", _size_of_first_arg),
    ("doppler.nodes", "eitmol.doppler", "quadrature_nodes", None, None),
    ("doppler.nodes", "eitmol.doppler", "maxwellian_trapezoid_weights",
     None, None),
    ("spectrum.simulate", "eitmol.spectrum", "simulate", None, None),
    ("spectrum.write", "eitmol.spectrum", "write_spectrum", None, None),
    ("fitting.objective", "eitmol.fitting", "objective",
     "fitting.objective_calls", lambda a, k, r: 1),
    ("fitting.validate", "eitmol.fitting", "validate_quadrature", None, None),
    ("config.load", "eitmol.config", "load_config", None, None),
    ("sublevels.build", "eitmol.sublevels", "build_channels",
     "sublevels.channels", _len_of_result),
)


class Tracer:
    """Accumulates inclusive and self time per span name, plus counters."""

    def __init__(self):
        self.absent = []
        self._stack = []          # [span name, time covered by child spans]
        self.reset()

    def reset(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def snapshot(self):
        snap = {"inclusive": dict(self.inclusive),
                "self": dict(self.self_time), "counts": dict(self.counts)}
        self.reset()
        return snap

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        for span, modname, fname, cname, counter in TARGETS:
            module = sys.modules.get(modname)
            orig = getattr(module, fname, None) if module else None
            if not callable(orig):
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(orig, span, cname, counter,
                                 f"{modname}.{fname}")
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("eitmol"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, func, span, cname, counter, label):
        stack = self._stack

        def traced(*args, **kwargs):
            if any(frame[0] == span for frame in stack):
                return func(*args, **kwargs)   # nested call of the same span
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.inclusive[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                try:
                    self.counts[cname] += counter(args, kwargs, result)
                except (TypeError, ValueError, IndexError, StopIteration):
                    if f"{label} (counter)" not in self.absent:
                        self.absent.append(f"{label} (counter)")
            return result

        traced.__wrapped__ = func
        return traced


def layer_metrics(setup, round_snap):
    """Per-layer metric values from the set-up snapshot and one round's."""
    inc = round_snap["inclusive"]
    cnt = round_snap["counts"]
    p22 = cnt.get("analytic.rho22_points", 0)
    p33 = cnt.get("analytic.rho33_points", 0)
    t22 = inc.get("analytic.rho22", 0.0)
    t33 = inc.get("analytic.rho33", 0.0)
    terms = cnt.get("doppler.reduce_terms", 0)
    reduce_s = inc.get("doppler.reduce", 0.0)
    return {
        "analytic.rho22_points": (p22, "count"),
        "analytic.rho22_s": (t22, "s"),
        "analytic.rho33_points": (p33, "count"),
        "analytic.rho33_s": (t33, "s"),
        "analytic.ns_per_point": (
            1e9 * (t22 + t33) / (p22 + p33) if p22 + p33 else 0.0, "ns"),
        "doppler.reduce_terms": (terms, "count"),
        "doppler.reduce_s": (reduce_s, "s"),
        "doppler.reduce_ns_per_term": (
            1e9 * reduce_s / terms if terms else 0.0, "ns"),
        "doppler.nodes_s": (inc.get("doppler.nodes", 0.0), "s"),
        "spectrum.simulate_s": (inc.get("spectrum.simulate", 0.0), "s"),
        "spectrum.self_s": (round_snap["self"].get("spectrum.simulate", 0.0),
                            "s"),
        "spectrum.write_s": (inc.get("spectrum.write", 0.0), "s"),
        "fitting.objective_calls": (cnt.get("fitting.objective_calls", 0),
                                    "count"),
        "fitting.objective_s": (inc.get("fitting.objective", 0.0), "s"),
        "fitting.validate_s": (inc.get("fitting.validate", 0.0), "s"),
        "config.load_s": (setup["inclusive"].get("config.load", 0.0), "s"),
        "sublevels.build_s": (setup["inclusive"].get("sublevels.build", 0.0),
                              "s"),
        "sublevels.channels": (setup["counts"].get("sublevels.channels", 0),
                               "count"),
    }
