"""Per-layer tracing for one CLI command, installed from outside the package.

Each traced name maps to one or more functions of ``quintic_mirror``.  A
function is replaced by a timing wrapper at every place it is bound: every
module attribute that holds it (``series_reversion`` is imported into both
``mirror`` and ``recursion``) and every class attribute that aliases it
(``__radd__ = __add__``, ``__call__ = eval``).  Nothing inside ``src/`` knows
it is being traced.

Self time is a call's wall time minus the time spent in nested wrapped
calls.  Total time is counted only at the outermost active call of a name,
so recursion does not count an interval twice.
"""

from __future__ import annotations

import sys
from time import perf_counter

# name -> list of (module, class or None, attribute)
TRACED = {
    "hbar.poly_mul": [("hbar", "Poly", "__mul__")],
    "hbar.poly_divmod": [("hbar", "Poly", "divmod")],
    "hbar.poly_gcd": [("hbar", "Poly", "gcd")],
    "hbar.ratfunc_new": [("hbar", "RatFunc", "__init__")],
    "hbar.ratfunc_add": [("hbar", "RatFunc", "__add__")],
    "hbar.ratfunc_mul": [("hbar", "RatFunc", "__mul__")],
    "hbar.ratfunc_eval": [("hbar", "RatFunc", "eval")],
    "hbar.ratfunc_subs_neg": [("hbar", "RatFunc", "subs_neg")],
    "hbar.laurent_mul": [("hbar", "Laurent", "__mul__")],
    "series.mul": [("series", "TruncSeries", "__mul__")],
    "series.div": [("series", "TruncSeries", "__truediv__")],
    "series.compose": [("series", "TruncSeries", "compose")],
    "series.reversion": [("series", None, "series_reversion")],
    "series.exp": [("series", None, "series_exp")],
    "mixed.mul": [("mixed", "MixedSeries", "__mul__")],
    "mixed.htrunc_mul": [("mixed", "HTruncPoly", "__mul__")],
    "mixed.mul_qseries": [("mixed", "MixedSeries", "mul_qseries")],
    "mixed.substitute_mirror": [("mixed", "MixedSeries", "substitute_mirror")],
    "hypergeom.zstar_family": [("hypergeom", None, "zstar_family")],
    "hypergeom.hypersurface_series": [("hypergeom", None, "hypersurface_series")],
    "hypergeom.f_and_g": [("hypergeom", None, "f_and_g")],
    "hypergeom.fundamental_solution": [("hypergeom", None, "fundamental_solution")],
    "mirror.build_mirror_map": [("mirror", None, "build_mirror_map")],
    "mirror.transformed_quintic_series": [("mirror", None, "transformed_quintic_series")],
    "mirror.quintic_invariants": [("mirror", None, "quintic_invariants")],
    "recursion.recursion_coeffs": [("recursion", None, "recursion_coeffs")],
    "recursion.recursion_residuals": [("recursion", None, "recursion_residuals")],
    "recursion.classP_extract": [("recursion", None, "classP_extract")],
    "recursion.phi_double_correlator": [("recursion", None, "phi_double_correlator")],
    "recursion.transform_family": [("recursion", None, "transform_family")],
    "recursion.composite_inverse_of_zstar": [("recursion", None, "composite_inverse_of_zstar")],
    "recursion.phi_laws": [("recursion", None, "phi_law_a"),
                           ("recursion", None, "phi_law_b"),
                           ("recursion", None, "phi_law_c")],
    "localization.bott_sum": [("localization", None, "bott_sum")],
    "localization.graph_contribution": [("localization", None, "graph_contribution")],
}

def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({"hbar.max_den_degree": "count",
                  "hbar.max_coeff_bits": "bits",
                  "sampling.attempts": "count",
                  "sampling.resamples": "count",
                  "sampling.useful_ratio": "ratio",
                  "sampling.wasted_s": "s"})
    return units


class _Stat:
    __slots__ = ("calls", "raised", "total", "self_", "active")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.total = 0.0
        self.self_ = 0.0
        self.active = 0


class Tracer:
    """Wraps the traced functions and accumulates their statistics."""

    def __init__(self):
        self.stats = {name: _Stat() for name in TRACED}
        self.nested = []            # child-time accumulators of open calls
        self.max_den_degree = 0
        self.max_coeff_bits = 0
        self.attempts = 0
        self.resamples = 0
        self.wasted = 0.0

    def _timed(self, fn, stat):
        nested = self.nested

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            stat.active += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stat.active -= 1
                stat.calls += 1
                stat.self_ += elapsed - nested.pop()
                if not stat.active:
                    stat.total += elapsed
                if nested:
                    nested[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _sized_init(self, init):
        """RatFunc.__init__ that also records denominator and coefficient size.

        The size scan runs outside the timed interval of ``init``.
        """
        def wrapper(rf, *args, **kwargs):
            init(rf, *args, **kwargs)
            if rf.den.degree > self.max_den_degree:
                self.max_den_degree = rf.den.degree
            for poly in (rf.num, rf.den):
                for c in poly.c:
                    bits = max(c.numerator.bit_length(),
                               c.denominator.bit_length())
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

        return wrapper

    def _sampled(self, sample_until):
        """sample_until whose builder calls are counted and timed."""
        def wrapper(rng, builder, *args, **kwargs):
            def counted(r):
                self.attempts += 1
                start = perf_counter()
                try:
                    return builder(r)
                except BaseException:
                    self.resamples += 1
                    self.wasted += perf_counter() - start
                    raise

            return sample_until(rng, counted, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function in the package."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "quintic_mirror"
                   or name.startswith("quintic_mirror.")]
        for name, targets in TRACED.items():
            for module, cls, attr in targets:
                owner = sys.modules[f"quintic_mirror.{module}"]
                if cls is None:
                    original = getattr(owner, attr)
                    _rebind_everywhere(modules, original,
                                       self._timed(original, self.stats[name]))
                else:
                    klass = getattr(owner, cls)
                    original = klass.__dict__[attr]
                    wrapped = self._timed(original, self.stats[name])
                    if name == "hbar.ratfunc_new":
                        wrapped = self._sized_init(wrapped)
                    _rebind_aliases(klass, original, wrapped)
        original = sys.modules["quintic_mirror.sampling"].sample_until
        _rebind_everywhere(modules, original, self._sampled(original))

    def snapshot(self) -> dict:
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.raised"] = stat.raised
            out[f"{name}.total_s"] = stat.total
            out[f"{name}.self_s"] = stat.self_
        out["hbar.max_den_degree"] = self.max_den_degree
        out["hbar.max_coeff_bits"] = self.max_coeff_bits
        out["sampling.attempts"] = self.attempts
        out["sampling.resamples"] = self.resamples
        out["sampling.wasted_s"] = self.wasted
        return out


def _rebind_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _rebind_aliases(klass, original, replacement) -> None:
    for attr, value in list(vars(klass).items()):
        if value is original:
            setattr(klass, attr, replacement)
