"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each traced public function of ``deltasolve``
with a wrapper, in every ``deltasolve`` module that binds it (a module that
did ``from .x import f`` holds its own reference), and on the class for
methods.  A wrapper times its call into an in-memory total, or only counts
it.  ``uninstall`` puts the originals back.  Nothing in ``src/`` changes.

Times are inclusive: ``bernoulli.antidiff_s`` contains the faulhaber and
translate spans it caused, and spans on the two report threads add up.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "bernoulli.table_s": "s",
    "bernoulli.table_entries": "count",
    "rationals.binomial_calls": "count",
    "bernoulli.antidiff_s": "s",
    "bernoulli.antidiff_calls": "count",
    "polynomials.translate_s": "s",
    "polynomials.translate_calls": "count",
    "bernoulli.faulhaber_s": "s",
    "zeta.closed_form_s": "s",
    "polynomials.grammar_s": "s",
    "spectral.solve_s": "s",
    "spectral.solve_calls": "count",
    "spectral.mode_integrals": "count",
    "spectral.euler_gap_s": "s",
    "spectral.residual_s": "s",
    "partial_fractions.pfd_s": "s",
    "partial_fractions.laurent_s": "s",
    "zeta.partial_sum_s": "s",
    "zeta.tables_s": "s",
    "ode.find_roots_s": "s",
    "ode.solve_s": "s",
    "ode.roots": "count",
    "reports.rows_threads1_s": "s",
    "reports.rows_threads2_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
}

# (module, function) -> metric prefix of a timed span.
_TIMED = {
    ("bernoulli", "antidifference_polynomial"): "bernoulli.antidiff",
    ("bernoulli", "faulhaber"): "bernoulli.faulhaber",
    ("zeta", "zeta_even_closed_form"): "zeta.closed_form",
    ("spectral", "spectral_solve"): "spectral.solve",
    ("spectral", "euler_gap"): "spectral.euler_gap",
    ("spectral", "difference_residual"): "spectral.residual",
    ("partial_fractions", "pfd_eval"): "partial_fractions.pfd",
    ("partial_fractions", "laurent_from_modes"): "partial_fractions.laurent",
    ("zeta", "zeta_partial_sum"): "zeta.partial_sum",
    ("zeta", "coefficient_tables"): "zeta.tables",
    ("ode", "find_roots"): "ode.find_roots",
    ("ode", "solve_linear_ode"): "ode.solve",
    ("polynomials", "parse_polynomial"): "polynomials.grammar",
    ("polynomials", "parse_complex"): "polynomials.grammar",
    ("polynomials", "format_polynomial"): "polynomials.grammar",
    ("polynomials", "format_real_polynomial"): "polynomials.grammar",
    ("polynomials", "format_complex"): "polynomials.grammar",
    ("polynomials", "format_complex_polynomial"): "polynomials.grammar",
    ("rationals", "format_rational"): "polynomials.grammar",
}

_REPORT_ROWS = ("residual_decay_rows", "pfd_convergence_rows",
                "ab_comparison_rows")


class Tracer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._paused = False

    # -- recording ----------------------------------------------------

    def _add(self, metric: str, seconds: float) -> None:
        with self._lock:
            self.seconds[metric] += seconds

    def _spectral_depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _active(self) -> set:
        if not hasattr(self._local, "active"):
            self._local.active = set()
        return self._local.active

    def _timed(self, fn, metric: str, spectral: bool = False, after=None):
        """Adds the call's time to ``<metric>_s`` and counts it in
        ``<metric>_calls``; a call nested in a span of the same metric (the
        grammar functions call each other) is neither timed nor counted."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = self._active()
            if self._paused or metric in active:
                return fn(*args, **kwargs)
            active.add(metric)
            if spectral:
                self._local.depth = self._spectral_depth() + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if spectral:
                    self._local.depth -= 1
                active.discard(metric)
                with self._lock:
                    self.seconds[metric + "_s"] += elapsed
                    self.counts[metric + "_calls"] += 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, fn, metric: str, only_in_spectral: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._paused and (not only_in_spectral
                                     or self._spectral_depth()):
                with self._lock:
                    self.counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------

    def _patch_everywhere(self, module: str, name: str, make) -> None:
        original = getattr(sys.modules[f"deltasolve.{module}"], name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "deltasolve" or mod_name.startswith("deltasolve."):
                if getattr(mod, name, None) is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, name: str, wrapper) -> None:
        self._restore.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self) -> None:
        import deltasolve.bernoulli  # noqa: F401  (registers every module)
        import deltasolve.cli  # noqa: F401

        mods = sys.modules
        for (module, name), metric in _TIMED.items():
            spectral = module == "spectral"
            after = self._count_roots if name == "find_roots" else None
            self._patch_everywhere(module, name, lambda fn, m=metric, s=spectral,
                                   a=after: self._timed(fn, m, s, a))
        self._patch_everywhere("rationals", "binomial", lambda fn: self._counted(
            fn, "rationals.binomial_calls"))
        self._patch_everywhere("spectral", "exp_poly_integral",
                               lambda fn: self._counted(
                                   fn, "spectral.mode_integrals", True))
        for name in _REPORT_ROWS:
            self._patch_everywhere("reports", name, self._report_rows)

        table = mods["deltasolve.bernoulli"].BernoulliTable
        self._patch_method(table, "value", self._table_value(table.value))
        poly = mods["deltasolve.polynomials"].Polynomial
        self._patch_method(poly, "translate",
                           self._timed(poly.translate, "polynomials.translate"))

    def paused(self, fn):
        """``fn`` with recording off while it runs, for the output checks,
        which parse CLI output with the program's own grammar functions."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._paused = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._paused = False
        return wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _count_roots(self, args, roots) -> None:
        with self._lock:
            self.counts["ode.roots"] += len(roots)

    def _table_value(self, fn):
        @functools.wraps(fn)
        def wrapper(table, n):
            before = table.computed_up_to
            start = time.perf_counter()
            try:
                return fn(table, n)
            finally:
                elapsed = time.perf_counter() - start
                self._add("bernoulli.table_s", elapsed)
                with self._lock:
                    self.counts["bernoulli.table_entries"] += \
                        table.computed_up_to - before
        return wrapper

    def _report_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, threads: int = 1, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, threads=threads, **kwargs)
            finally:
                metric = ("reports.rows_threads1_s" if threads <= 1
                          else "reports.rows_threads2_s")
                self._add(metric, time.perf_counter() - start)
        return wrapper

    # -- output -------------------------------------------------------

    def metrics(self, extra: dict[str, float]) -> dict[str, dict]:
        """Every PER_LAYER metric: traced totals, then ``extra`` values."""
        out = {}
        for name, unit in PER_LAYER.items():
            if name in extra:
                value = extra[name]
            elif unit == "count":
                value = self.counts.get(name, 0)
            else:
                value = self.seconds.get(name, 0.0)
            out[name] = {"value": value, "unit": unit}
        return out
