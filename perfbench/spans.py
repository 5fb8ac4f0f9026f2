"""Aggregated spans around every public function of the hktlab modules.

`Tracer.installed()` rebinds each public function of `hktlab.<module>` under
every name it is looked up by: in its own module, in each module that
imported it with `from .x import name`, and in `suites._RUNNERS`.  Callables
that live on instances are wrapped where the instances are made:
`Connection.coeff` and the two `Chart` tables through subclasses bound in
place of `Connection` and `Chart`, field-operator evaluations through the
`FormField` each operator returns, and the closure `structure_matrix_field`
returns.  `StructureContext` methods are wrapped on the class, Dual
constructions are counted through `Dual.__init__`, and `numpy.linalg.eigvals`
gets a span of its own.  Everything is restored on exit.

`Tracer(only=BUILDERS)` spans nothing but the constructors in BUILDERS,
under the same names; onepass.py uses it to time set-up inside an untraced
pass.  The sum of their self times is the time spent inside outermost
constructor calls.

Spans are aggregated as they close, never stored: each name keeps a call
count and a self time, the span's duration minus the durations of the spans
it caused.  The wrapper's own cost lands in the parent's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

import numpy as np

MODULES = ("duals", "exterior", "charts", "fields", "quaternions", "bundles",
           "total_space", "hermitian", "hopf", "report", "suites")

# Reached only through Connection.coeff, which is spanned per instance.
COEFF_FUNCTIONS = {"flat_coeff", "instanton_coeff"}

# Field operators: the FormField each returns is spanned per evaluation.
FIELD_OPERATORS = {"exterior_d": "fields.d", "del_hol": "fields.del",
                   "del_bar": "fields.dbar", "del_j": "fields.del_J",
                   "d_plus": "fields.d_plus", "ladder_map": "fields.ladder"}

# The program's constructors of charts, StructureContexts, connections,
# total spaces and Hopf data: the set-up a pass does before its records.
BUILDERS = ("charts.flat_chart", "charts.constant_chart",
            "exterior.ctx.__post_init__", "bundles.get_connection",
            "total_space.total_space", "hopf.hopf_data")

SUITE_RUNNERS = ("algebra", "bicomplex", "qpos", "bundle", "totspace", "hopf")

# Spans made per instance; listed so that they read 0 where never made.
INSTANCE_SPANS = ("charts.frame_table", "charts.inverse_table",
                  "bundles.coeff", "total_space.structure_matrix_field",
                  *FIELD_OPERATORS.values())


class Tracer:
    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self._stack = [0.0]  # child-span seconds of each open span

    def span(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                stack[-1] += dt

        return spanned

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    @contextlib.contextmanager
    def installed(self):
        undo = []

        def rebind(holder, key, value):
            if isinstance(holder, dict):
                undo.append((holder.__setitem__, key, holder[key]))
                holder[key] = value
            else:
                undo.append((lambda k, v, h=holder: setattr(h, k, v), key,
                             getattr(holder, key)))
                setattr(holder, key, value)

        try:
            self._install(rebind)
            yield self
        finally:
            for setter, key, old in reversed(undo):
                setter(key, old)

    def _install(self, rebind) -> None:
        mods = {name: importlib.import_module("hktlab." + name)
                for name in MODULES}
        if self.only is not None:
            self._install_only(mods, rebind)
            return
        for name in INSTANCE_SPANS:
            self.stats.setdefault(name, [0, 0.0])
        replacement = {}  # id(original object) -> wrapper

        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or name in COEFF_FUNCTIONS):
                    continue
                if name in FIELD_OPERATORS:
                    wrapper = self._field_operator(FIELD_OPERATORS[name], obj)
                elif name == "structure_matrix_field":
                    wrapper = self._closure_factory(
                        "total_space.structure_matrix_field", obj)
                elif name == "dconj":
                    wrapper = self._dconj(obj)
                else:
                    wrapper = self.span(f"{short}.{name}", obj)
                replacement[id(obj)] = wrapper

        replacement[id(mods["charts"].Chart)] = self._chart_class(
            mods["charts"].Chart)
        replacement[id(mods["bundles"].Connection)] = self._connection_class(
            mods["bundles"].Connection)

        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    rebind(mod, name, replacement[id(obj)])
        runners = mods["suites"]._RUNNERS
        for suite in SUITE_RUNNERS:
            rebind(runners, suite, self.span("suites." + suite,
                                             runners[suite]))

        ctx_cls = mods["exterior"].StructureContext
        for name, obj in list(vars(ctx_cls).items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                rebind(ctx_cls, name, self.span("exterior.ctx." + name, obj))

        dual = mods["duals"].Dual
        init = dual.__init__
        counters = self.counters
        counters["duals.dual_new"] = 0

        def counted_init(obj, val, dot=0.0, level=0):
            counters["duals.dual_new"] += 1
            init(obj, val, dot, level)

        rebind(dual, "__init__", counted_init)
        rebind(np.linalg, "eigvals", self.span("numpy.eigvals",
                                               np.linalg.eigvals))

    def _install_only(self, mods, rebind) -> None:
        """Spans exactly the names in `only`; a name that is not found
        is an error, so a renamed constructor cannot drop out unseen."""
        replacement, found = {}, set()
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                key = f"{short}.{name}"
                if key in self.only and inspect.isfunction(obj):
                    replacement[id(obj)] = self.span(key, obj)
                    found.add(key)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacement:
                    rebind(mod, name, replacement[id(obj)])
        ctx_cls = mods["exterior"].StructureContext
        for name, obj in list(vars(ctx_cls).items()):
            key = "exterior.ctx." + name
            if key in self.only and inspect.isfunction(obj):
                rebind(ctx_cls, name, self.span(key, obj))
                found.add(key)
        if found != self.only:
            raise LookupError(f"not found: {sorted(self.only - found)}")

    def _field_operator(self, name, op):
        def traced_op(*args, **kwargs):
            out = op(*args, **kwargs)
            out.eval_real = self.span(name, out.eval_real)
            return out

        return traced_op

    def _closure_factory(self, name, factory):
        def traced_factory(*args, **kwargs):
            return self.span(name, factory(*args, **kwargs))

        return traced_factory

    def _dconj(self, fn):
        spanned = self.span("duals.dconj", fn)
        counters = self.counters
        counters["duals.dconj.numpy"] = 0
        generic = np.generic

        def traced_dconj(x):
            if isinstance(x, generic):
                counters["duals.dconj.numpy"] += 1
            return spanned(x)

        return traced_dconj

    def _chart_class(self, chart_cls):
        tracer = self

        class TracedChart(chart_cls):
            def __init__(self, dim, ctx, frame_table, inverse_table, name=""):
                super().__init__(
                    dim, ctx, tracer.span("charts.frame_table", frame_table),
                    tracer.span("charts.inverse_table", inverse_table), name)

        return TracedChart

    def _connection_class(self, conn_cls):
        tracer = self

        class TracedConnection(conn_cls):
            def __init__(self, name, rank, base_n, mfib, coeff,
                         hyperholomorphic):
                super().__init__(name, rank, base_n, mfib,
                                 tracer.span("bundles.coeff", coeff),
                                 hyperholomorphic)

        return TracedConnection
