"""Outside-in tracing of the thetacert package for the benchmark's traced run.

Nothing in the package is edited: :class:`Tracer` rebinds names from the
outside.  Every public function of a package module is replaced by a
wrapper that records a span (id, parent id, layer, name, start, end) and
is rebound wherever the original is bound: in its defining module, in
every module that imported it (``modular.theta2_series``,
``scanner.f_second``, the ``cli`` imports, the package root) and inside
module-level dicts of tuples such as ``verifier._ROUTES``.  Lambdas that
look a name up at call time (``verifier.QUANTITIES``) reach the wrapper
too.  ``ExpPoly`` and ``ReportDocument`` methods are wrapped on the class as
spans.  ``Enclosure`` methods are wrapped on the class as counters only:
they run millions of times, and a span each would swamp the measurement.

``certify_sign`` also wraps the quantity it is handed, so boxes, accepted
boxes, ConvergenceError splits and precision escalations are counted where
``certify`` calls the quantity.  The quantity's span belongs to the layer
of the module that defined it.

A layer's self time is the time of its spans minus the time of their
child spans.  An *entry* is a span whose parent is in another layer (or is
the benchmark itself).  Calls and escaping exceptions are counted per
entry, so a call that passes through several functions of one layer
counts once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

ROOT = "bench"
ENCLOSURE_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__",
    "exp", "log", "sqrt",
)
CLASS_SPANS = {
    "exppoly": ("ExpPoly", ("exponential", "terms", "exponents", "coefficient", "__add__",
                            "__neg__", "__sub__", "scale", "__mul__", "mul_y", "shift", "eval")),
    "report": ("ReportDocument", ("start", "finish", "add_certification", "add_value",
                                  "add_witness", "to_dict", "to_json", "from_json")),
}


def _public_functions(module):
    """(name, function) for the public functions a module defines itself."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _sign(target_sign) -> int:
    if target_sign in (1, -1):
        return target_sign
    return 1 if str(target_sign).lower() in ("positive", "+", "pos") else -1


class Tracer:
    """Spans and counters for one traced phase: install, run, uninstall."""

    def __init__(self, package):
        prefix = package.__name__ + "."
        self.package = package
        self.modules = {
            name[len(prefix):]: mod
            for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None
        }
        self.spans = []  # (id, parent id, layer, name, start, end)
        self.stack = [[0, ROOT, ROOT, 0.0]]  # [span id, layer, name, child time]
        self.layer = [ROOT]  # innermost active layer, read by the Enclosure counters
        self.entries = Counter()
        self.self_s = defaultdict(float)
        self.errors = defaultdict(Counter)  # layer -> exception type name -> count
        self.enc_ops = Counter()
        self.enc_exp = Counter()
        self.counts = Counter()
        self._restore = []
        self._next_id = 1
        self._escalated = 0

    def in_span(self, name) -> bool:
        return any(frame[2] == name for frame in self.stack)

    def _span(self, layer, name, fn, hook=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1]
            entry = parent[1] != layer
            if hook is not None:
                hook(args, kwargs, None, entry)
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, layer, name, 0.0]
            tracer.stack.append(frame)
            tracer.layer[0] = layer
            if entry:
                tracer.entries[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if entry:
                    tracer.errors[layer][type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.layer[0] = parent[1]
                dur = end - start
                tracer.self_s[layer] += dur - frame[3]
                parent[3] += dur
                tracer.spans.append((sid, parent[0], layer, name, start, end))
            if hook is not None:
                hook(args, kwargs, result, entry)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        hooks = {
            "verifier.f_eval": self._on_dispatch,
            "verifier.f_prime": self._on_dispatch,
            "verifier.f_second": self._on_dispatch,
            "scanner.f_a_second": self._on_f_a_second,
            "report.decimal_bounds": self._on_rendered,
            "ReportDocument.to_json": self._on_rendered,
            "certify.certify_sign": self._on_certified,
        }
        wrappers = {}
        for layer, mod in self.modules.items():
            if layer == "enclosure":  # counted per method below, never spanned
                continue
            for name, fn in _public_functions(mod):
                key = f"{layer}.{name}"
                inner = self._counting_quantity(fn) if key == "certify.certify_sign" else fn
                wrappers[fn] = self._span(layer, key, inner, hooks.get(key))
        self._rebind(wrappers)
        for layer, (cls_name, methods) in CLASS_SPANS.items():
            cls = getattr(self.modules[layer], cls_name)
            for meth in methods:
                raw = vars(cls)[meth]
                key = f"{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span(layer, key, raw.__func__, hooks.get(key)))
                else:
                    wrapped = self._span(layer, key, raw, hooks.get(key))
                self._set(cls, meth, wrapped)
        enclosure = self.modules["enclosure"].Enclosure
        for meth in ENCLOSURE_OPS:
            self._set(enclosure, meth, self._counter(vars(enclosure)[meth], meth == "exp"))
        return self

    def uninstall(self):
        for setter, key, old in reversed(self._restore):
            setter(key, old)
        self._restore.clear()

    def _set(self, owner, attr, new):
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._restore.append((functools.partial(setattr, owner), attr, old))

    def _rebind(self, wrappers):
        """Point every module binding of an original function at its wrapper."""
        for mod in [self.package, *self.modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, tuple) and any(f in wrappers for f in item
                                                           if inspect.isfunction(f)):
                            value[key] = tuple(wrappers.get(f, f) for f in item)
                            self._restore.append((value.__setitem__, key, item))

    def _counter(self, fn, is_exp):
        cur, ops, exps = self.layer, self.enc_ops, self.enc_exp
        if is_exp:
            def wrapper(*args):
                ops[cur[0]] += 1
                exps[cur[0]] += 1
                return fn(*args)
        else:
            def wrapper(*args):
                ops[cur[0]] += 1
                return fn(*args)
        return functools.wraps(fn)(wrapper)

    # -- certify: count what it does with the quantity -------------------------

    def _counting_quantity(self, certify_sign):
        tracer = self
        convergence = self.modules["enclosure"].ConvergenceError
        default = self.modules["enclosure"].DEFAULT_CONFIG

        @functools.wraps(certify_sign)
        def wrapper(fn, interval, target_sign, cfg=default, *args, **kwargs):
            module = getattr(fn, "__module__", None) or ROOT
            layer = module.rsplit(".", 1)[-1]
            span = tracer._span(layer, f"{layer}.<quantity>", fn)
            sign, base_bits = _sign(target_sign), cfg.precision_bits

            def quantity(box, qcfg):
                escalated = qcfg.precision_bits != base_bits
                if escalated:
                    tracer.counts["certify.escalations"] += 1
                    tracer._escalated += 1
                try:
                    value = span(box, qcfg)
                except convergence:
                    if not escalated:
                        tracer.counts["certify.convergence_splits"] += 1
                    raise
                finally:
                    if escalated:
                        tracer._escalated -= 1
                strict = value.is_strictly_positive() if sign > 0 else value.is_strictly_negative()
                if strict:
                    tracer.counts["certify.accepted"] += 1
                return value

            return certify_sign(quantity, interval, target_sign, cfg, *args, **kwargs)

        return wrapper

    # -- hooks: (args, kwargs, result or None before the call, is entry) -------

    def _on_certified(self, args, kwargs, result, entry):
        if result is None:
            return
        self.counts["certify.certifications"] += 1
        self.counts["certify.boxes"] += result.boxes_examined
        self.counts["certify.max_depth"] = max(self.counts["certify.max_depth"],
                                               result.max_depth_reached)
        if self.in_span("verifier.verify_convexity"):
            self.counts["certify.convexity_boxes"] += result.boxes_examined

    def _on_dispatch(self, args, kwargs, result, entry):
        if result is not None:
            return
        self.counts["verifier.dispatch_calls"] += 1
        if self._escalated:
            self.counts["verifier.escalated_calls"] += 1
        y = args[0] if args else kwargs.get("y")
        if (kwargs.get("route", "auto") == "auto"
                and isinstance(y, self.modules["enclosure"].Enclosure) and y.lo < 1 < y.hi):
            self.counts["verifier.straddle_calls"] += 1

    def _on_f_a_second(self, args, kwargs, result, entry):
        if result is None:
            grid = self.in_span("scanner.scan_rows")
            self.counts["scanner.grid_evals" if grid else "scanner.refine_evals"] += 1

    def _on_rendered(self, args, kwargs, result, entry):
        if result is not None and entry:
            text = result if isinstance(result, str) else "".join(result)
            self.counts["report.bytes"] += len(text)
