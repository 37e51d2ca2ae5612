"""Per-layer spans around the public functions of sgalg, from outside the program.

Each wrapped call records a span (name, start, end, parent span, request id)
in memory.  Busy time is the span duration, counted once for recursive
calls; self time is the duration minus the time covered by child spans.
Problem sizes are taken from arguments and return values at the same
boundary.

``from .translations import compose`` copies the function object into other
modules, so installing a wrapper rebinds every ``sgalg.*`` module attribute
that *is* the original function; methods are patched on their class.
``scalars`` is left alone: its calls number in the millions, and its cost
shows up as self time of the layers that call it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

# (module, qualified name) of every traced function, by layer.
TRACED = (
    ("semigroup", "NumericalSemigroup.__init__"),
    ("semigroup", "NumericalSemigroup.is_totally_ordered"),
    ("semigroup", "automorphism_multipliers"),
    ("translations", "compose"),
    ("translations", "evaluate_word"),
    ("translations", "elementary"),
    ("translations", "max_translation"),
    ("translations", "pt_from_offsets"),
    ("operators", "OperatorElement.__mul__"),
    ("operators", "OperatorElement.__add__"),
    ("operators", "OperatorElement.symbol"),
    ("operators", "OperatorElement.split"),
    ("operators", "OperatorElement.conjugate"),
    ("operators", "OperatorElement.adjoint"),
    ("operators", "toeplitz_lift"),
    ("operators", "from_monomial"),
    ("quantum", "rep"),
    ("quantum", "enumerate_words"),
    ("quantum", "distinct_monomials"),
    ("quantum", "exact_nullspace"),
    ("quantum", "quantum_morphism_falsify"),
    ("quantum", "weak_hopf_check"),
    ("quantum", "tensor_multiply"),
    ("quantum", "FreeElement.__mul__"),
    ("functionals", "evaluate"),
    ("numeric", "truncate"),
    ("numeric", "operator_norm"),
    ("numeric", "laurent_sup_norm"),
    ("numeric", "fourier_project"),
    ("numeric", "gauge_twist"),
    ("exprparse", "parse_element"),
    ("exprparse", "parse_functional"),
    ("cli", "main"),
    ("checks", "suite_order"),
    ("checks", "suite_inverse"),
    ("checks", "suite_grading"),
    ("checks", "suite_symbol"),
    ("checks", "suite_weakhopf"),
    ("checks", "suite_haar"),
    ("checks", "suite_coideal"),
    ("checks", "suite_descent"),
    ("checks", "suite_fourier"),
    ("checks", "morphism_report"),
)

# Each request calls one suite or morphism report, so for these the busy and
# self time are the request's own breakdown and the call count adds nothing.
_BREAKDOWN_ONLY = "checks"

# Problem-size counters taken at a span boundary: name -> f(args, result).
_SIZES = {
    "quantum.exact_nullspace": ("quantum.exact_nullspace.columns",
                                lambda args, result: len(args[0])),
    "numeric.operator_norm": ("numeric.operator_norm.dim_sum",
                              lambda args, result: _matrix_dim(args[0])),
}
COUNTERS = ("quantum.words_enumerated", "quantum.distinct_monomials",
            "quantum.exact_nullspace.columns", "numeric.operator_norm.dim_sum")


def _matrix_dim(m) -> int:
    return (m.matrix if hasattr(m, "matrix") else m).shape[0]


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    out = []
    for module, qualname in TRACED:
        name = f"{module}.{qualname}"
        if module != _BREAKDOWN_ONLY:
            out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.busy_s", "s", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [("quantum.words_enumerated", "count", "lower"),
            ("quantum.distinct_monomials", "count", "higher"),
            ("quantum.distinct_per_word", "ratio", "higher"),
            ("quantum.exact_nullspace.columns", "count", "lower"),
            ("numeric.operator_norm.dim_sum", "count", "lower")]
    return out


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.busy: list[float] = []
        self.self_time: list[float] = []
        self.counters = {name: 0 for name in COUNTERS}
        self.request = 0
        # Span columns, appended when a span ends.
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("H")
        self._next_id = 0
        # Open spans: [span id, time covered by children].
        self._stack: list[list] = []
        self._depth: list[int] = []

    # -- recording ----------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.busy.append(0.0)
        self.self_time.append(0.0)
        self._depth.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0, parent, nid]
        self._next_id += 1
        self._stack.append(frame)
        self._depth[nid] += 1
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        span_id, covered, parent, nid = frame
        duration = t1 - t0
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.busy[nid] += duration
        self.self_time[nid] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration
        self.span_id.append(span_id)
        self.span_name.append(nid)
        self.span_start.append(t0)
        self.span_end.append(t1)
        self.span_parent.append(parent)
        self.span_request.append(self.request)

    def wrap(self, name: str, fn):
        nid = self._register(name)
        size = _SIZES.get(name)

        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            frame = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, t0, perf_counter())
            if size is not None:
                self.counters[size[0]] += size[1](args, result)
            return result
        return traced

    def _wrap_generator(self, nid: int, fn):
        """Each resumption is a span; words and distinct monomials are counted."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            inner = fn(*args, **kwargs)
            words = 0
            seen = set()
            try:
                while True:
                    frame = self._open(nid)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, t0, perf_counter())
                    words += 1
                    seen.add(item[1])
                    yield item
            finally:
                self.counters["quantum.words_enumerated"] += words
                self.counters["quantum.distinct_monomials"] += len(seen)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function of the imported sgalg package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sgalg" or n.startswith("sgalg."))]
        for module_name, qualname in TRACED:
            module = importlib.import_module(f"sgalg.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if not name.startswith(_BREAKDOWN_ONLY + "."):
                out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.busy_s"] = self.busy[nid]
            out[f"{name}.self_s"] = self.self_time[nid]
        out.update(self.counters)
        words = self.counters["quantum.words_enumerated"]
        out["quantum.distinct_per_word"] = (
            self.counters["quantum.distinct_monomials"] / words if words else 0.0)
        return out

    def save(self, path) -> None:
        """Write the spans as columns of a compressed numpy archive."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), id=np.array(self.span_id),
            name=np.array(self.span_name), start=np.array(self.span_start),
            end=np.array(self.span_end), parent=np.array(self.span_parent),
            request=np.array(self.span_request))
