"""Span tracing of quditbell layers from outside the library.

While a :class:`Tracer` is installed, each traced public function is replaced
by a wrapper in every quditbell module that binds it (its defining module,
the modules that import it, and the package namespace).  The wrapper records
a span ``(name, start, end, parent, request)`` and, after the span closes,
lets an optional hook add effort counts taken from the call's arguments and
result.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

LAYER_MODULES = ("gellmann", "bloch", "states", "perfectness", "bellmax", "cli")

# (module, attribute) of every traced entry point; "Class.method" names a
# method or classmethod.  These are the calls the per-layer metrics are built from.
TRACED = (
    ("gellmann", "build_basis"),
    ("bloch", "to_bloch"),
    ("bloch", "from_bloch"),
    ("states", "TwoQuditState.from_matrix"),
    ("states", "TwoQuditState.to_file"),
    ("states", "correlation_matrix"),
    ("perfectness", "correlation_spectrum"),
    ("perfectness", "certify_state"),
    ("perfectness", "find_perfect_observables"),
    ("bellmax", "maximize_bell"),
    ("bellmax", "exhaustive_qubit_max"),
    ("bellmax", "chsh_optimal_settings"),
    ("bellmax", "chsh_value"),
    ("bellmax", "lhv_monte_carlo"),
    ("cli", "main"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = frozenset(span_name(module, attr) for module, attr in TRACED)


class Tracer:
    """Records nested spans and counters for the traced layer functions.

    ``hooks`` maps a span name to ``hook(counters, arguments, result)``,
    where ``arguments`` are the call's arguments bound to the parameter
    names, defaults included.  Hooks run after the span has ended, so their
    cost is not attributed to the layer.
    """

    def __init__(self, package, hooks=None):
        self._package = package
        self._modules = {name: getattr(package, name) for name in LAYER_MODULES}
        self._hooks = hooks or {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.request = -1

    def _wrap(self, name: str, func):
        hook = self._hooks.get(name)
        signature = inspect.signature(func) if hook is not None else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, self.request))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        holders = [self._package, *self._modules.values()]
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            home = self._modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._patch(holder, attr, wrapper)

    def _patch(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_times(spans, first: int = 0) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans are properly nested because calls are sequential.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for offset, (name, start, end, _, _) in enumerate(spans[first:]):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[first + offset]
    return out
