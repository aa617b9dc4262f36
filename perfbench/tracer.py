"""Per-layer timing by wrapping ``cloudpricing``'s public functions from outside.

Every public function of every ``cloudpricing`` module is replaced, at every
module attribute bound to it, by a wrapper that counts calls and times them.
Calls between modules resolve through those attributes, so a call from
``cli`` into ``optimizer`` is timed even though neither module knows about
the benchmark.

Times are busy seconds: the calling thread's CPU time (``time.thread_time``).
The sweep hands its solves to a thread pool whose threads take turns on the
interpreter lock, so their wall times overlap and would add up to more than
the time that went by; their CPU times do not.  A call that opens a stack on
a pool thread counts as a child of the call open on the thread that created
the tracer, and its busy time is added to that call's.  A layer's self time
is its busy time minus that of the wrapped calls made from inside it.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time
import types
from collections import defaultdict

#: Layers the benchmark reports, by ``<module>.<function>``, with their metrics.
LAYERS = {
    "cli.main": ("calls", "s", "self_s"),
    "optimizer.barrier_optimize": ("calls", "s", "self_s", "newton_iterations", "unconverged"),
    "fairness.beta_fairness": ("calls", "s"),
    "fairness.equitability_efficiency_split": ("calls", "s"),
    "pricing.evaluate": ("calls", "s"),
    "demand.net_utility": ("calls", "s"),
    "deadline.solve_horizon": ("calls", "s", "self_s"),
    "deadline.schedule_feasible": ("calls", "s", "self_s"),
    "simplex.phase_one": ("calls", "s", "max_vars"),
    "charts.render_contours": ("calls", "s"),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "newton_iterations": "count",
         "unconverged": "count", "max_vars": "count"}


def _solve_counters(stats: dict, result, args, kwargs) -> None:
    stats["newton_iterations"] += result.iterations
    stats["unconverged"] += 0 if result.converged else 1


def _lp_counters(stats: dict, result, args, kwargs) -> None:
    A_ge = args[0] if args else kwargs["A_ge"]
    stats["max_vars"] = max(stats["max_vars"], len(A_ge[0]) if len(A_ge) else 0)


COUNTERS = {"optimizer.barrier_optimize": _solve_counters, "simplex.phase_one": _lp_counters}


class _Frame:
    """One open wrapped call: busy seconds of its children and of pool calls."""

    __slots__ = ("children", "pooled")

    def __init__(self) -> None:
        self.children = 0.0
        self.pooled = 0.0


class Tracer:
    """Installs the wrappers, accumulates per-layer totals, and removes them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._stacks = defaultdict(list)  # thread id -> open frames
        self._table = defaultdict(lambda: defaultdict(float))  # layer -> totals
        self._patched = []  # (module, attribute, original)
        self.wrapped = set()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            with self._lock:
                self._stacks[threading.get_ident()].append(frame)
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.thread_time() - start
                with self._lock:
                    stack = self._stacks[threading.get_ident()]
                    stack.pop()
                    # this thread's time already counts in its caller's;
                    # pool time does not, so it is passed up with the call
                    busy += frame.pooled
                    if stack:
                        stack[-1].children += busy
                        stack[-1].pooled += frame.pooled
                    elif threading.get_ident() != self._owner and self._stacks[self._owner]:
                        outer = self._stacks[self._owner][-1]
                        outer.children += busy
                        outer.pooled += busy
                    totals = self._table[name]
                    totals["calls"] += 1
                    totals["s"] += busy
                    totals["self_s"] += busy - frame.children
            if counter is not None:
                with self._lock:
                    counter(self._table[name], result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("cloudpricing")
        modules = {"": package}
        for info in pkgutil.iter_modules(package.__path__):
            try:
                modules[info.name] = importlib.import_module(f"cloudpricing.{info.name}")
            except ImportError:
                continue
        wrappers = {}
        for short, module in modules.items():
            if not short:
                continue
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for attr in public:
                fn = getattr(module, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
                    self.wrapped.add(f"{short}.{attr}")
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def absent(self) -> list:
        return sorted(set(LAYERS) - self.wrapped)

    def metrics(self, passes: int) -> dict:
        """Per-pass layer metrics; a missing layer reads 0 and is counted as absent."""
        out = {}
        for layer, kinds in LAYERS.items():
            for kind in kinds:
                value = self._table[layer][kind] if layer in self._table else 0.0
                if kind != "max_vars":
                    value /= passes
                out[f"{layer}.{kind}"] = {"value": value, "unit": UNITS[kind]}
        out["tracing.absent_layers"] = {"value": len(self.absent()), "unit": "count"}
        return out
