"""Spans around the public functions of every torusque module, from outside.

The tracer replaces each public module-level function of the package with a
wrapper that records its call count, total time, self time (its span minus
the spans of the wrapped calls it made) and longest span.  A function is
replaced at every name it is bound to: `cli` imports `check_relations`,
`weil` imports `pi_op`, and `hecke`, `quevaluator` and `classical` import
`mat_mul`, so replacing only the defining module's attribute would leave the
imported names untraced and charge their time to the caller.  A span is
attributed to the module that defines the function, whichever name it was
called through.

Counts that are exact facts about the work are read from return values
(see COUNTS).  `remove()` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time

MODULES = ("ffcore", "heisenberg", "weil", "hecke", "quevaluator",
           "classical", "cli")

ORIGINAL = "__perfbench_original__"


# qualified function name -> (count name, what one call adds to the count)
COUNTS = {
    "heisenberg.check_relations": ("heisenberg.relation_pairs",
                                   lambda out: out.pairs_checked),
    "quevaluator.build_trace_table": ("quevaluator.trace_table_cells",
                                      lambda out: out.values.size),
    "hecke.centralizer": ("hecke.torus_elements", lambda out: out.order),
}

# functions whose peak-RSS growth is summed as <name>.rss_growth_mb
RSS_WATCHED = ("hecke.centralizer",)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Install with `install()` (or as a context manager), read `stats`."""

    def __init__(self):
        self.package = importlib.import_module("torusque")
        self.modules = [importlib.import_module(f"torusque.{m}") for m in MODULES]
        self.module_names = {m.__name__ for m in self.modules}
        # qualified name -> [calls, total_s, self_s, max_s]
        self.stats: dict[str, list] = {}
        self.counts = {name: 0 for name, _ in COUNTS.values()}
        self.counts.update({f"{q}.rss_growth_mb": 0.0 for q in RSS_WATCHED})
        self._stack: list[float] = []
        self._bindings: list[tuple] = []   # (module, attribute, original)

    def qualname(self, fn) -> str:
        return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    def _is_public_function(self, obj) -> bool:
        # plain functions and lru_cache wrappers defined in one of the modules
        fn = getattr(obj, "__wrapped__", obj)
        return (inspect.isfunction(fn) and not fn.__name__.startswith("_")
                and getattr(obj, "__module__", None) in self.module_names)

    def targets(self) -> dict:
        """Every public function of the modules, by identity -> qualified name."""
        out = {}
        for mod in self.modules:
            for obj in vars(mod).values():
                if self._is_public_function(obj):
                    out[id(obj)] = (obj, self.qualname(obj))
        return out

    def install(self) -> "Tracer":
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(fn, name)
                    for key, (fn, name) in self.targets().items()}
        for mod in [self.package, *self.modules]:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and getattr(wrapper, ORIGINAL) is obj:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def remove(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, fn, name):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        count = COUNTS.get(name)
        counts = self.counts
        rss_key = f"{name}.rss_growth_mb" if name in RSS_WATCHED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = _maxrss_mb() if rss_key else 0.0
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += span
                stat[0] += 1
                stat[1] += span
                stat[2] += span - children
                if span > stat[3]:
                    stat[3] = span
            if rss_key:
                counts[rss_key] += _maxrss_mb() - rss0
            if count is not None:
                counts[count[0]] += count[1](out)
            return out

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def wrapper_cost(self, calls: int = 200_000, repeats: int = 3) -> float:
        """Seconds one wrapped call adds to its caller, timed on a no-op.

        Call it on a tracer that is not installed; it adds a `calibration`
        entry to that tracer's stats.
        """
        def noop(x):
            return x

        wrapped = self._wrap(noop, "calibration.noop")
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop(0)
            t1 = clock()
            for _ in range(calls):
                wrapped(0)
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return max(0.0, sorted(costs)[repeats // 2])

    def leftover_wrappers(self) -> list[str]:
        """Bindings in the package that still hold a wrapper (empty after remove)."""
        return [f"{mod.__name__}.{attr}"
                for mod in [self.package, *self.modules]
                for attr, obj in vars(mod).items() if hasattr(obj, ORIGINAL)]
