"""In-memory span tracing around the package's layer boundaries.

`Tracer.installed` rebinds each public layer function listed in LAYERS, in
every ckngb module namespace that holds it (the defining module and every
module that imported it by name), to a wrapper that records a span:
name, start, end, parent span and operation id.  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus that of its child spans; the operation's root span holds the time
spent in `experiments.run_*` outside every listed function.  Functions
not listed (private helpers, cheap accessors) count toward the span that
called them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, public function, layer metric prefix)
LAYERS = (
    ("system", "balanced_mask_table", "system.balance_table"),
    ("tiesets", "enumerate_min_tiesets", "tiesets.enumerate"),
    ("tiesets", "system_reliability_exact", "tiesets.reliability_exact"),
    ("chain", "build_consolidated", "chain.build"),
    ("sntf", "mean_closed", "sntf.mean_closed"),
    ("sntf", "factorial_moment", "sntf.factorial_moment"),
    ("sntf", "pmf_direct", "sntf.pmf_direct"),
    ("sntf", "survival_direct", "sntf.survival_direct"),
    ("sntf", "pmf_survival_series", "sntf.pmf_survival_series"),
    ("sntf", "raw_moment_series", "sntf.raw_moment_series"),
    ("ttf", "compound_ph", "ttf.compound_ph"),
    ("ttf", "pdf_grid", "ttf.pdf_grid"),
    ("ttf", "raw_moment", "ttf.raw_moment"),
    ("montecarlo", "simulate_sntf", "montecarlo.simulate_sntf"),
    ("montecarlo", "simulate_ttf", "montecarlo.simulate_ttf"),
)
DRIVER = "experiments.driver_self"

PACKAGE = "ckngb"


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_caches() -> dict[str, object]:
    """Every functools.lru_cache in the package, by qualified name."""
    found = {}
    for module in package_modules():
        for value in vars(module).values():
            if (callable(getattr(value, "cache_clear", None))
                    and callable(getattr(value, "cache_info", None))
                    and getattr(value, "__module__", "").startswith(PACKAGE)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def _chain_sizes(chain) -> tuple[int, int, int]:
    """States, nonzeros and bytes of a freshly built consolidated chain."""
    import numpy as np

    P = chain.transition
    if hasattr(P, "nnz"):  # scipy sparse
        nnz = int(P.nnz)
        stored = P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
    else:
        nnz = int(np.count_nonzero(P))
        stored = P.nbytes
    return chain.size, nnz, int(stored + chain.absorb.nbytes + chain.masks.nbytes)


class Tracer:
    def __init__(self, caches: dict[str, object]):
        self.caches = caches
        self.spans: list = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []
        self._op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.uncounted: dict[str, float] = defaultdict(float)  # while counting is off
        self.cache_stats: dict[str, list[int]] = {name: [0, 0] for name in caches}
        self._restore: list = []
        self.counting = True  # False: counts go to `uncounted`, spans as usual

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, metric: str, fn):
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = info().misses if info else 0
            index = self._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts = self.counts if self.counting else self.uncounted
            counts[f"{metric}.calls"] += 1
            if info is None or info().misses > misses:
                self._count(counts, metric, result)
            return result

        return traced

    @staticmethod
    def _count(counts: dict, metric: str, result) -> None:
        if metric == "tiesets.enumerate":
            counts["tiesets.count"] += len(result)
        elif metric == "chain.build":
            states, nnz, nbytes = _chain_sizes(result)
            counts["chain.states"] += states
            counts["chain.nnz"] += nnz
            counts["chain.bytes_computed"] += nbytes
        elif metric == "ttf.compound_ph":
            counts["ttf.compound_dim"] += result.dim
        elif metric.startswith("montecarlo."):
            counts["montecarlo.reps"] += result.replications

    @contextlib.contextmanager
    def installed(self):
        """Layer functions wrapped for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        modules = {m.__name__: m for m in package_modules()}
        for module_name, function, metric in LAYERS:
            original = getattr(modules[f"{PACKAGE}.{module_name}"], function)
            wrapper = self._wrap(metric, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def _uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def run_op(self, op_id: int, command: str, call):
        """Run one operation under a root span; returns the call's result."""
        self._op = op_id
        index = self._open(f"op:{command}")
        try:
            return call()
        finally:
            self._close(index)
            self._op = None
            for name, cache in self.caches.items() if self.counting else ():
                stats = cache.cache_info()
                self.cache_stats[name][0] += stats.hits
                self.cache_stats[name][1] += stats.misses

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, root spans under DRIVER."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, _), inner in zip(self.spans, child):
            totals[DRIVER if parent is None else name] += (end - start) - inner
        return totals

    def cache_hit_ratio(self, qualified_suffix: str) -> float:
        for name, (hits, misses) in self.cache_stats.items():
            if name.endswith(qualified_suffix):
                return hits / (hits + misses) if hits + misses else 0.0
        return 0.0

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
