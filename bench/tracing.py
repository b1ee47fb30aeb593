"""Spans recorded from outside txpack, around the calls into each layer.

``Tracer.install`` replaces the module attributes that callers look up
(for example ``txpack.cli.load_mempool_file`` and
``txpack.strategy.SegmentSampler.select_many``) with timing wrappers. Each
span records its name, start, end, parent span and request id; spans stay
in memory until the run writes them out. Attributes a later version of
txpack no longer has are skipped and listed in ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
import tracemalloc

# (span name, [(module, class or None), ...], attribute)
TARGETS = [
    ("cli.main", [("txpack.cli", None)], "main"),
    ("mempool.load_mempool_file",
     [("txpack.mempool", None), ("txpack.cli", None), ("txpack.simulate", None)],
     "load_mempool_file"),
    ("equilibrium.solve_equilibrium",
     [("txpack.equilibrium", None), ("txpack.cli", None), ("txpack.simulate", None)],
     "solve_equilibrium"),
    ("equilibrium.compute_phat", [("txpack.equilibrium", None)], "compute_phat"),
    ("equilibrium.compute_phat_real",
     [("txpack.equilibrium", None), ("txpack.fees", None)], "compute_phat_real"),
    ("equilibrium.solve_xhat", [("txpack.equilibrium", None), ("txpack.fees", None)], "solve_xhat"),
    ("equilibrium.clamp_marginals", [("txpack.equilibrium", None)], "clamp_marginals"),
    ("fees.base_fee", [("txpack.fees", None), ("txpack.cli", None)], "base_fee"),
    ("strategy.sample_block", [("txpack.strategy", None), ("txpack.cli", None)], "sample_block"),
    ("strategy.rejection_sample_block",
     [("txpack.strategy", None), ("txpack.cli", None)], "rejection_sample_block"),
    ("strategy.select_many", [("txpack.strategy", "SegmentSampler")], "select_many"),
    ("verify.verify_equilibrium",
     [("txpack.verify", None), ("txpack.cli", None)], "verify_equilibrium"),
    ("verify.best_response", [("txpack.verify", None)], "best_response"),
    ("verify.expected_utility", [("txpack.verify", None)], "expected_utility"),
    ("simulate.run_experiment",
     [("txpack.simulate", None), ("txpack.cli", None)], "run_experiment"),
    ("simulate.draw",
     [("txpack.simulate", "_ProfileSource"), ("txpack.simulate", "_UniformSource")], "draw"),
]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _result_facts(name: str, args, result) -> dict:
    """Counts read from a call's arguments and result, outside its timed interval."""
    if name == "mempool.load_mempool_file":
        return {"n": len(result)}
    if name == "equilibrium.solve_equilibrium":
        v = result.values
        zero = int((v <= 0.0).sum())
        one = int((v >= 1.0).sum())
        return {"zero": zero, "one": one, "interior": len(v) - zero - one}
    if name == "strategy.rejection_sample_block":
        return {"attempts": int(result[1])}
    if name == "simulate.run_experiment":
        cfg = args[0]
        return {"trials": int(cfg["trials"]), "strategies": len(cfg.get("strategies", ["equilibrium"]))}
    return {}


# Growth of the process's peak RSS across the call; it reads 0 when an
# earlier call already went higher.
_RSS_SPANS = ("mempool.load_mempool_file",)
# Peak bytes allocated during the call (numpy arrays included), from
# tracemalloc, which is on only for these calls: their transient buffers are
# freed before return and need not raise the process's peak RSS.
_ALLOC_SPANS = ("strategy.rejection_sample_block",)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, request, facts]
        self._stack = []
        self.request = None  # calls are recorded only while a request id is set
        self.missing = []
        self._saved = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        track_rss = name in _RSS_SPANS
        track_alloc = name in _ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:  # outside any operation, e.g. the benchmark's checks
                return fn(*args, **kwargs)
            rss0 = _maxrss_kb() if track_rss else 0
            if track_alloc:
                tracemalloc.start()
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            facts = _result_facts(name, args, result)
            if track_rss:
                facts["rss_growth_kb"] = _maxrss_kb() - rss0
            if track_alloc:
                facts["alloc_peak_kb"] = peak / 1024
            self.spans[idx][5].update(facts)
            return result

        return wrapper

    def install(self):
        for name, owners, attr in TARGETS:
            for module_name, cls_name in owners:
                owner = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module_name}.{cls_name + '.' if cls_name else ''}{attr}")
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
