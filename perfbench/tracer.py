"""Outside-in spans around siolab's public functions, with self time.

The tracer wraps named functions of an already imported package and rebinds
every module-level name that holds one of them, so a function imported with
``from .forms import operator_norm_p2`` is traced in the importing module
too.  The program itself is not changed: reports written under tracing are
byte-identical to untraced ones.

Each wrapped name records ``calls``, ``total_s`` and ``self_s`` (total minus
the time spent in wrapped children), ``rss_rise_mb`` (the largest rise of the
process's peak RSS during one call) and any per-name counters read from the
returned value.  Span names, e.g. ``forms.operator_norm_p2``, are the names
later in-program spans should reuse.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# Counters read from a traced function's return value.
COUNTERS = {
    "kernels.materialize": {"entries_mb": lambda r: r.entries.nbytes / 2**20},
    "forms.operator_norm_p2": {"iterations": lambda r: r.iterations},
    # the heuristic stores its number of block evaluations as ``iterations``
    "forms.restricted_norm_heuristic": {"evaluations": lambda r: r.iterations},
    "muckenhoupt.ap_alpha_constant": {
        "ball_evals": lambda r: r.scan["centers"]["count"] * len(r.scan["radii"]["values"])
    },
}

# Every traced span.  ``cli.run`` is traced so that ``cli.main`` self time is
# the part of a command outside ``cli.run``: argparse, config, JSON/CSV output.
SPANS = (
    "cli.main",
    "cli.run",
    "kernels.materialize",
    "forms.operator_norm_p2",
    "forms.restricted_norm_heuristic",
    "forms.bilinear_form",
    "muckenhoupt.ap_alpha_constant",
    "muckenhoupt.necessity_experiment",
    "splitter.build_partition",
    "splitter.verify_partition",
    "mollifiers.wiener_norm",
    "truncation.compare_truncations",
)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Per-name call statistics with self time from a stack of open spans."""

    def __init__(self, clock=time.perf_counter, rss=peak_rss_mb):
        self.clock = clock
        self.rss = rss
        self.stats: dict[str, dict[str, float]] = {}
        self._child_time: list[float] = []

    def wrap(self, name: str, fn, counters=None):
        counters = counters or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            rss_before = self.rss()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                st = self.stats.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_rise_mb": 0.0}
                )
                st["calls"] += 1
                st["total_s"] += elapsed
                st["self_s"] += elapsed - children
                st["rss_rise_mb"] = max(st["rss_rise_mb"], self.rss() - rss_before)
            for key, read in counters.items():
                st[key] = st.get(key, 0) + read(result)
            return result

        return traced


def install(tracer: Tracer, package: str = "siolab", spans=SPANS) -> None:
    """Wrap each ``module.function`` of ``package`` and rebind every holder.

    Raises ``RuntimeError`` if a span names a missing function, or if any
    module of the package still holds an unwrapped original afterwards.
    """
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    originals = {}
    for span in spans:
        module_name, _, func_name = span.rpartition(".")
        module = sys.modules.get(f"{package}.{module_name}")
        original = getattr(module, func_name, None)
        if original is None:
            raise RuntimeError(f"cannot trace {span}: no such function")
        originals[span] = original
        wrapper = tracer.wrap(span, original, COUNTERS.get(span))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
    leaks = [
        f"{m.__name__}.{attr}"
        for m in modules
        for attr, value in vars(m).items()
        for original in originals.values()
        if value is original
    ]
    if leaks:
        raise RuntimeError(f"unwrapped names remain: {sorted(leaks)}")
