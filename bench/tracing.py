"""Per-layer spans for the traced run.

The public functions of each emprank module are wrapped from outside, at
every name their callers look them up by: the defining module, every other
emprank module that imported the name, and the package itself.  A span
records its own duration; its self time is that duration minus the time
covered by the spans it caused.  Spans are kept in memory as per-name sums.

When a wrapped function no longer exists its layer is reported absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _samples(result):
    h, converged = result
    return {"lti.response_samples": len(h), "lti.nonconverged_responses": int(not converged)}


# (module, attribute, span name, counters read off the return value)
TARGETS = [
    ("lti", "impulse_response", "lti.impulse_response", _samples),
    ("lti", "series", "lti.series", None),
    ("cascade", "CascadeNetwork.__init__", "cascade.network_build", None),
    ("cascade", "CascadeNetwork.path_gain", "cascade.path_gain", None),
    ("fisher", "gradient_stack", "fisher.gradient_stack", None),
    (
        "fisher",
        "information_matrix",
        "fisher.information_matrix",
        lambda res: {"fisher.noninformative_patterns": int(res.P is None)},
    ),
    ("ranking", "rank_emps", "ranking.rank_emps", None),
    ("emp", "enumerate_minimal", "emp.enumerate_minimal", None),
    (
        "montecarlo",
        "run_scenario",
        "montecarlo.run_scenario",
        lambda rep: {"montecarlo.rejected_runs": rep.n_rejected_runs},
    ),
    ("pem", "simulate", "pem.simulate", None),
    ("pem", "pem_fit", "pem.pem_fit", lambda fit: {"pem.gn_iterations": fit.n_iter}),
    ("pem", "lfilter", "pem.lfilter", None),
]


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack = []
        self.present = set()
        self.absent = []
        self._undo = []

    def wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += dt
                self.total[name] += dt
                self.self_time[name] += dt - children
                self.calls[name] += 1
            if counters is not None:
                for key, value in counters(result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self):
        """Wrap every target that exists; the others are listed in ``absent``."""
        absent = self.absent = []
        loaded = [m for k, m in sys.modules.items() if k == "emprank" or k.startswith("emprank.")]
        for module, attr, name, counters in TARGETS:
            owner = sys.modules.get(f"emprank.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is None:
                    absent.append(name)
                    continue
                self._patch(cls, method, original, self.wrap(original, name, counters))
            else:
                original = getattr(owner, attr, None)
                if original is None:
                    absent.append(name)
                    continue
                wrapper = self.wrap(original, name, counters)
                # a name imported from outside the package is traced only
                # where the owning module looks it up
                own = getattr(original, "__module__", "").startswith("emprank")
                for mod in loaded if own else [owner]:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, original, wrapper)
            self.present.add(name)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
