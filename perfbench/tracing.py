"""In-memory spans around calls into the package's modules.

The tracer wraps functions from outside the package: every module
attribute bound to a target function (the defining module and each
``from .x import f`` site) is swapped for a timing wrapper while the
tracer is installed. A target the package no longer defines is skipped,
so a refactor leaves the matching metric at zero instead of breaking the
run. Spans are ``[name, start, end, parent_index, info]`` lists.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _jd_info(result):
    return [getattr(result, "sweeps_used", None),
            getattr(result, "converged", None),
            getattr(result, "final_off_criterion", None)]


def _trace_len(result):
    return len(getattr(result, "trace", ()))


#: (span name, defining module, attribute, result -> info).
TARGETS = (
    ("series.load_csv", "sosdim.series", "load_csv", None),
    ("series.standardized_autocovs", "sosdim.series", "standardized_autocovs", None),
    # bss whitens through a private copy of standardized_autocovs.
    ("series.standardized_autocovs", "sosdim.bss", "_whitened_autocovs", None),
    ("jointdiag.joint_diagonalize", "sosdim.jointdiag", "joint_diagonalize", _jd_info),
    ("bss.unmix", "sosdim.bss", "unmix", None),
    ("dimtest.estimate_dimension", "sosdim.dimtest", "estimate_dimension", None),
    ("dimtest.estimate_dimension_from_fit", "sosdim.dimtest",
     "estimate_dimension_from_fit", _trace_len),
    ("dimtest.test_statistic", "sosdim.dimtest", "test_statistic", None),
    ("dimtest.bootstrap_noise_test", "sosdim.dimtest", "bootstrap_noise_test", None),
    ("simulate.simulate_setting", "sosdim.simulate", "simulate_setting", None),
    ("simulate.dimension_table", "sosdim.simulate", "dimension_table", None),
    ("cli.report_validate", "jsonschema", "validate", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(result)
            return result

        return wrapper

    def run(self, name, fn, *args):
        """Call fn(*args) inside a root span named name."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "sosdim" or k.startswith("sosdim.")]
        for name, module, attr, info in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, info)
            for ns in {id(owner): owner, **{id(m): m for m in namespaces}}.values():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self):
        while self._patched:
            ns, key, original = self._patched.pop()
            setattr(ns, key, original)
