"""Timing wrappers and span bookkeeping for the traced benchmark run.

The library is not edited. A traced pass replaces the public functions
listed in ``TARGETS`` with wrappers at every place they are bound: the
defining module and each polyasum module that imported the name (for
example ``polyasum.samplers.e1_inverse`` and
``polyasum.verify.sample_gamma_measure_batch``), or the class for a
method. Each call records one span (function, start, end, parent span)
in memory; times are process CPU time, like the end-to-end metrics. Spans are turned into per-layer metrics after the pass and
written out when the run ends.

Self time is a span's duration minus the time its direct child spans
cover. Busy time of a layer sums the spans of that layer that have no
ancestor in the same layer, so nested calls inside one layer are
counted once.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import process_time

import numpy as np

MARK = "_perfbench_original"


def _args(args, result):
    return {"e1_inverse.args": int(np.size(args[0]))}


def _gamma(args, result):
    return {"gamma_batch.atoms": int(result.weight.size),
            "gamma_batch.replicas": int(result.n)}


def _direct(args, result):
    return {"direct_batch.records": int(result.rep.size)}


def _replicas(key):
    def count(args, result):
        return {key: int(args[0].n)}
    return count


def _solves(args, result):
    feasible = result[2]
    return {"solve_zw.attempted": int(feasible.size),
            "solve_zw.infeasible": int(feasible.size - feasible.sum())}


def _checks(args, result):
    return {"verify.checks_run": 1,
            "verify.checks_failed": int(not result.passed)}


# (span name, layer, defining module, attribute, counter).  A dotted
# attribute names a method on a class of that module.
TARGETS = (
    ("expint.e1_inverse", "expint.e1_inverse", "polyasum.expint",
     "e1_inverse", _args),
    ("samplers.sample_gamma_measure_batch", "samplers.gamma_batch",
     "polyasum.samplers", "sample_gamma_measure_batch", _gamma),
    ("samplers._posterior_from_config_batch", "samplers.posterior",
     "polyasum.samplers", "_posterior_from_config_batch", None),
    ("samplers.sample_posterior_batch", "samplers.posterior",
     "polyasum.samplers", "sample_posterior_batch", None),
    ("samplers._poisson_from_atomic_batch", "samplers.poisson_from_atomic",
     "polyasum.samplers", "_poisson_from_atomic_batch", None),
    ("samplers.sample_polya_direct_batch", "samplers.direct_batch",
     "polyasum.samplers", "sample_polya_direct_batch", _direct),
    ("samplers.sample_mixed_batch", "samplers.mixed_batch",
     "polyasum.samplers", "sample_mixed_batch", None),
    ("samplers.ConfigurationBatch.zeta", "samplers.reduce",
     "polyasum.samplers", "ConfigurationBatch.zeta", None),
    ("samplers.ConfigurationBatch.counts", "samplers.reduce",
     "polyasum.samplers", "ConfigurationBatch.counts", None),
    ("samplers.ConfigurationBatch.distinct_counts", "samplers.reduce",
     "polyasum.samplers", "ConfigurationBatch.distinct_counts", None),
    ("samplers.AtomicBatch.zeta", "samplers.reduce",
     "polyasum.samplers", "AtomicBatch.zeta", None),
    ("samplers.AtomicBatch.masses", "samplers.reduce",
     "polyasum.samplers", "AtomicBatch.masses", None),
    ("samplers.ConfigurationBatch.to_configurations",
     "samplers.to_configurations", "polyasum.samplers",
     "ConfigurationBatch.to_configurations",
     _replicas("to_configurations.replicas")),
    ("samplers.AtomicBatch.to_measures", "samplers.to_measures",
     "polyasum.samplers", "AtomicBatch.to_measures",
     _replicas("to_measures.replicas")),
    ("state_space.PointConfiguration.to_dict", "state_space.to_dict",
     "polyasum.state_space", "PointConfiguration.to_dict", None),
    ("state_space.AtomicMeasure.to_dict", "state_space.to_dict",
     "polyasum.state_space", "AtomicMeasure.to_dict", None),
    ("cli.run_simulate", "cli.run_simulate", "polyasum.cli",
     "run_simulate", None),
    ("estimators.solve_zw_batch", "estimators.solve_zw_batch",
     "polyasum.estimators", "solve_zw_batch", _solves),
    *(("verify." + name, "verify", "polyasum.verify", name, _checks)
      for name in ("check_conjugacy", "check_polya_ibp", "check_mixed_ibp",
                   "check_transform_identity", "check_mecke")),
    *(("transforms." + name, "transforms", "polyasum.transforms", name, None)
      for name in ("_integrate_cellwise", "laplace_gp", "laplace_polya",
                   "joint_laplace", "polya_campbell_exact", "nb_pmf",
                   "nb_pmf_table", "logseries_pmf", "logseries_mean")),
)

LAYER_OF = {name: layer for name, layer, *_ in TARGETS}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "polyasum"
                                  or name.startswith("polyasum."))]


def _resolve(module_name, attr):
    """Return (original, [(owner, attribute), ...]) for one target."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return cls.__dict__[meth], [(cls, meth)]
    original = getattr(module, attr)
    sites = [(m, key) for m in _package_modules()
             for key, value in vars(m).items() if value is original]
    return original, sites


class Tracer:
    """Installs the wrappers for one pass and records its spans."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._installed = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, process_time(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, result))
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        try:
            for name, _layer, module_name, attr, counter in TARGETS:
                original, sites = _resolve(module_name, attr)
                if hasattr(original, MARK):
                    raise RuntimeError(f"{name} is already wrapped")
                wrapper = self._wrap(name, original, counter)
                for owner, key in sites:
                    self._installed.append((owner, key, original))
                    setattr(owner, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
            if vars(owner)[key] is not original:
                raise RuntimeError(f"could not restore {key}")
        self._installed.clear()
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def seal(self):
        """Turn the spans of a finished pass into tuples.  The garbage
        collector stops tracking tuples of numbers and strings, so spans
        kept until the end of the run do not slow the later passes."""
        self.spans = [tuple(span) for span in self.spans]

    def layer_times(self):
        """Per-layer busy and self seconds, and span count per name."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, self_s, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = LAYER_OF[name]
            calls[name] += 1
            self_s[layer] += end - start - child[i]
            outermost = True
            while parent >= 0:
                p_name = self.spans[parent][0]
                if p_name == name:
                    raise RuntimeError(f"{name} is nested in itself: "
                                       "a function is wrapped twice")
                if LAYER_OF[p_name] == layer:
                    outermost = False
                parent = self.spans[parent][3]
            if outermost:
                busy[layer] += end - start
        return busy, self_s, calls


def leftover_wrappers():
    """Names of polyasum attributes that still hold a timing wrapper."""
    found = []
    for m in _package_modules():
        for key, value in vars(m).items():
            if hasattr(value, MARK):
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type):
                found.extend(f"{m.__name__}.{key}.{k}"
                             for k, v in vars(value).items()
                             if hasattr(v, MARK))
    return found
