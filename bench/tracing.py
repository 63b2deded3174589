"""Span tracing of smoothmusic's layers from outside the package.

Each hooked function is replaced, at every smoothmusic module attribute that
holds it, by a wrapper that records a span (name, start, end, parent) in
memory.  Patching every attribute matters because the modules import each
other's functions by name: ``montecarlo`` calls its own ``steering_matrix``
binding, ``subspace`` its own ``h_star``.  A hooked function that no longer
exists is reported as absent and the command still runs.

Only single-process runs are traced: spans recorded in pool workers would
never reach this process.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _steering_info(args, kwargs, result):
    return result.shape  # (rows, columns) computed


def _pseudospectrum_info(position):
    def info(args, kwargs, result):
        theta = args[position] if len(args) > position else kwargs["theta"]
        return int(np.size(theta))

    return info


def _eig_info(args, kwargs, result):
    smoothed = args[0] if args else kwargs["smoothed"]
    return int(smoothed.l)


def _doas_info(args, kwargs, result):
    return len(result)


def _size_info(args, kwargs, result):
    return int(args[0] if args else kwargs["m"])


# (module, function, what to record about a call)
HOOKS = (
    ("montecarlo", "run_plan", None),
    ("montecarlo", "table1", None),
    ("verify", "run_verification_suite", None),
    ("array_model", "steering_matrix", _steering_info),
    ("array_model", "block_hankel", None),
    ("array_model", "signal_covariance", None),
    ("array_model", "signal_covariance_hadamard", None),
    ("subspace", "sample_covariance_eig", _eig_info),
    ("subspace", "gmusic_weights", None),
    ("subspace", "traditional_pseudospectrum", _pseudospectrum_info(1)),
    ("subspace", "gmusic_pseudospectrum", _pseudospectrum_info(3)),
    ("subspace", "find_doas", _doas_info),
    ("subspace", "separation_report", None),
    ("rmt", "h_star", None),
    ("rmt", "w_star", None),
    ("rmt", "mp_cdf", None),
    ("verify", "quadratic_form_check", _size_info),
    ("verify", "esd_vs_mp", None),
    ("verify", "spike_experiment", None),
    ("verify", "determinant_root_check", None),
)

# both pseudo-spectra report as one layer
PSEUDOSPECTRA = ("subspace.traditional_pseudospectrum", "subspace.gmusic_pseudospectrum")


class Tracer:
    """In-memory span recorder; one per traced command."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, info, exception name]
        self.spans = []
        self._stack = []
        self.absent = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every hook at each smoothmusic module attribute that holds it."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "smoothmusic" or key.startswith("smoothmusic.")
        ]
        for module, function, info in HOOKS:
            owner = sys.modules.get(f"smoothmusic.{module}")
            fn = getattr(owner, function, None)
            if not callable(fn):
                self.absent.append(f"{module}.{function}")
                continue
            wrapper = self.wrap(f"{module}.{function}", fn, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)


def _ms(durations, q):
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced command.

    Self time is a span's duration minus the time its direct children
    cover; calls run one at a time, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _info, _err in spans:
        if parent >= 0:
            child_time[parent] += end - start

    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append((span, span[2] - span[1], span[2] - span[1] - child_time[i]))

    def calls(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(s for name in names for _, _, s in calls(name))

    out = {}
    for name in ("montecarlo.run_plan", "montecarlo.table1", "array_model.block_hankel",
                 "array_model.signal_covariance", "array_model.signal_covariance_hadamard",
                 "rmt.mp_cdf", "verify.esd_vs_mp", "verify.spike_experiment",
                 "verify.determinant_root_check", "cli.main"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("array_model.steering_matrix", "subspace.sample_covariance_eig",
                 "subspace.gmusic_weights", "subspace.find_doas", "subspace.separation_report",
                 "rmt.h_star", "rmt.w_star"):
        out[f"{name}.calls"] = len(calls(name))
        out[f"{name}.self_s"] = self_s(name)

    shapes = [span[4] for span, _, _ in calls("array_model.steering_matrix")]
    out["array_model.steering_matrix.columns"] = sum(cols for _, cols in shapes)
    out["array_model.steering_matrix.mb_computed"] = sum(r * c for r, c in shapes) * 16 / 1e6

    eig = calls("subspace.sample_covariance_eig")
    for label, keep in (("l1", lambda l: l == 1), ("ss", lambda l: l > 1)):
        durations = [d for span, d, _ in eig if keep(span[4])]
        out[f"subspace.sample_covariance_eig.{label}.ms_p50"] = _ms(durations, 50)
        out[f"subspace.sample_covariance_eig.{label}.ms_p90"] = _ms(durations, 90)

    points = [span[4] for name in PSEUDOSPECTRA for span, _, _ in calls(name)]
    out["subspace.pseudospectrum.grid_calls"] = sum(1 for p in points if p > 1)
    out["subspace.pseudospectrum.refine_calls"] = sum(1 for p in points if p == 1)
    out["subspace.pseudospectrum.points"] = sum(points)
    out["subspace.pseudospectrum.self_s"] = self_s(*PSEUDOSPECTRA)

    # spectrum evaluations made inside find_doas, per DoA it returned
    find = calls("subspace.find_doas")
    inside = 0
    for name in PSEUDOSPECTRA:
        for span, _, _ in calls(name):
            parent = span[3]
            while parent >= 0 and spans[parent][0] != "subspace.find_doas":
                parent = spans[parent][3]
            inside += parent >= 0
    returned = sum(span[4] for span, _, _ in find if span[5] is None)
    out["subspace.find_doas.evals_per_doa"] = inside / returned if returned else 0.0
    out["montecarlo.trials.under_resolved"] = sum(
        1 for span, _, _ in find if span[5] == "UnderResolvedError"
    )
    out["montecarlo.trials.find_doas_errors"] = sum(1 for span, _, _ in find if span[5] is not None)

    report = [d for _, d, _ in calls("subspace.separation_report")]
    out["subspace.separation_report.ms_p50"] = _ms(report, 50)
    out["subspace.separation_report.ms_p90"] = _ms(report, 90)

    quad = calls("verify.quadratic_form_check")
    base = min((span[4] for span, _, _ in quad), default=0)
    out["verify.quadratic_form_check.base.ms_p50"] = _ms([d for s, d, _ in quad if s[4] == base], 50)
    out["verify.quadratic_form_check.x4.ms_p50"] = _ms([d for s, d, _ in quad if s[4] == 4 * base], 50)
    out["verify.quadratic_form_check.self_s"] = self_s("verify.quadratic_form_check")
    return out
