"""Monte Carlo experiment harness for the smoothed-subspace estimators.

Plans sweep one scenario parameter (snr_db, l, or m) and, per sweep point,
run many independent noise realizations of each requested estimator.  The
output is a table of per-source mean squared errors with explicit failure
accounting, plus the conditional (deterministic-signal) Cramer-Rao bound as
a reference curve.

Determinism contract: every random quantity is derived from the master seed
through named numpy SeedSequence streams keyed by (purpose, sweep point,
trial), so a plan produces bitwise-identical tables no matter how trials
are scheduled across worker processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
import numpy.ma  # np.percentile loads it lazily; import it here, not inside a command

from . import subspace
from .array_model import (
    ArrayScenario,
    SmoothedMatrix,
    min_spacing,
    observe,
    source_matrix,
    steering_derivative,
    steering_matrix,
    wrap_angle,
)

__all__ = [
    "ESTIMATORS",
    "ConsistencyRow",
    "ExperimentPlan",
    "MseRow",
    "Table1Row",
    "consistency_sweep",
    "crb",
    "point_scenario",
    "run_plan",
    "table1",
]

ESTIMATORS = ("music", "gmusic", "music-ss", "gmusic-ss")
SWEEPS = ("snr_db", "l", "m")
DOA_MODES = ("intervals", "window")

# seed-stream tags: 1 = signal draws, 2 = per-trial noise
_STREAM_SIGNAL = 1
_STREAM_NOISE = 2


def _smoothing_factor(estimator: str, l: int) -> int:
    """Smoothing factor used by an estimator (the unsmoothed pair uses l=1)."""
    return l if estimator in ("music-ss", "gmusic-ss") else 1


def _check_estimators(estimators) -> tuple:
    """The estimator set, de-duplicated in order; nonempty and all known."""
    if isinstance(estimators, str):
        raise ValueError(f"estimators must be a sequence of names, got the string {estimators!r}")
    estimators = tuple(dict.fromkeys(estimators))
    if not estimators:
        raise ValueError("need at least one estimator")
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; choose from {ESTIMATORS}")
    return estimators


def _check_rank(scenario: ArrayScenario, estimators) -> None:
    """Reject an estimator whose covariance, of rank N L, is too small.

    MUSIC's k signal eigenvectors must lie in the range (k <= N L); G-MUSIC
    also needs a noise eigenvalue there (k < N L) to estimate sigma2 from.
    """
    for est in estimators:
        nl = scenario.n * _smoothing_factor(est, scenario.l)
        need = scenario.k + 1 if est in ("gmusic", "gmusic-ss") else scenario.k
        if nl < need:
            raise ValueError(
                f"{est} needs N L >= {need} virtual snapshots for k={scenario.k} sources, got N L={nl}"
            )


@dataclass(frozen=True)
class ExperimentPlan:
    """One sweep experiment: scenario template, swept values, trial budget.

    Fields
    ------
    scenario : template; the swept field is replaced per point.
    sweep : "snr_db" | "l" | "m".
    values : swept values, nonempty.
    trials : noise realizations per sweep point, >= 1.
    estimators : subset of ESTIMATORS, order preserved in the output rows.
    doa_mode : "intervals" confines the search to disjoint windows around
        the true DoAs (the estimators the consistency theory defines);
        "window" scans the whole circle for the k deepest minima.
    include_failures : fold wild-estimate trials into the MSE instead of
        only the failure count.
    fresh_signal : redraw the source matrix every trial instead of holding
        one realization (or the caller's signal) fixed across the sweep.
    strict_separation : raise-and-count trials whose top eigenvalues are
        not separated from the bulk (G-MUSIC variants only).
    """

    scenario: ArrayScenario
    sweep: str
    values: tuple
    trials: int
    estimators: tuple = ESTIMATORS
    doa_mode: str = "intervals"
    include_failures: bool = False
    fresh_signal: bool = False
    strict_separation: bool = False

    def __post_init__(self) -> None:
        if self.sweep not in SWEEPS:
            raise ValueError(f"sweep must be one of {SWEEPS}, got {self.sweep!r}")
        if self.sweep == "snr_db":
            values = tuple(float(v) for v in self.values)
        else:
            for v in self.values:
                if not (math.isfinite(v) and v == int(v)):
                    raise ValueError(f"{self.sweep} sweep values must be finite integers, got {v}")
            values = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("sweep values must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        estimators = _check_estimators(self.estimators)
        object.__setattr__(self, "estimators", estimators)
        if self.scenario.k == 0:
            raise ValueError("MSE experiments need at least one source")
        if self.doa_mode not in DOA_MODES:
            raise ValueError(f"doa_mode must be one of {DOA_MODES}, got {self.doa_mode!r}")
        for v in values:
            # fail fast on invalid sweep points
            _check_rank(point_scenario(self, v), estimators)


def point_scenario(plan: ExperimentPlan, value) -> ArrayScenario:
    """Scenario at one sweep point (the swept field replaced by value)."""
    return replace(plan.scenario, **{plan.sweep: value})


class MseRow(NamedTuple):
    """MSE of one estimator for one source at one sweep point.

    trials is the full per-point budget; failures counts the trials that
    produced no usable estimate (under-resolved / not separated) or a wild
    one (error beyond half the source spacing).  mse averages the
    non-failed trials unless the plan folds failures in; it is NaN when
    nothing could be averaged.  crb is the per-source Cramer-Rao bound.
    """

    sweep_value: float
    estimator: str
    source_index: int
    trials: int
    failures: int
    mse: float
    crb: float


def _matched_errors(theta_hat: np.ndarray, doas: Sequence[float]) -> np.ndarray:
    """Signed estimate errors on the circle, in [-pi, pi), after nearest
    assignment to the true DoAs.

    For points on a circle with arc-length cost, some cyclic shift of the two
    sorted orders is an optimal assignment (Karp & Li, "Two special cases of
    the assignment problem", 1975).  So both sets are sorted, the K shifts
    tried, and the first with the least total |error| kept.
    """
    truth = np.asarray(doas, dtype=float)
    k = truth.size
    # sorted by position on the circle, cut at angle 0
    by_truth = np.argsort(np.mod(truth, 2.0 * math.pi))
    est = theta_hat[np.argsort(np.mod(theta_hat, 2.0 * math.pi))]
    shifts = np.arange(k)
    # shifted[s, i] = est[(i + s) % k], matched to the i-th true DoA in order
    shifted = est[(shifts[:, None] + shifts) % k]
    diff = wrap_angle(shifted - truth[by_truth])
    errors = np.empty(k)
    errors[by_truth] = diff[np.argmin(np.sum(np.abs(diff), axis=1))]
    return errors


def _failure_threshold(doas: Sequence[float], m: int) -> float:
    """Error beyond this marks a trial as failed: half the minimum source
    spacing on the circle, or half a beamwidth for a lone source."""
    if len(doas) >= 2:
        return 0.5 * min_spacing(doas)
    return math.pi / m


def _drawn_signal(scenario: ArrayScenario, *key, signal=None) -> np.ndarray:
    """The caller's ``signal``, or else the scenario's source matrix drawn
    from the signal stream keyed by (seed, key) (see :func:`source_matrix`)."""
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, _STREAM_SIGNAL, *key]))
    return source_matrix(scenario, signal, rng)


def _run_trial(task) -> dict:
    """One noise realization: estimate DoAs with every requested estimator.

    Module-level so process pools can pickle it.  Returns
    {estimator: signed errors, or None when the estimator failed}.
    """
    scenario, signal, point, trial, estimators, doa_mode, strict = task
    m, k = scenario.m, scenario.k
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.seed, _STREAM_NOISE, point, trial])
    )
    y = observe(scenario, signal, rng)

    if doa_mode == "intervals":
        policy = subspace.intervals_around(scenario.doas, m)
    else:
        policy = subspace.SearchWindow()

    eigs = {}
    for lval in sorted({_smoothing_factor(e, scenario.l) for e in estimators}):
        eigs[lval] = subspace.sample_covariance_eig(SmoothedMatrix(snapshots=y, l=lval), k)

    out = {}
    for est in estimators:
        eig = eigs[_smoothing_factor(est, scenario.l)]
        try:
            if est in ("music", "music-ss"):
                spectrum = subspace.Pseudospectrum(eig)
            else:
                weights = subspace.gmusic_weights(eig, eig.noise_variance, eig.c_n, strict)
                spectrum = subspace.Pseudospectrum(eig, weights)
            theta_hat = subspace.find_doas(spectrum, k, policy, m)
        except (subspace.UnderResolvedError, subspace.NotSeparatedError):
            out[est] = None
            continue
        out[est] = _matched_errors(theta_hat, scenario.doas)
    return out


def _run_trials(
    scens, signal_of, trials: int, estimators, doa_mode: str, strict: bool, workers: int
) -> list:
    """outcomes[p][t] of :func:`_run_trial` for each scenario p and trial t.

    signal_of(p, t) gives the trial's source matrix.  workers = 0 uses one
    process per CPU; a pool returns results in task order, like the serial
    loop, so the outcomes never depend on the worker count.
    """
    tasks = [
        (sc, signal_of(p, t), p, t, estimators, doa_mode, strict)
        for p, sc in enumerate(scens)
        for t in range(trials)
    ]
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers == 1 or len(tasks) <= 1:
        flat = [_run_trial(task) for task in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_run_trial, tasks, chunksize=chunk))
    return [flat[p * trials : (p + 1) * trials] for p in range(len(scens))]


def run_plan(plan: ExperimentPlan, workers: int = 1, signal=None) -> list:
    """Execute a plan: one MseRow per (sweep point, estimator, source), in
    that order, the estimators in the plan's order.

    workers = 0 uses one process per CPU; any worker count yields the same
    rows because trials are keyed by (point, trial) and aggregated in a
    fixed order.  A ``signal`` is the source matrix of every trial; without
    one it is drawn.  Each point's CRB uses the source matrix of its trial 0.
    """
    if plan.fresh_signal and signal is not None:
        raise ValueError("a fresh_signal plan draws its own signals; pass no signal")
    shared = None if plan.fresh_signal else _drawn_signal(plan.scenario, signal=signal)
    scens = [point_scenario(plan, v) for v in plan.values]

    def signal_of(p, t):
        return _drawn_signal(scens[p], p, t) if plan.fresh_signal else shared

    outcomes = _run_trials(
        scens, signal_of, plan.trials, plan.estimators, plan.doa_mode,
        plan.strict_separation, workers,
    )

    rows = []
    for p, (value, sc) in enumerate(zip(plan.values, scens)):
        threshold = _failure_threshold(sc.doas, sc.m)
        crb_point = crb(sc, signal_of(p, 0))
        for est in plan.estimators:
            sums = np.zeros(sc.k)
            used = 0
            failures = 0
            for out in outcomes[p]:
                errs = out[est]
                if errs is None:
                    failures += 1
                    continue
                if np.max(np.abs(errs)) > threshold:
                    failures += 1
                    if not plan.include_failures:
                        continue
                sums += errs**2
                used += 1
            mse = sums / used if used else np.full(sc.k, np.nan)
            for j in range(sc.k):
                rows.append(
                    MseRow(
                        sweep_value=value,
                        estimator=est,
                        source_index=j,
                        trials=plan.trials,
                        failures=failures,
                        mse=float(mse[j]),
                        crb=float(crb_point[j]),
                    )
                )
    return rows


def crb(scenario: ArrayScenario, signal) -> np.ndarray:
    """Conditional (deterministic-signal) Cramer-Rao bound on each DoA.

    CRB = (sigma2 / (2 N)) diag( [Re((D* P_A^perp D) o (S S*/N)^T)]^{-1} )
    with D the steering derivatives, o the elementwise product and S the
    K x N source matrix ``signal``.
    """
    if scenario.k == 0:
        raise ValueError("CRB needs at least one source")
    n, m = scenario.n, scenario.m
    s = scenario.check_signal(signal)
    a = steering_matrix(m, scenario.doas)
    d = np.column_stack([steering_derivative(m, t) for t in scenario.doas])
    gram = a.conj().T @ a
    proj = d - a @ np.linalg.solve(gram, a.conj().T @ d)
    h = d.conj().T @ proj
    p_mat = s @ s.conj().T / n
    fim = (2.0 * n / scenario.sigma2) * np.real(h * p_mat.T)
    bound = np.linalg.inv(fim)
    out = np.diagonal(bound).copy()
    if not np.all(np.isfinite(out)) or np.any(out <= 0):
        raise np.linalg.LinAlgError("Fisher information matrix is singular")
    return out


class Table1Row(NamedTuple):
    l: int
    min_snr_db_median: float
    min_snr_db_iqr: float


def table1(scenario: ArrayScenario, l_values: Sequence[int], draws: int = 100) -> list:
    """Minimum separation SNR per smoothing factor, summarized over draws.

    For each l the scenario's source matrix is redrawn ``draws`` times (the
    same draws across all l, so the column effect is isolated) and the
    median and interquartile range of separation_report.min_snr_db are
    reported.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    signals = [_drawn_signal(scenario, scenario.k, scenario.n, d) for d in range(draws)]
    rows = []
    for l in l_values:
        sc = replace(scenario, l=l)
        vals = np.array([subspace.separation_report(sc, s).min_snr_db for s in signals])
        q1, q3 = np.percentile(vals, [25.0, 75.0])
        rows.append(Table1Row(l, float(np.median(vals)), float(q3 - q1)))
    return rows


class ConsistencyRow(NamedTuple):
    """Median of m * |theta_hat - theta| for one array size and estimator."""

    m: int
    n: int
    l: int
    estimator: str
    median_scaled_error: float
    trials: int
    failures: int


def consistency_sweep(
    sizes: Sequence[Sequence[int]],
    doas: Sequence[float],
    spacing: str,
    snr_db: float,
    estimators: Sequence[str],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Scaled-error trend across increasing array sizes at near-constant c_N.

    sizes is the sizing policy: (m, n, l) triples with m strictly
    increasing and n, l chosen by the caller so that c_N = (m - l + 1)/(n l)
    stays within 10% of the sweep mean (enforced; e.g. l proportional to m
    with n fixed, or l fixed with n proportional to m).  spacing =
    "absolute" uses the doas as given for every m; "beamwidth" interprets
    them in units of 2 pi / m, which holds the spacing-to-beamwidth ratio
    fixed as m grows.  Each size draws its source matrix from a stream
    keyed by (seed, k, n), so sizes sharing n share the signal, and every
    estimator runs on the same trials.  Returns one ConsistencyRow per
    (size, estimator), in that order, with the per-size statistic the
    median of m * |error| pooled over sources and non-failed trials.
    """
    triples = [(m, n, l) for m, n, l in sizes]
    if not triples:
        raise ValueError("sizes must be nonempty")
    ms = [m for m, _, _ in triples]
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("sizes must have strictly increasing m")
    if len(doas) == 0:
        raise ValueError("consistency sweeps need at least one source")
    estimators = _check_estimators(estimators)
    if spacing not in ("absolute", "beamwidth"):
        raise ValueError(f"spacing must be 'absolute' or 'beamwidth', got {spacing!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    scens = []
    for m, n, l in triples:
        if spacing == "absolute":
            th = tuple(float(t) for t in doas)
        else:
            th = tuple(float(t) * 2.0 * math.pi / m for t in doas)
        scens.append(ArrayScenario(m=m, n=n, l=l, doas=th, snr_db=snr_db, seed=seed))
    for sc in scens:
        _check_rank(sc, estimators)
    cs = np.array([sc.c_n for sc in scens])
    target = float(np.mean(cs))
    if np.max(np.abs(cs - target)) > 0.1 * target:
        raise ValueError(
            f"c_N drifts by more than 10% from the sweep mean {target:.4g} "
            f"({cs.min():.4g}..{cs.max():.4g}); adjust the (n, l) schedule"
        )

    signals = [_drawn_signal(sc, sc.k, sc.n) for sc in scens]
    outcomes = _run_trials(
        scens, lambda p, t: signals[p], trials, estimators, "intervals", False, workers
    )

    rows = []
    for p, sc in enumerate(scens):
        for est in estimators:
            pooled = []
            failures = 0
            for out in outcomes[p]:
                errs = out[est]
                if errs is None:
                    failures += 1
                    continue
                pooled.extend(sc.m * np.abs(errs))
            med = float(np.median(pooled)) if pooled else math.nan
            rows.append(
                ConsistencyRow(
                    m=sc.m,
                    n=sc.n,
                    l=sc.l,
                    estimator=est,
                    median_scaled_error=med,
                    trials=trials,
                    failures=failures,
                )
            )
    return rows
