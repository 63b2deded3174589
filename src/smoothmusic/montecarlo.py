"""Monte Carlo experiment harness for the smoothed-subspace estimators.

Plans sweep one scenario parameter (snr_db, l, or m) and, per sweep point,
run many independent noise realizations of each requested estimator.  The
output is a table of per-source mean squared errors with explicit failure
accounting, plus the conditional (deterministic-signal) Cramer-Rao bound as
a reference curve.

A sweep point's trials run in blocks: one stack of snapshots per block,
smoothed, decomposed and searched as one (see :mod:`smoothmusic.subspace`),
and each block returns, per estimator, arrays over its trials: each
trial's outcome (ok, under-resolved, not separated or wild) and signed
errors.  The process pool takes blocks as its tasks.

Determinism contract: every random quantity is derived from the master seed
through named numpy SeedSequence streams keyed by (purpose, sweep point,
trial), and every layer treats each row of a stack alike, so a plan
produces bitwise-identical tables no matter how trials are cut into blocks
or scheduled across worker processes.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np
import numpy.ma  # np.percentile loads it lazily; import it here, not inside a command

from . import subspace
from .array_model import (
    ArrayScenario,
    SmoothedMatrix,
    _check_count,
    _one_signal,
    draw_signal_matrix,
    min_spacing,
    observe,
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
    "run_plan",
    "table1",
]

log = logging.getLogger(__name__)


class Estimator(NamedTuple):
    """What fixes an estimator: whether it reads the smoothed covariance at
    l = L (else at l = 1), and whether it applies the G-MUSIC weights
    1/h(lambda_hat) (else it is traditional MUSIC)."""

    smoothed: bool
    corrected: bool


ESTIMATORS = {
    "music": Estimator(smoothed=False, corrected=False),
    "gmusic": Estimator(smoothed=False, corrected=True),
    "music-ss": Estimator(smoothed=True, corrected=False),
    "gmusic-ss": Estimator(smoothed=True, corrected=True),
}
SWEEPS = ("snr_db", "l", "m")
DOA_MODES = ("intervals", "window")

# seed-stream tags: 1 = signal draws, 2 = per-trial noise
_STREAM_SIGNAL = 1
_STREAM_NOISE = 2

# what became of one estimator in one trial: an estimate within the failure
# threshold, fewer minima than sources (window search only), a top
# eigenvalue in the bulk (strict_separation only), or an estimate past the
# threshold
OK, UNDER_RESOLVED, NOT_SEPARATED, WILD = "ok", "under-resolved", "not-separated", "wild"
CAUSES = (OK, UNDER_RESOLVED, NOT_SEPARATED, WILD)


# Trials per block B.  A block shares the fixed cost of each numpy call
# among its trials, most of all in the search's ~15 steps per spectrum, but
# holds B snapshot arrays, B x l x M temporaries in each product of the
# eigen search, and a basis that grows with the steps its trials take.  At
# the mc-intervals plan (three estimators, 31 to 37 dB, 40 trials per
# point), one BLAS thread, 2-CPU VM, the median ms per trial of _run_trials
# in process, and the peak RSS of the CLI command:
#
#   B                            1      8      16     20     40
#   (160, 20, 16)  intervals     6.48   1.89   1.69   1.65   1.43
#                  window        6.21   2.33   2.15   1.94   1.82
#                  peak RSS, MB  46.7   46.5   47.5   48.3   51.8
#   (320, 40, 32)  intervals     8.57   4.93   4.85   4.71   4.88
#                  window        9.74   5.80   5.55   5.67   6.26
#                  peak RSS, MB  47.2   50.0   53.3   56.6   67.2
#
# Against 8, 20 takes 13% off a trial at (160, 20, 16) for 1.8 MB; 40
# would take 13% more for 3.6 MB more, and at (320, 40, 32), where the
# eigen layer's own work dominates, it is slower than 20 and holds 10.6 MB
# more.
BLOCK_TRIALS = 20
# blocks per worker that a pool's cut aims at, so that workers finish together
BLOCKS_PER_WORKER = 4


def _smoothing_factor(estimator: str, l: int) -> int:
    """Smoothing factor used by an estimator (the unsmoothed pair uses l=1)."""
    return l if ESTIMATORS[estimator].smoothed else 1


def _check_estimators(estimators) -> tuple:
    """The estimator set, de-duplicated in order; nonempty and all known."""
    if isinstance(estimators, str):
        raise ValueError(f"estimators must be a sequence of names, got the string {estimators!r}")
    estimators = tuple(dict.fromkeys(estimators))
    if not estimators:
        raise ValueError("need at least one estimator")
    unknown = [e for e in estimators if e not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; choose from {tuple(ESTIMATORS)}")
    return estimators


def _check_rank(scenario: ArrayScenario, estimators) -> None:
    """Reject an estimator whose covariance, of rank N L, is too small.

    MUSIC's k signal eigenvectors must lie in the range (k <= N L); G-MUSIC
    also needs a noise eigenvalue there (k < N L) to estimate sigma2 from.
    """
    for est in estimators:
        nl = scenario.n * _smoothing_factor(est, scenario.l)
        need = scenario.k + 1 if ESTIMATORS[est].corrected else scenario.k
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
        one realization fixed across the sweep.
    strict_separation : raise-and-count trials whose top eigenvalues are
        not separated from the bulk (G-MUSIC variants only).
    scenarios : derived, one per value: the template with the swept field replaced.
    """

    scenario: ArrayScenario
    sweep: str
    values: tuple
    trials: int
    estimators: tuple = tuple(ESTIMATORS)
    doa_mode: str = "intervals"
    include_failures: bool = False
    fresh_signal: bool = False
    strict_separation: bool = False
    scenarios: tuple = field(init=False, repr=False, compare=False)

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
        _check_count("trials", self.trials, 1)
        estimators = _check_estimators(self.estimators)
        object.__setattr__(self, "estimators", estimators)
        if self.scenario.k == 0:
            raise ValueError("MSE experiments need at least one source")
        if self.doa_mode not in DOA_MODES:
            raise ValueError(f"doa_mode must be one of {DOA_MODES}, got {self.doa_mode!r}")
        scenarios = tuple(replace(self.scenario, **{self.sweep: v}) for v in values)
        for sc in scenarios:  # fail fast on a point its trials could not run
            _check_rank(sc, estimators)
            if self.doa_mode == "intervals":
                subspace.intervals_around(sc.doas, sc.m)
            _crb_geometry(sc.m, sc.doas)
        object.__setattr__(self, "scenarios", scenarios)


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
    assignment to the true DoAs; a T x k stack of estimates is matched row
    by row, and a row holding nan gives nan errors.

    For points on a circle with arc-length cost, some cyclic shift of the two
    sorted orders is an optimal assignment (Karp & Li, "Two special cases of
    the assignment problem", 1975).  So both sets are sorted, the K shifts
    tried, and the first with the least total |error| kept.
    """
    truth = np.asarray(doas, dtype=float)
    k = truth.size
    # sorted by position on the circle, cut at angle 0
    by_truth = np.argsort(np.mod(truth, 2.0 * math.pi))
    order = np.argsort(np.mod(theta_hat, 2.0 * math.pi), axis=-1)
    est = np.take_along_axis(theta_hat, order, axis=-1)
    shifts = np.arange(k)
    # shifted[..., s, i] = est[..., (i + s) % k], matched to the i-th true DoA in order
    shifted = est[..., (shifts[:, None] + shifts) % k]
    diff = wrap_angle(shifted - truth[by_truth])
    best = np.argmin(np.sum(np.abs(diff), axis=-1), axis=-1)
    errors = np.empty(theta_hat.shape)
    errors[..., by_truth] = np.take_along_axis(diff, best[..., None, None], axis=-2)[..., 0, :]
    return errors


def _failure_threshold(doas: Sequence[float], m: int) -> float:
    """Error beyond this marks a trial as failed: half the minimum source
    spacing on the circle, or half a beamwidth for a lone source."""
    if len(doas) >= 2:
        return 0.5 * min_spacing(doas)
    return math.pi / m


def _drawn_signal(scenario: ArrayScenario, *key) -> np.ndarray:
    """The scenario's source matrix, drawn under its policy from the signal
    stream keyed by (seed, key)."""
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, _STREAM_SIGNAL, *key]))
    return draw_signal_matrix(scenario.k, scenario.n, scenario.signal_policy, rng)


def _run_block(task) -> dict:
    """Trials first, first + 1, ... of one sweep point, one per source
    matrix in signals, run as one stack: their noise draws, filled into one
    T x M x N array, and per smoothing factor one stack of eigensystems and
    one search (subspace.find_doas) of a Pseudospectrum with a row per
    estimator on that eigensystem and trial, with one stack of weights per
    G-MUSIC estimator.

    Module-level so process pools can pickle it.  Returns, per estimator,
    (causes, errors): each trial's cause, one of CAUSES, and its signed
    errors, a row of nan where it gave no estimate (under-resolved or not
    separated).  Each trial draws its noise from its own stream and every
    layer treats the rows of a stack alike, so a trial's outcome does not
    depend on the block it runs in, nor on the estimators searched with it.
    """
    scenario, signals, point, first, policy, estimators, strict = task
    m, k, trials = scenario.m, scenario.k, len(signals)
    y = np.empty((trials, m, scenario.n), dtype=complex)
    for i, signal in enumerate(signals):
        noise = np.random.SeedSequence([scenario.seed, _STREAM_NOISE, point, first + i])
        y[i] = observe(scenario, signal, np.random.default_rng(noise))
    threshold = _failure_threshold(scenario.doas, m)

    out = {}
    for lval in sorted({_smoothing_factor(e, scenario.l) for e in estimators}):
        eig = subspace.sample_covariance_eig(SmoothedMatrix(snapshots=y, l=lval), k)
        ests = [e for e in estimators if _smoothing_factor(e, scenario.l) == lval]
        # a row that does not separate is searched with weights 1, and not read
        weights = tuple(
            subspace.gmusic_weights(eig, eig.noise_variance, eig.c_n) if ESTIMATORS[e].corrected else None
            for e in ests
        )
        found = subspace.find_doas(subspace.Pseudospectrum(eig, weights), k, policy, m)
        for est, doas in zip(ests, np.split(found, len(ests))):
            not_separated = np.zeros(trials, dtype=bool)
            if strict and ESTIMATORS[est].corrected:
                not_separated = ~subspace.separated(eig, eig.noise_variance, eig.c_n).all(axis=-1)
            unresolved = np.isnan(doas[:, 0])
            errors = _matched_errors(doas, scenario.doas)
            errors[not_separated | unresolved] = np.nan
            wild = np.max(np.abs(errors), axis=-1) > threshold  # False on a row of nan
            causes = np.select(
                [not_separated, unresolved, wild], [NOT_SEPARATED, UNDER_RESOLVED, WILD], OK
            )
            out[est] = causes, errors
    return {est: out[est] for est in estimators}


def _run_trials(
    scens, signal_of, trials: int, estimators, doa_mode: str, strict: bool, workers: int
) -> list:
    """outcomes[p][estimator] = (causes, errors) over the trials of each
    scenario p, as :func:`_run_block` gives them for a block.

    signal_of(p, t) gives the trial's source matrix.  A point's trials run
    in blocks of at most BLOCK_TRIALS (:func:`_run_block`), on the point's
    search policy, built once.  workers (checked by the callers) = 0 uses
    one process per CPU; a pool runs the blocks, cut so that each worker
    gets several, and returns them in task order, like the serial loop.
    So the outcomes never depend on the worker count.
    """
    if workers == 0:
        workers = os.cpu_count() or 1
    parts = -(-trials // BLOCK_TRIALS)
    if workers > 1:
        parts = max(parts, -(-BLOCKS_PER_WORKER * workers // len(scens)))
    parts = min(parts, trials)
    cuts = [trials * i // parts for i in range(parts + 1)]
    tasks = []
    for p, sc in enumerate(scens):
        if doa_mode == "intervals":
            policy = subspace.intervals_around(sc.doas, sc.m)
        else:
            policy = subspace.SearchWindow()
        for lo, hi in zip(cuts, cuts[1:]):
            signals = [signal_of(p, t) for t in range(lo, hi)]
            tasks.append((sc, signals, p, lo, policy, estimators, strict))
    if workers == 1 or len(tasks) <= 1:
        blocks = [_run_block(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_run_block, tasks))
    points = [blocks[p * parts : (p + 1) * parts] for p in range(len(scens))]
    return [
        {est: tuple(map(np.concatenate, zip(*(block[est] for block in point)))) for est in estimators}
        for point in points
    ]


def run_plan(plan: ExperimentPlan, workers: int = 1) -> list:
    """Execute a plan: one MseRow per (sweep point, estimator, source), in
    that order, the estimators in the plan's order.

    workers = 0 uses one process per CPU; any worker count yields the same
    rows because trials are keyed by (point, trial) and aggregated in a
    fixed order.  Each point's CRB uses the source matrix of its trial 0.
    """
    _check_count("workers", workers, 0)
    shared = None if plan.fresh_signal else _drawn_signal(plan.scenario)

    def signal_of(p, t):
        return _drawn_signal(plan.scenarios[p], p, t) if plan.fresh_signal else shared

    outcomes = _run_trials(
        plan.scenarios, signal_of, plan.trials, plan.estimators, plan.doa_mode,
        plan.strict_separation, workers,
    )

    rows = []
    for p, (value, sc) in enumerate(zip(plan.values, plan.scenarios)):
        crb_point = crb(sc, signal_of(p, 0))
        for est in plan.estimators:
            causes, errors = outcomes[p][est]
            used = (causes == OK) | ((causes == WILD) & plan.include_failures)
            failures = int(np.count_nonzero(causes != OK))
            log.debug(
                "montecarlo: %s %s %s: %s", plan.sweep, value, est,
                ", ".join(f"{cause} {np.count_nonzero(causes == cause)}" for cause in CAUSES),
            )
            mse = np.full(sc.k, np.nan)
            if used.any():
                # a running sum adds the trials in order; np.sum would pair
                # them up along a contiguous axis, and round otherwise
                mse = np.cumsum(errors[used] ** 2, axis=0)[-1] / np.count_nonzero(used)
            for j in range(sc.k):
                rows.append(MseRow(
                    sweep_value=value, estimator=est, source_index=j, trials=plan.trials,
                    failures=failures, mse=float(mse[j]), crb=float(crb_point[j]),
                ))
    return rows


def _crb_geometry(m: int, doas) -> np.ndarray:
    """D* P_A^perp D, with D the steering derivatives.  The solve on A* A
    rounds P_A^perp D by about eps cond(A* A) of D; DoAs too close for it
    to stand 1e3 times above that have no bound, and are refused by name."""
    a = steering_matrix(m, doas)
    d = np.column_stack([steering_derivative(m, t) for t in doas])
    gram = a.conj().T @ a
    room = 1e3 * np.finfo(float).eps * np.linalg.cond(gram, 1)
    if room < 1.0:
        proj = d - a @ np.linalg.solve(gram, a.conj().T @ d)
        if np.all(np.linalg.norm(proj, axis=0) > room * np.linalg.norm(d, axis=0)):
            return d.conj().T @ proj
    raise ValueError(f"doas {tuple(doas)} are too close for a Cramer-Rao bound at m={m}")


def crb(scenario: ArrayScenario, signal) -> np.ndarray:
    """Conditional (deterministic-signal) Cramer-Rao bound on each DoA.

    CRB = (sigma2 / (2 N)) diag( [Re((D* P_A^perp D) o (S S*/N)^T)]^{-1} )
    with D the steering derivatives, o the elementwise product and S the
    K x N source matrix ``signal``.
    """
    if scenario.k == 0:
        raise ValueError("CRB needs at least one source")
    s = _one_signal(scenario, signal)
    h = _crb_geometry(scenario.m, scenario.doas)
    p_mat = s @ s.conj().T / scenario.n
    fim = (2.0 * scenario.n / scenario.sigma2) * np.real(h * p_mat.T)
    bound = np.linalg.inv(fim)
    out = np.diagonal(bound).copy()
    if not np.all(np.isfinite(out)) or np.any(out <= 0):
        raise np.linalg.LinAlgError("Fisher information matrix is singular")
    return out


class Table1Row(NamedTuple):
    l: int
    min_snr_db_median: float
    min_snr_db_iqr: float


def _table1_scenarios(scenario: ArrayScenario, l_values: Sequence[int]) -> list:
    """The scenario at each smoothing factor of a separation table.

    A scenario without sources is refused, and so is an l with k > N l:
    P o C, of rank at most N l, then leaves the K-th signal eigenvalue 0 in
    every draw, and the minimum separation SNR infinite.
    """
    if scenario.k == 0:
        raise ValueError("separation analysis needs at least one source")
    scenarios = [replace(scenario, l=l) for l in l_values]
    for sc in scenarios:
        if sc.k > sc.virtual_snapshots:
            raise ValueError(
                f"l={sc.l} leaves N l = {sc.virtual_snapshots} < k = {sc.k}: the signal "
                "covariance has fewer than k nonzero eigenvalues in every draw"
            )
    return scenarios


def _median_iqr(vals: np.ndarray) -> tuple:
    """Median and interquartile range of draws some of which may be inf.

    The quartiles follow np.percentile's linear rule between the two order
    statistics around each: one of weight 0 is not read, and an inf one of
    positive weight makes the quartile inf.  Two equal quartiles, inf ones
    too, have a range of 0.  (np.percentile reads inf * 0 and inf - inf as
    nan there, and warns.)
    """
    with np.errstate(invalid="ignore"):
        q = np.percentile(vals, [25.0, 75.0])
    # nan only where an inf order statistic entered; the upper one is then
    # the quartile itself at weight 0, and inf otherwise
    upper = np.sort(vals)[np.ceil(np.array([0.25, 0.75]) * (vals.size - 1)).astype(int)]
    q1, q3 = np.where(np.isnan(q), upper, q)
    return float(np.median(vals)), float(q3 - q1) if q3 > q1 else 0.0


def table1(scenario: ArrayScenario, l_values: Sequence[int], draws: int = 100) -> list:
    """Minimum separation SNR per smoothing factor, summarized over draws.

    For each l the scenario's source matrix is redrawn ``draws`` times (the
    same draws across all l, so the column effect is isolated) and the
    median and interquartile range of separation_report.min_snr_db are
    reported (:func:`_median_iqr`; a draw whose K-th signal eigenvalue is 0
    reads inf).  The draws are stacked, so each l takes one
    separation_report call for all of them.  Every l is checked before the
    first draw.
    """
    _check_count("draws", draws, 1)
    scenarios = _table1_scenarios(scenario, l_values)
    signals = np.stack([_drawn_signal(scenario, scenario.k, scenario.n, d) for d in range(draws)])
    rows = []
    for l, sc in zip(l_values, scenarios):
        vals = subspace.separation_report(sc, signals).min_snr_db
        rows.append(Table1Row(l, *_median_iqr(vals)))
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
    with n fixed, or l fixed with n proportional to m).  The doas are in
    beamwidths, units of 2 pi / m, which holds the spacing-to-beamwidth
    ratio fixed as m grows.  Each size draws its source matrix from a stream
    keyed by (seed, k, n), so sizes sharing n share the signal, and every
    estimator runs on the same trials.  Returns one ConsistencyRow per
    (size, estimator), in that order, with the per-size statistic the
    median of m * |error| pooled over sources and non-failed trials.
    DoAs too close for a Cramer-Rao bound at some size are refused, as a
    plan refuses them: no estimate can tell them apart there.
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
    _check_count("trials", trials, 1)
    _check_count("workers", workers, 0)

    scens = []
    for m, n, l in triples:
        th = [float(t) * 2.0 * math.pi / m for t in doas]
        scens.append(ArrayScenario(m=m, n=n, l=l, doas=th, snr_db=snr_db, seed=seed))
    for sc in scens:
        _check_rank(sc, estimators)
        subspace.intervals_around(sc.doas, sc.m)
        _crb_geometry(sc.m, sc.doas)
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
            causes, errors = outcomes[p][est]
            estimated = (causes == OK) | (causes == WILD)
            failures = int(np.count_nonzero(~estimated))
            med = float(np.median(sc.m * np.abs(errors[estimated]))) if failures < trials else math.nan
            rows.append(ConsistencyRow(
                m=sc.m, n=sc.n, l=sc.l, estimator=est, median_scaled_error=med, trials=trials,
                failures=failures,
            ))
    return rows
