"""Tests for the Monte-Carlo harness and the deterministic-signal error bound.

The error-bound implementation is checked against a brute-force Fisher
information matrix assembled by finite differences over every real model
parameter (angles plus real and imaginary source entries), and against the
single-source closed form 6 sigma2 / (N p (M^2 - 1)).  Harness tests pin
worker-count independence bitwise, seeded reproducibility, the failure
bookkeeping, and that every trial reaches the eigen layer through
subspace.sample_covariance_eig.
"""

import dataclasses
import math

import numpy as np
import pytest

from smoothmusic import subspace
from smoothmusic.array_model import (
    ArrayScenario,
    SmoothedMatrix,
    draw_signal_matrix,
    synthesize_snapshots,
)
from smoothmusic.montecarlo import (
    ESTIMATORS,
    ExperimentPlan,
    _failure_threshold,
    _matched_errors,
    consistency_sweep,
    crb,
    point_scenario,
    run_plan,
    table1,
)


def _fim_brute_force(m, doas, signal, sigma2):
    """Fisher information for [angles, Re S, Im S] by central differences.

    The mean of the observation stack is mu(theta, S) = vec(A(theta) S);
    for complex Gaussian noise of per-entry power sigma2 the information
    matrix is (2 / sigma2) Re(J* J) with J the Jacobian of mu.
    """
    k, n = signal.shape
    pvec = np.concatenate([np.asarray(doas, float), signal.real.ravel(), signal.imag.ravel()])

    def mu(params):
        th = params[:k]
        s = params[k : k + k * n].reshape(k, n) + 1j * params[k + k * n :].reshape(k, n)
        a = np.exp(1j * np.arange(m)[:, None] * th[None, :]) / math.sqrt(m)
        return (a @ s).ravel()

    h = 1e-7
    cols = []
    for i in range(pvec.size):
        up, dn = pvec.copy(), pvec.copy()
        up[i] += h
        dn[i] -= h
        cols.append((mu(up) - mu(dn)) / (2 * h))
    jac = np.column_stack(cols)
    return (2.0 / sigma2) * np.real(jac.conj().T @ jac)


def test_crb_matches_brute_force_fisher_information():
    """The closed-form bound equals the angle block of the inverted full FIM."""
    rng = np.random.default_rng(8)
    doas = (-0.7, 0.5)
    m, n = 8, 4
    signal = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    sc = ArrayScenario(m=m, n=n, l=2, doas=doas, snr_db=10.0)
    fim = _fim_brute_force(m, doas, signal, sc.sigma2)
    oracle = np.diagonal(np.linalg.inv(fim))[:2]
    got = crb(sc, signal=signal)
    np.testing.assert_allclose(got, oracle, rtol=1e-6, err_msg="bound disagrees with brute-force FIM")


def test_crb_single_source_closed_form():
    """One source: bound is exactly 6 sigma2 / (N p (M^2 - 1))."""
    rng = np.random.default_rng(9)
    for m, n, snr in [(16, 8, 10.0), (64, 5, 0.0), (9, 3, 23.0)]:
        signal = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
        sc = ArrayScenario(m=m, n=n, l=2, doas=(0.4,), snr_db=snr)
        p = float(np.sum(np.abs(signal) ** 2) / n)
        expected = 6.0 * sc.sigma2 / (n * p * (m**2 - 1))
        got = crb(sc, signal=signal)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(expected, rel=1e-12), f"m={m}, n={n}"


def test_crb_halves_when_snapshots_double():
    """Duplicating the snapshot block (same per-snapshot power) halves the bound."""
    rng = np.random.default_rng(10)
    signal = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    sc1 = ArrayScenario(m=12, n=6, l=3, doas=(-0.2, 0.9), snr_db=5.0)
    sc2 = dataclasses.replace(sc1, n=12)
    b1 = crb(sc1, signal=signal)
    b2 = crb(sc2, signal=np.hstack([signal, signal]))
    np.testing.assert_allclose(b2, 0.5 * b1, rtol=1e-12)


def test_crb_validation():
    """Sourceless scenarios and misshapen signals are rejected."""
    with pytest.raises(ValueError):
        crb(ArrayScenario(m=8, n=4, l=2, doas=(), snr_db=0.0), signal=np.ones((0, 4)))
    one = ArrayScenario(m=8, n=4, l=2, doas=(0.3,), snr_db=0.0)
    with pytest.raises(ValueError):
        crb(one, signal=np.ones((2, 4)))


WIDE = (0.0, 5 * 2 * math.pi / 32)  # five beamwidths apart on the 32-sensor array


def _row(rows, sweep_value, estimator, source_index=0):
    """The one run_plan row for (sweep point, estimator, source)."""
    (row,) = [
        r for r in rows
        if (r.sweep_value, r.estimator, r.source_index) == (sweep_value, estimator, source_index)
    ]
    return row


def test_run_plan_worker_count_invariance():
    """Serial and process-pool execution produce identical rows."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0, 15.0), trials=6)
    serial = run_plan(plan, workers=1)
    pooled = run_plan(plan, workers=2)
    assert serial == pooled, "rows must not depend on the worker count"
    # and a rerun is bitwise reproducible
    again = run_plan(plan, workers=1)
    assert serial == again


def test_run_plan_row_bookkeeping():
    """Rows cover every (point, estimator, source) in that order; CRB attached."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0, 15.0), trials=4)
    rows = run_plan(plan)
    assert [(r.sweep_value, r.estimator, r.source_index) for r in rows] == [
        (v, est, j) for v in (5.0, 15.0) for est in ESTIMATORS for j in (0, 1)
    ]
    row = _row(rows, 15.0, "music-ss", source_index=1)
    assert row.trials == 4
    assert 0 <= row.failures <= 4
    assert row.crb > 0
    assert math.isfinite(row.mse)
    # MSE shrinks from 5 dB to 15 dB for every estimator
    for est in ESTIMATORS:
        lo = _row(rows, 5.0, est).mse
        hi = _row(rows, 15.0, est).mse
        assert hi < lo, f"{est}: mse must improve with snr ({hi} vs {lo})"


def test_run_plan_noiseless_floor():
    """At vanishing noise every estimator's MSE collapses to the search floor."""
    sc = ArrayScenario(m=32, n=16, l=4, doas=WIDE, snr_db=200.0, seed=0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(200.0,), trials=3)
    for row in run_plan(plan):
        assert row.failures == 0
        assert row.mse < 1e-12, f"{row.estimator} floor {row.mse}"


def test_run_plan_noiseless_floor_on_the_lanczos_branch():
    """At 200 dB the top-k (Lanczos) eigensystem's noise estimate stays
    positive and near the true noise power, where tr R minus the top k
    eigenvalues cancels to rounding level and below zero, and every
    estimator still reaches the search floor."""
    sc = ArrayScenario(m=112, n=16, l=8, doas=WIDE, snr_db=200.0, seed=0)
    u = sc.subarray_size
    assert u >= subspace.LANCZOS_MIN_DIM and sc.n * sc.l >= u
    smoothed = SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=sc.l)
    eig = subspace.sample_covariance_eig(smoothed, sc.k)
    assert eig.eigenvalues.shape == (sc.k,), "the top-k branch ran"
    assert 0.5 * sc.sigma2 < eig.noise_variance < 2.0 * sc.sigma2
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(200.0,), trials=3)
    for row in run_plan(plan):
        assert row.failures == 0
        assert row.mse < 1e-12, f"{row.estimator} floor {row.mse}"


def test_trials_factor_through_sample_covariance_eig(monkeypatch):
    """Every trial reaches the eigen layer through
    subspace.sample_covariance_eig, once per distinct smoothing factor: the
    one function the benchmark's tracer wraps for that layer.  Both
    smoothing factors of a trial smooth the same snapshot array."""
    calls = []
    factor = subspace.sample_covariance_eig

    def counting(smoothed, k):
        calls.append((smoothed.l, smoothed.snapshots))
        return factor(smoothed, k)

    monkeypatch.setattr(subspace, "sample_covariance_eig", counting)
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=10.0, seed=0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0, 15.0), trials=3)
    run_plan(plan)
    # music and gmusic share l = 1, music-ss and gmusic-ss l = 4; a serial
    # run takes the trials in order, each l = 1 call before its l = 4 one
    assert [l for l, _ in calls] == [1, 4] * 6
    for (_, y1), (_, y4) in zip(calls[::2], calls[1::2]):
        assert y1 is y4
    assert len({id(y) for _, y in calls}) == 6


def test_run_plan_failure_accounting_window_mode():
    """Wild whole-circle estimates are counted out unless explicitly folded in."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    base = dict(scenario=sc, sweep="snr_db", values=(-10.0,), trials=12,
                doa_mode="window", estimators=("music-ss",))
    excl = run_plan(ExperimentPlan(**base))[0]
    assert excl.failures == 12, "deep-noise window search must fail every trial"
    assert math.isnan(excl.mse), "nothing usable to average"
    incl = run_plan(ExperimentPlan(**base, include_failures=True))[0]
    assert incl.failures == 12
    assert math.isfinite(incl.mse) and incl.mse > 0.1


def test_matched_errors_wrap_around_the_circle():
    """Errors are angle differences on the circle, not on the real line."""
    err = _matched_errors(np.array([math.pi - 1e-3]), [-math.pi + 1e-3])
    assert err[0] == pytest.approx(-0.002, abs=1e-12)
    # the assignment also measures distance on the circle
    err = _matched_errors(np.array([1.0001, math.pi - 1e-3]), [-math.pi + 1e-3, 1.0])
    np.testing.assert_allclose(err, [-0.002, 1e-4], atol=1e-12)


def test_sources_across_the_seam_are_as_close_as_across_zero():
    """Sources 0.1 apart across +-pi get the failure threshold 0.05, and the
    interval search finds them as well as the same pair rotated onto 0."""
    seam = (-math.pi + 0.05, math.pi - 0.05)
    assert _failure_threshold(seam, 64) == pytest.approx(0.05, rel=1e-12)
    mse = []
    for doas in (seam, (-0.05, 0.05)):
        sc = ArrayScenario(m=64, n=20, l=8, doas=doas, snr_db=20.0, seed=1)
        plan = ExperimentPlan(
            scenario=sc, sweep="snr_db", values=(20.0,), trials=20, estimators=("music-ss",)
        )
        mse.append(max(r.mse for r in run_plan(plan)))
    assert 0.1 < mse[0] / mse[1] < 10.0, f"seam mse {mse[0]} vs rotated {mse[1]}"


def test_run_plan_strict_separation_counts_bulk_collisions():
    """Strict mode turns non-separated corrected-spectrum trials into failures."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    plan = ExperimentPlan(
        scenario=sc, sweep="snr_db", values=(-12.0,), trials=10, strict_separation=True
    )
    rows = run_plan(plan)
    assert _row(rows, -12.0, "gmusic-ss").failures >= 5, "deep noise must collide with the bulk"
    assert _row(rows, -12.0, "music-ss").failures == 0, "strictness only affects corrected spectra"


def test_run_plan_fresh_signal_changes_draws():
    """Redrawing the source matrix each trial changes the aggregate."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=5.0, seed=0)
    fixed = run_plan(ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0,), trials=6))
    fresh = run_plan(
        ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0,), trials=6, fresh_signal=True)
    )
    assert fixed != fresh


def test_run_plan_fresh_signal_crb_uses_trial_zero_draw():
    """A fresh-signal plan's bound at point p is the bound of the source
    matrix drawn for its trial 0, from the signal stream [seed, 1, p, 0]."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=5.0, seed=6)
    plan = ExperimentPlan(
        scenario=sc, sweep="l", values=(2, 4), trials=2, estimators=("music",), fresh_signal=True
    )
    rows = run_plan(plan)
    for p, value in enumerate(plan.values):
        rng = np.random.default_rng(np.random.SeedSequence([sc.seed, 1, p, 0]))
        signal = draw_signal_matrix(sc.k, sc.n, sc.signal_policy, rng)
        want = crb(point_scenario(plan, value), signal=signal)
        assert [_row(rows, value, "music", j).crb for j in range(sc.k)] == want.tolist()


def test_run_plan_rejects_unusable_fixed_signal():
    """A plan's passed signal is checked as snapshot synthesis checks it:
    shape, finite entries and full row rank k, before any trial runs; a
    fresh_signal plan, which draws its own, refuses one."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=5.0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0,), trials=2)
    s = np.random.default_rng(4).standard_normal((2, 8)) + 0j
    assert len(run_plan(plan, signal=s)) == len(ESTIMATORS) * 2
    nan = s.copy()
    nan[1, 3] = np.nan
    with pytest.raises(ValueError, match="signal matrix contains non-finite"):
        run_plan(plan, signal=nan)
    with pytest.raises(ValueError, match="rank"):
        run_plan(plan, signal=np.vstack([s[0], 2.0 * s[0]]))
    with pytest.raises(ValueError, match="shape"):
        run_plan(plan, signal=s[:, :-1])
    with pytest.raises(ValueError, match="fresh_signal"):
        run_plan(dataclasses.replace(plan, fresh_signal=True), signal=s)


def test_plan_validation():
    """Plan invariants are enforced at construction."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    good = dict(scenario=sc, sweep="snr_db", values=(5.0,), trials=2)
    ExperimentPlan(**good)
    with pytest.raises(ValueError):
        ExperimentPlan(**{**good, "sweep": "bogus"})
    with pytest.raises(ValueError):
        ExperimentPlan(**{**good, "values": ()})
    with pytest.raises(ValueError):
        ExperimentPlan(**{**good, "trials": 0})
    with pytest.raises(ValueError):
        ExperimentPlan(**{**good, "estimators": ("bogus",)})
    with pytest.raises(ValueError):
        ExperimentPlan(**{**good, "estimators": ()})
    with pytest.raises(ValueError):
        ExperimentPlan(**{**good, "doa_mode": "bogus"})
    with pytest.raises(ValueError):  # l sweep values must be integers
        ExperimentPlan(**{**good, "sweep": "l", "values": (2.5,)})
    with pytest.raises(ValueError):  # sweep point must build a valid scenario
        ExperimentPlan(**{**good, "sweep": "l", "values": (32,)})
    with pytest.raises(ValueError):  # sourceless scenario
        ExperimentPlan(**{**good, "scenario": dataclasses.replace(sc, doas=())})
    with pytest.raises(ValueError, match="sequence of names"):  # not one name per letter
        ExperimentPlan(**{**good, "estimators": "music"})
    # estimator de-duplication preserves order
    plan = ExperimentPlan(**{**good, "estimators": ("gmusic-ss", "music", "gmusic-ss")})
    assert plan.estimators == ("gmusic-ss", "music")


def test_plan_rejects_estimators_short_of_virtual_snapshots():
    """G-MUSIC needs k < N L (a noise eigenvalue in the range); MUSIC k <= N L.

    At N L = k the G-MUSIC noise estimate would average rounding-level null
    eigenvalues, so its rows would silently equal MUSIC's.
    """
    sc = ArrayScenario(m=16, n=2, l=4, doas=(0.0, 1.0), snr_db=20.0, seed=0)
    plan = dict(scenario=sc, sweep="snr_db", values=(20.0,), trials=1)
    ExperimentPlan(**plan, estimators=("music", "music-ss", "gmusic-ss"))
    with pytest.raises(ValueError, match="gmusic"):  # N L = n = k
        ExperimentPlan(**plan, estimators=("gmusic",))
    with pytest.raises(ValueError, match="music"):  # N L = 1 < k
        ExperimentPlan(**{**plan, "scenario": dataclasses.replace(sc, n=1)}, estimators=("music",))
    with pytest.raises(ValueError, match="gmusic-ss"):  # the sweep point l = 1 has N L = k
        ExperimentPlan(**{**plan, "sweep": "l", "values": (4, 1)}, estimators=("gmusic-ss",))
    with pytest.raises(ValueError, match="gmusic"):
        consistency_sweep(((16, 2, 4),), sc.doas, "absolute", 20.0, ("gmusic",), trials=1, seed=0)


def test_point_scenario_replaces_swept_field():
    """Each sweep kind substitutes its own scenario field."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(7.5,), trials=1)
    assert point_scenario(plan, 7.5).snr_db == 7.5
    plan = ExperimentPlan(scenario=sc, sweep="l", values=(2, 8), trials=1)
    assert point_scenario(plan, 8).l == 8
    plan = ExperimentPlan(scenario=sc, sweep="m", values=(64,), trials=1)
    assert point_scenario(plan, 64).m == 64


def test_mse_ordering_smoothed_vs_plain_when_snapshots_scarce():
    """With few snapshots, smoothing rescues the estimators (seeded medium run)."""
    m = 64
    sc = ArrayScenario(m=m, n=6, l=16, doas=(0.0, 5 * 2 * math.pi / m), snr_db=12.0, seed=2)
    plan = ExperimentPlan(
        scenario=sc, sweep="snr_db", values=(12.0,), trials=30,
        estimators=("music", "music-ss"),
    )
    rows = run_plan(plan)
    plain = _row(rows, 12.0, "music").mse
    smoothed = _row(rows, 12.0, "music-ss").mse
    assert smoothed < plain, (
        f"smoothing should help at N=6 snapshots: {smoothed} vs {plain}"
    )


def test_high_snr_mse_consistent_with_bound():
    """At high SNR the measured MSE sits at the error bound's scale.

    The bound is asymptotic and the measurement conditions on in-window
    success, so the comparison is bracketed rather than one-sided.
    """
    sc = ArrayScenario(m=32, n=16, l=4, doas=WIDE, snr_db=25.0, seed=0)
    plan = ExperimentPlan(
        scenario=sc, sweep="snr_db", values=(25.0,), trials=40,
        estimators=("music-ss", "gmusic-ss"),
    )
    for row in run_plan(plan):
        assert row.failures == 0
        assert 0.7 * row.crb < row.mse < 3.0 * row.crb, (
            f"{row.estimator} src {row.source_index}: mse {row.mse} vs bound {row.crb}"
        )


def test_table1_structure_and_determinism():
    """The separation table is seeded, one row per smoothing factor."""
    sc = ArrayScenario(m=20, n=8, l=2, doas=(0.3, 1.2), snr_db=10.0, seed=1)
    rows = table1(sc, (2, 4), draws=6)
    assert [r.l for r in rows] == [2, 4]
    for r in rows:
        assert math.isfinite(r.min_snr_db_median)
        assert r.min_snr_db_iqr >= 0
    again = table1(sc, (2, 4), draws=6)
    assert rows == again
    other_seed = table1(dataclasses.replace(sc, seed=99), (2, 4), draws=6)
    assert rows != other_seed
    with pytest.raises(ValueError):
        table1(sc, (2, 4), draws=0)
    with pytest.raises(ValueError, match="l must be an integer"):
        table1(sc, (2.5,), draws=6)


def test_consistency_sweep_sizing_policy_enforced():
    """Drifting c_N, shrinking m and bad arguments are rejected before any draw."""
    doas = (0.0, 5.0)
    with pytest.raises(ValueError, match="c_N drifts"):
        consistency_sweep(
            ((16, 8, 2), (32, 16, 4)), doas, "beamwidth", 10.0, ("music-ss",), trials=2, seed=0
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        consistency_sweep(
            ((32, 10, 16), (32, 10, 16)), doas, "beamwidth", 10.0, ("music-ss",), trials=2, seed=0
        )
    with pytest.raises(ValueError, match="m must be an integer"):
        consistency_sweep(
            ((16.5, 10, 2), (32, 10, 4)), doas, "absolute", 10.0, ("music-ss",), trials=2, seed=0
        )
    good = ((32, 10, 16), (64, 10, 32))
    with pytest.raises(ValueError, match="sizes must be nonempty"):
        consistency_sweep((), doas, "beamwidth", 10.0, ("music-ss",), trials=2, seed=0)
    with pytest.raises(ValueError, match="at least one source"):
        consistency_sweep(good, (), "beamwidth", 10.0, ("music-ss",), trials=2, seed=0)
    with pytest.raises(ValueError, match="estimator"):
        consistency_sweep(good, doas, "beamwidth", 10.0, ("bogus",), trials=2, seed=0)
    with pytest.raises(ValueError, match="estimator"):
        consistency_sweep(good, doas, "beamwidth", 10.0, (), trials=2, seed=0)
    with pytest.raises(ValueError, match="sequence of names"):
        consistency_sweep(good, doas, "beamwidth", 10.0, "music-ss", trials=2, seed=0)
    with pytest.raises(ValueError, match="spacing"):
        consistency_sweep(good, doas, "relative", 10.0, ("music-ss",), trials=2, seed=0)
    with pytest.raises(ValueError, match="trials"):
        consistency_sweep(good, doas, "beamwidth", 10.0, ("music-ss",), trials=0, seed=0)


def test_consistency_sweep_rows_and_worker_invariance():
    """Scaled-error rows carry the sizing triples; workers don't change them."""
    sizes = ((32, 10, 16), (64, 10, 32))
    rows = consistency_sweep(
        sizes, (0.0, 5.0), "beamwidth", 10.0, ("music-ss",), trials=8, seed=0
    )
    assert [(r.m, r.n, r.l) for r in rows] == [(32, 10, 16), (64, 10, 32)]
    for r in rows:
        assert r.estimator == "music-ss"
        assert r.trials == 8
        assert 0 <= r.failures <= 8
        assert math.isfinite(r.median_scaled_error) and r.median_scaled_error > 0
    pooled = consistency_sweep(
        sizes, (0.0, 5.0), "beamwidth", 10.0, ("music-ss",), trials=8, seed=0, workers=2
    )
    assert rows == pooled
    # absolute spacing keeps the angles fixed as m grows
    rows_abs = consistency_sweep(
        sizes, (0.0, 0.98), "absolute", 10.0, ("music-ss",), trials=4, seed=0
    )
    assert [(r.m, r.n) for r in rows_abs] == [(32, 10), (64, 10)]


@pytest.mark.parametrize("workers", [1, 2])
def test_consistency_sweep_estimator_set_equals_single_estimator_sweeps(workers):
    """Estimators in one sweep share each trial's noise and eigensystem, so
    their rows equal those of one sweep per estimator, ordered by (size,
    estimator); ("gmusic", "gmusic-ss") also asks for two smoothing factors."""
    sizes = ((32, 10, 4), (64, 20, 4))
    for ests in (("music-ss", "gmusic-ss"), ("gmusic-ss", "gmusic")):
        args = (sizes, (0.0, 5.0), "beamwidth", 10.0)
        both = consistency_sweep(*args, ests, trials=8, seed=3, workers=workers)
        singles = [consistency_sweep(*args, (e,), trials=8, seed=3) for e in ests]
        assert both == [row for per_size in zip(*singles) for row in per_size]
        assert all(math.isfinite(r.median_scaled_error) for r in both)
