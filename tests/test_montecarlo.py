"""Tests for the Monte-Carlo harness and the deterministic-signal error bound.

The error-bound implementation is checked against a brute-force Fisher
information matrix assembled by finite differences over every real model
parameter (angles plus real and imaginary source entries), and against the
single-source closed form 6 sigma2 / (N p (M^2 - 1)).  Harness tests pin
worker-count independence bitwise, seeded reproducibility, the failure
bookkeeping, and that every trial reaches the eigen layer through
subspace.sample_covariance_eig.  The separation table's median and
quartiles are pinned on draws whose minimum separation SNR is inf.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothmusic import montecarlo, subspace, verify
from smoothmusic.array_model import (
    ArrayScenario,
    SmoothedMatrix,
    draw_signal_matrix,
    observe,
    synthesize_snapshots,
    wrap_angle,
)
from smoothmusic.montecarlo import (
    ESTIMATORS,
    ExperimentPlan,
    _failure_threshold,
    _matched_errors,
    consistency_sweep,
    crb,
    Table1Row,
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
    """Sourceless scenarios and misshapen or non-finite signals are rejected."""
    with pytest.raises(ValueError):
        crb(ArrayScenario(m=8, n=4, l=2, doas=(), snr_db=0.0), signal=np.ones((0, 4)))
    one = ArrayScenario(m=8, n=4, l=2, doas=(0.3,), snr_db=0.0)
    with pytest.raises(ValueError):
        crb(one, signal=np.ones((2, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        crb(one, signal=np.array([[1.0, np.nan, 1.0, 1.0]]))
    # a non-contiguous view of a matrix is the same signal
    two = ArrayScenario(m=8, n=4, l=2, doas=(0.3, 1.2), snr_db=0.0)
    rng = np.random.default_rng(4)
    s = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    assert not s.T.copy().T.flags.c_contiguous
    np.testing.assert_array_equal(crb(two, signal=s.T.copy().T), crb(two, signal=s))


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


def test_negative_worker_count_is_refused():
    """workers < 0 is refused before any trial runs, also by a one-task plan
    that would never start a pool, and by consistency sweeps."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0,), trials=1)
    with pytest.raises(ValueError, match="workers must be >= 0, got -1"):
        run_plan(plan, workers=-1)
    with pytest.raises(ValueError, match="workers must be >= 0, got -3"):
        consistency_sweep(((32, 8, 4),), WIDE, 0.0, ("music",), trials=2, seed=0, workers=-3)


def _plan(sc, trials):
    return ExperimentPlan(scenario=sc, sweep="snr_db", values=(5.0,), trials=trials)


@pytest.mark.parametrize(
    "name, call",
    [
        ("trials", lambda sc: _plan(sc, 2.5)),
        ("trials", lambda sc: _plan(sc, True)),  # bool subclasses int
        ("workers", lambda sc: run_plan(_plan(sc, 1), workers=1.5)),
        ("draws", lambda sc: table1(sc, (2,), draws=2.5)),
        ("trials", lambda sc: consistency_sweep(((32, 8, 4),), WIDE, 0.0, ("music",), 2.5, 0)),
        ("trials", lambda sc: verify.run_verification_suite(32, 8, 4, 1.0, trials=2.5)),
        ("trials", lambda sc: verify.esd_vs_mp(32, 8, 4, 1.0, trials=2.5, seed=0)),
        ("trials", lambda sc: verify.spike_experiment(32, 8, 4, 1.0, (5.0,), trials=2.5, seed=0)),
    ],
    ids=[
        "plan", "plan-bool", "run_plan", "table1", "consistency_sweep", "suite", "esd_vs_mp",
        "spike_experiment",
    ],
)
def test_fractional_counts_are_refused_by_name(name, call):
    """A trial, draw or worker count must be an integer: 2.5 is refused
    with the count's name, not failed on inside range or SeedSequence."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(sc)


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
    one function the benchmark's tracer wraps for that layer.  A block of
    trials makes one call per factor, on the stack of its trials'
    snapshots, and both smoothing factors of a block smooth that same
    stack."""
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
    # run takes each point's 3 trials as one block, its l = 1 call before its
    # l = 4 one
    assert [l for l, _ in calls] == [1, 4] * 2
    for (_, y1), (_, y4) in zip(calls[::2], calls[1::2]):
        assert y1 is y4
    assert [y.shape for _, y in calls] == [(3, sc.m, sc.n)] * 4
    assert len({id(y) for _, y in calls}) == 2


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


@pytest.mark.parametrize("fresh", [False, True])
def test_run_plan_fresh_signal_crb_uses_trial_zero_draw(fresh):
    """A plan's bound at point p is the bound of the source matrix of its
    trial 0: drawn from the signal stream [seed, 1, p, 0] by a fresh-signal
    plan, and from the one shared stream [seed, 1] otherwise."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=5.0, seed=6)
    plan = ExperimentPlan(
        scenario=sc, sweep="l", values=(2, 4), trials=2, estimators=("music",), fresh_signal=fresh
    )
    rows = run_plan(plan)
    for p, value in enumerate(plan.values):
        key = [sc.seed, 1, p, 0] if fresh else [sc.seed, 1]
        rng = np.random.default_rng(np.random.SeedSequence(key))
        signal = draw_signal_matrix(sc.k, sc.n, sc.signal_policy, rng)
        want = crb(dataclasses.replace(sc, l=value), signal=signal)
        assert [_row(rows, value, "music", j).crb for j in range(sc.k)] == want.tolist()


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
    # DoAs one ulp apart: search intervals around them round to points, which
    # only the whole-circle search can do without
    close = dataclasses.replace(sc, doas=(1.0, math.nextafter(1.0, 2.0)))
    with pytest.raises(ValueError, match="^doas 1.0 and 1.0000000000000002 are too close"):
        ExperimentPlan(**{**good, "scenario": close})
    ExperimentPlan(**{**good, "scenario": close, "doa_mode": "window"})
    # estimator de-duplication preserves order
    plan = ExperimentPlan(**{**good, "estimators": ("gmusic-ss", "music", "gmusic-ss")})
    assert plan.estimators == ("gmusic-ss", "music")


def test_plan_rejects_estimators_short_of_virtual_snapshots():
    """Each estimator's rank need follows its row of ESTIMATORS: a smoothed
    one has N L = n l virtual snapshots, the others N L = n; MUSIC needs
    k <= N L, and a corrected (G-MUSIC) one k < N L, a noise eigenvalue in
    the range.

    At N L = k the G-MUSIC noise estimate would average rounding-level null
    eigenvalues, so its rows would silently equal MUSIC's.
    """
    doas = (0.0, 1.0)
    plan = dict(sweep="snr_db", values=(20.0,), trials=1)
    for name, (smoothed, corrected) in ESTIMATORS.items():
        need = len(doas) + 1 if corrected else len(doas)

        def scenario(nl):
            # n = 1 leaves only l to supply a smoothed estimator's N L; l = 4
            # would supply an unsmoothed one's, were it read
            n, l = (1, nl) if smoothed else (nl, 4)
            return ArrayScenario(m=16, n=n, l=l, doas=doas, snr_db=20.0, seed=0)

        ExperimentPlan(scenario=scenario(need), **plan, estimators=(name,))
        with pytest.raises(ValueError, match=f"^{name} needs N L >= {need} .* got N L={need - 1}$"):
            ExperimentPlan(scenario=scenario(need - 1), **plan, estimators=(name,))
    sc = ArrayScenario(m=16, n=2, l=4, doas=doas, snr_db=20.0, seed=0)
    with pytest.raises(ValueError, match="gmusic-ss"):  # the sweep point l = 1 has N L = k
        ExperimentPlan(scenario=sc, sweep="l", values=(4, 1), trials=1, estimators=("gmusic-ss",))
    with pytest.raises(ValueError, match="gmusic"):
        consistency_sweep(((16, 2, 4),), sc.doas, 20.0, ("gmusic",), trials=1, seed=0)


def test_plan_scenarios_replace_swept_field():
    """Each sweep kind substitutes its own scenario field, one scenario per
    value in order; the derived scenarios take no part in comparison."""
    sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    plan = ExperimentPlan(scenario=sc, sweep="snr_db", values=(7.5,), trials=1)
    assert plan.scenarios == (dataclasses.replace(sc, snr_db=7.5),)
    plan = ExperimentPlan(scenario=sc, sweep="l", values=(2, 8), trials=1)
    assert [p.l for p in plan.scenarios] == [2, 8]
    plan = ExperimentPlan(scenario=sc, sweep="m", values=(64,), trials=1)
    assert plan.scenarios[0].m == 64 and plan.scenarios[0].l == 4
    assert plan == ExperimentPlan(scenario=sc, sweep="m", values=(64,), trials=1)
    assert "scenarios" not in repr(plan)
    with pytest.raises(TypeError):
        ExperimentPlan(scenario=sc, sweep="m", values=(64,), trials=1, scenarios=())


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


def test_table1_refuses_a_bad_l_before_any_report(monkeypatch):
    """Every smoothing factor is checked before the first draw's report, so
    a bad last l is refused at once, not after the others' rows."""
    monkeypatch.setattr(subspace, "separation_report", lambda *a: pytest.fail("report ran"))
    sc = ArrayScenario(m=16, n=8, l=2, doas=(0.0, 1.0), snr_db=0.0)
    with pytest.raises(ValueError, match="got l=16, m=16"):
        table1(sc, (2, 16), draws=2000)


def test_table1_refuses_an_l_below_the_source_count(monkeypatch):
    """With k > N l, P o C has rank below k: the K-th signal eigenvalue is 0
    in every draw, the minimum separation SNR infinite, and its spread
    inf - inf.  Such an l is refused by name before the first report; at
    l = 4, N l = 8 >= k = 5 and the table is finite."""
    sc = ArrayScenario(m=27, n=2, l=2, doas=(-2.8, 1.93, 0.26, -0.76, -0.94), snr_db=0.0)
    with monkeypatch.context() as patched:
        patched.setattr(subspace, "separation_report", lambda *a: pytest.fail("report ran"))
        with pytest.raises(ValueError, match=r"^l=2 leaves N l = 4 < k = 5: "):
            table1(sc, (2, 4), draws=3)
    (row,) = table1(sc, (4,), draws=3)
    assert math.isfinite(row.min_snr_db_median) and math.isfinite(row.min_snr_db_iqr)


def test_table1_with_infinite_draws_has_no_nan():
    """DoAs 1e-9 apart leave lambda_K = 0, an infinite minimum separation
    SNR, in some draws.  A quartile lies between two order statistics: an
    inf one of positive weight makes it inf, one of weight 0 is not read;
    no nan and no numpy warning (np.percentile reads inf * 0 as nan)."""
    sc = ArrayScenario(m=8, n=4, l=2, doas=(0, 1e-9), snr_db=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = table1(sc, (2, 4), draws=5)
    signals = np.stack([montecarlo._drawn_signal(sc, sc.k, sc.n, d) for d in range(5)])
    for row in rows:
        at_l = dataclasses.replace(sc, l=row.l)
        vals = np.sort(subspace.separation_report(at_l, signals).min_snr_db)
        # five draws: the quartiles are order statistics 1 and 3, with weight 1
        assert row.min_snr_db_median == vals[2]
        assert row.min_snr_db_iqr == (vals[3] - vals[1] if vals[3] > vals[1] else 0.0)
    assert rows[0] == Table1Row(2, math.inf, math.inf)
    assert math.isfinite(rows[1].min_snr_db_median)
    assert rows[1].min_snr_db_iqr > 0


@pytest.mark.parametrize(
    "vals, median, iqr",
    [
        ([1.0, 2.0, math.inf, math.inf, math.inf], math.inf, math.inf),
        ([1.0, 2.0, 3.0, 4.0, math.inf], 3.0, 2.0),  # weight 0 on the inf one
        ([1.0, 2.0, math.inf], 2.0, math.inf),  # weight 1/2, past np.percentile's midpoint
        ([1.0, 2.0, 3.0, math.inf], 2.5, math.inf),
        ([1.0, math.inf, math.inf, math.inf, math.inf], math.inf, 0.0),
        ([math.inf] * 4, math.inf, 0.0),
        ([math.inf], math.inf, 0.0),
    ],
)
def test_median_iqr_rule_for_infinite_draws(vals, median, iqr):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = montecarlo._median_iqr(np.array(vals))
    assert got == (median, iqr)


def test_median_iqr_of_finite_draws_is_numpys():
    vals = np.random.default_rng(0).normal(size=37)
    q1, q3 = np.percentile(vals, [25.0, 75.0])
    assert montecarlo._median_iqr(vals) == (float(np.median(vals)), float(q3 - q1))


def test_consistency_sweep_sizing_policy_enforced():
    """Drifting c_N, shrinking m and bad arguments are rejected before any draw."""
    doas = (0.0, 5.0)
    with pytest.raises(ValueError, match="c_N drifts"):
        consistency_sweep(
            ((16, 8, 2), (32, 16, 4)), doas, 10.0, ("music-ss",), trials=2, seed=0
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        consistency_sweep(
            ((32, 10, 16), (32, 10, 16)), doas, 10.0, ("music-ss",), trials=2, seed=0
        )
    with pytest.raises(ValueError, match="m must be an integer"):
        consistency_sweep(
            ((16.5, 10, 2), (32, 10, 4)), doas, 10.0, ("music-ss",), trials=2, seed=0
        )
    good = ((32, 10, 16), (64, 10, 32))
    with pytest.raises(ValueError, match="sizes must be nonempty"):
        consistency_sweep((), doas, 10.0, ("music-ss",), trials=2, seed=0)
    with pytest.raises(ValueError, match="too close to search apart"):  # one ulp apart in beamwidths
        consistency_sweep(good, (3.0, math.nextafter(3.0, 4.0)), 10.0, ("music-ss",), trials=2, seed=0)
    with pytest.raises(ValueError, match="at least one source"):
        consistency_sweep(good, (), 10.0, ("music-ss",), trials=2, seed=0)
    with pytest.raises(ValueError, match="estimator"):
        consistency_sweep(good, doas, 10.0, ("bogus",), trials=2, seed=0)
    with pytest.raises(ValueError, match="estimator"):
        consistency_sweep(good, doas, 10.0, (), trials=2, seed=0)
    with pytest.raises(ValueError, match="sequence of names"):
        consistency_sweep(good, doas, 10.0, "music-ss", trials=2, seed=0)
    with pytest.raises(ValueError, match="trials"):
        consistency_sweep(good, doas, 10.0, ("music-ss",), trials=0, seed=0)


def test_consistency_sweep_rows_and_worker_invariance():
    """Scaled-error rows carry the sizing triples; workers don't change them."""
    sizes = ((32, 10, 16), (64, 10, 32))
    rows = consistency_sweep(
        sizes, (0.0, 5.0), 10.0, ("music-ss",), trials=8, seed=0
    )
    assert [(r.m, r.n, r.l) for r in rows] == [(32, 10, 16), (64, 10, 32)]
    for r in rows:
        assert r.estimator == "music-ss"
        assert r.trials == 8
        assert 0 <= r.failures <= 8
        assert math.isfinite(r.median_scaled_error) and r.median_scaled_error > 0
    pooled = consistency_sweep(
        sizes, (0.0, 5.0), 10.0, ("music-ss",), trials=8, seed=0, workers=2
    )
    assert rows == pooled


@pytest.mark.parametrize("workers", [1, 2])
def test_consistency_sweep_estimator_set_equals_single_estimator_sweeps(workers):
    """Estimators in one sweep share each trial's noise and eigensystem, so
    their rows equal those of one sweep per estimator, ordered by (size,
    estimator); ("gmusic", "gmusic-ss") also asks for two smoothing factors."""
    sizes = ((32, 10, 4), (64, 20, 4))
    for ests in (("music-ss", "gmusic-ss"), ("gmusic-ss", "gmusic")):
        args = (sizes, (0.0, 5.0), 10.0)
        both = consistency_sweep(*args, ests, trials=8, seed=3, workers=workers)
        singles = [consistency_sweep(*args, (e,), trials=8, seed=3) for e in ests]
        assert both == [row for per_size in zip(*singles) for row in per_size]
        assert all(math.isfinite(r.median_scaled_error) for r in both)


def _alone(sc, signal, point, trial, policy, estimators, strict) -> dict:
    """One trial's outcomes through the single-trial API, the oracle of a
    block: its own noise draw, a 2-d SmoothedMatrix and one EigenSystem per
    estimator, and a find_doas that raises UnderResolvedError."""
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, 2, point, trial]))
    y = observe(sc, signal, rng)
    out = {}
    for est in estimators:
        smoothed, corrected = ESTIMATORS[est]
        eig = subspace.sample_covariance_eig(SmoothedMatrix(snapshots=y, l=sc.l if smoothed else 1), sc.k)
        try:
            weights = subspace.gmusic_weights(eig, eig.noise_variance, eig.c_n, strict) if corrected else None
            theta = subspace.find_doas(subspace.Pseudospectrum(eig, weights), sc.k, policy, sc.m)
        except subspace.UnderResolvedError:
            out[est] = montecarlo.Outcome(montecarlo.UNDER_RESOLVED, None)
            continue
        except subspace.NotSeparatedError:
            out[est] = montecarlo.Outcome(montecarlo.NOT_SEPARATED, None)
            continue
        errors = _matched_errors(theta, sc.doas)
        wild = np.max(np.abs(errors)) > _failure_threshold(sc.doas, sc.m)
        out[est] = montecarlo.Outcome(montecarlo.WILD if wild else montecarlo.OK, errors)
    return out


def _same_outcomes(got, want):
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w)
        for est in w:
            assert g[est].cause == w[est].cause, (t, est)
            if w[est].errors is None:
                assert g[est].errors is None, (t, est)
            else:
                assert np.array_equal(g[est].errors, w[est].errors), (t, est, g[est], w[est])


# (m, n, l, k) for each eigen branch of the smoothed pair, k from 1 to 3:
# the thin SVD (k < N L < U, at l = 2 too), Lanczos (N L >= U >= 96) and the
# dense eigh (N L >= U < 96); the unsmoothed pair takes the thin SVD or eigh
_BLOCK_SIZES = {
    "svd": (16, 4, 2, 3),
    "lanczos": (100, 25, 4, 2),
    "eigh": (16, 8, 4, 1),
    "under-resolved": (6, 8, 2, 4),  # U = 5: a spectrum has at most 4 dips
}


@settings(max_examples=30)
@given(
    size=st.sampled_from(sorted(_BLOCK_SIZES)),
    k=st.integers(1, 3),
    snr_db=st.sampled_from([-5.0, 0.0, 10.0, 30.0]),
    window=st.booleans(),
    strict=st.booleans(),
    fresh=st.booleans(),
    offset=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**16),
)
def test_block_outcomes_equal_each_trial_alone(size, k, snr_db, window, strict, fresh, offset, seed):
    """A block's outcome for each of its trials equals, bit for bit, the
    trial's outcome through the single-trial API, cut into blocks of one,
    two or all five trials: causes, and signed errors where there are any.
    Both DoA modes and strict separation; the window search of four sources
    on a 5-sensor subarray meets under-resolved rows."""
    m, n, l, k_max = _BLOCK_SIZES[size]
    k = k_max if size == "under-resolved" else min(k, k_max)
    doas = wrap_angle(offset + 2.0 * math.pi * np.arange(k) / k)
    sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=snr_db, seed=seed)
    estimators = []
    for est in ESTIMATORS:
        try:
            montecarlo._check_rank(sc, (est,))
            estimators.append(est)
        except ValueError:
            pass
    policy = subspace.SearchWindow() if window else subspace.intervals_around(sc.doas, m)
    trials = 5
    signals = [montecarlo._drawn_signal(sc, 0, t) if fresh else montecarlo._drawn_signal(sc) for t in range(trials)]
    want = [_alone(sc, signals[t], 1, t, policy, estimators, strict) for t in range(trials)]
    for size_of_block in (1, 2, trials):
        got = []
        for first in range(0, trials, size_of_block):
            block = signals[first : first + size_of_block]
            got += montecarlo._run_block((sc, block, 1, first, policy, estimators, strict))
        _same_outcomes(got, want)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("doa_mode", ["intervals", "window"])
def test_pooled_blocks_equal_each_trial_alone(workers, doa_mode):
    """_run_trials cuts each point's trials into blocks, one cut for a
    serial run and another for a pool; either way each trial's outcome is
    its single-trial one, including under-resolved and not-separated
    trials (window mode, strict)."""
    sc = ArrayScenario(m=6, n=8, l=2, doas=(-2.5, -1.0, 0.5, 2.0), snr_db=0.0, seed=0)
    if doa_mode == "intervals":
        sc = ArrayScenario(m=32, n=8, l=4, doas=WIDE, snr_db=0.0, seed=0)
    scens = [dataclasses.replace(sc, snr_db=v) for v in (0.0, 10.0)]
    estimators = tuple(ESTIMATORS)
    signal = montecarlo._drawn_signal(sc)
    trials = montecarlo.BLOCK_TRIALS + 3
    got = montecarlo._run_trials(
        scens, lambda p, t: signal, trials, estimators, doa_mode, True, workers
    )
    for p, point in enumerate(scens):
        if doa_mode == "intervals":
            policy = subspace.intervals_around(point.doas, point.m)
        else:
            policy = subspace.SearchWindow()
        want = [_alone(point, signal, p, t, policy, estimators, True) for t in range(trials)]
        _same_outcomes(got[p], want)
