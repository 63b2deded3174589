"""Property tests for the signal model and the spectral and eigen layers.

The FFT scan of a whole-circle window and the chirp-z scan of any other
uniform grid, and refinement's baby-step/giant-step evaluation (within a
rounding bound), are checked against direct evaluation through
steering_matrix, the FFT scan against the rotation identity it implies, the DoA search
against the angle the circle starts at and against a direct scan, and the CLI's
spectrum minima against the size of its display grid; conjugating the
snapshots mirrors both spectra; the W* W eigen path is checked against a
dense eigh of the same covariance, and against the SVD of W up to 300 dB;
the smoothed Gram matrix, the
row-slice noise residual and the products W x, W* q and W W* q, of one
trial or a stack, match their forms through the block-Hankel matrix W; a
source count above the rank of the
covariance must still give finite results; the Kronecker form of the
smoothed signal covariance (the tests' reference) agrees with the Gram,
Hadamard and K x K forms; a stack of draws gives each draw's separation
report bit for bit, and the separation table that stacks them the
per-draw table's rows; the separation table keeps its invariants, or
refuses before its first draw, on any input, and so do the planted-spike
experiment and run_plan; the Lanczos basis, grown as a stack's searches
run on, keeps each trial's bits; the residual noise variance of every eigen branch
lies in the chi^2 band of its noise degrees of freedom; the closed-form MP CDF differentiates to the
density and carries the bulk mass min(1, 1/c); and the cyclic-shift matching of estimates to DoAs is a least-cost
assignment on the circle, checked against every permutation.
"""

import csv
import itertools
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smoothmusic import cli, montecarlo, subspace, verify
from smoothmusic.array_model import (
    SIGNAL_POLICIES,
    ArrayScenario,
    SmoothedMatrix,
    block_hankel,
    complex_gaussian,
    draw_signal_matrix,
    haar_columns,
    min_spacing,
    signal_covariance,
    signal_covariance_hadamard,
    steering_matrix,
    synthesize_snapshots,
    wrap_angle,
)
from smoothmusic.montecarlo import (
    DOA_MODES,
    ESTIMATORS,
    ExperimentPlan,
    _matched_errors,
    run_plan,
    table1,
)
from smoothmusic.rmt import MpParams, mp_atom, mp_cdf
from smoothmusic.subspace import (
    LANCZOS_DIM_PER_PAIR,
    LANCZOS_FIRST_STEPS,
    LANCZOS_MIN_DIM,
    EigenSystem,
    _lanczos_top,
    Pseudospectrum,
    SearchWindow,
    UnderResolvedError,
    find_doas,
    gmusic_weights,
    intervals_around,
    sample_covariance_eig,
    separation_report,
)
from reference import separation_report_per_draw, signal_covariance_kronecker, table1_per_draw

from test_rmt import mp_density

seeds = st.integers(0, 2**32 - 1)
EPS = np.finfo(float).eps
# the chance that a statistical band fails one correct example
ALPHA = 1e-9
# the fields of a SeparationReport with one entry per draw of a stack
PER_DRAW = ("lambda_signal", "separated", "margin", "min_snr_db")


def _unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def _spectrum(dim, k, seed, weighted):
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.uniform(0.1, 5.0, dim))[::-1]
    vecs = _unitary(dim, rng)[:, :k]
    eig = EigenSystem(vals[:k], vecs, c_n=0.5, noise_variance=float(np.mean(vals[k:])))
    return Pseudospectrum(eig, rng.uniform(0.2, 3.0, k) if weighted else None)


@given(dim=st.integers(2, 40), data=st.data(), seed=seeds, weighted=st.booleans())
def test_circle_fft_matches_direct_evaluation(dim, data, seed, weighted):
    """on_circle equals the direct steering-matrix values, also for p < U."""
    k = data.draw(st.integers(1, dim - 1), label="k")
    p = data.draw(st.integers(1, 6 * dim), label="p")
    lo = data.draw(st.floats(-2 * math.pi, 2 * math.pi), label="lo")
    spectrum = _spectrum(dim, k, seed, weighted)
    grid = lo + 2.0 * math.pi * np.arange(p) / p
    np.testing.assert_allclose(spectrum.on_circle(lo, p), spectrum(grid), rtol=0, atol=1e-12)


@given(dim=st.integers(2, 40), data=st.data(), seed=seeds, weighted=st.booleans())
def test_chirp_z_grid_matches_direct_evaluation(dim, data, seed, weighted):
    """on_grid equals the direct steering-matrix values on lo + j step, for
    p below and above U, a start past +-pi, and widths from about one
    interval up to just under 2 pi."""
    k = data.draw(st.integers(1, dim - 1), label="k")
    p = data.draw(st.integers(1, 6 * dim), label="p")
    lo = data.draw(st.floats(-2 * math.pi, 2 * math.pi), label="lo")
    width = data.draw(st.floats(0.01, 2 * math.pi, exclude_max=True), label="width")
    step = width / max(p - 1, 1)
    spectrum = _spectrum(dim, k, seed, weighted)
    grid = np.linspace(lo, lo + (p - 1) * step, p)
    np.testing.assert_allclose(spectrum.on_grid(lo, step, p), spectrum(grid), rtol=0, atol=1e-12)


# 2 and primes, perfect squares, and sizes whose Q R = isqrt(U) ceil(U / isqrt(U)) exceeds U
SPLIT_SIZES = (2, 3, 4, 5, 7, 9, 16, 17, 143, 144, 145, 168, 169, 170, 289, 293, 299, 300)


@given(
    u=st.one_of(st.sampled_from(SPLIT_SIZES), st.integers(2, 300)),
    data=st.data(),
    seed=seeds,
)
def test_refinement_evaluator_matches_direct_evaluation(u, data, seed):
    """by_row's baby-step/giant-step values lie within a rounding bound of
    the direct (steering-matrix) traditional and G-MUSIC values, with
    weights ones and random, over angles in [-pi, pi] and both ends; MUSIC
    rows stay in [0, 1]; and each row equals, bit for bit, the same row
    evaluated alone (D = 1) and inside a large batch.

    The bound: both paths form p = sum_n conj(u_n) a_n(theta), and with
    |theta| <= pi, sum_n |u_n| |a_n| <= ||u|| = 1.  The direct path's phases
    n theta round by at most pi U eps / 2, its exp, sqrt and division by a
    few eps, its length-U dot by sqrt(2) (U + 2) eps; the split's two
    phases by at most pi (U + R) / 2 eps, its two dots by
    sqrt(2) (R + Q + 4) eps.  So |dp| <= c U eps, with
    c = pi + sqrt(2) + (pi R / 2 + 16 + sqrt(2) (R + Q + 6)) / U, where 16
    covers the exps, products, division and |.|^2 of both sides; each
    |p|^2 then moves by at most 2 c U eps (|p| <= 1), and the sum
    1 - sum_j w_j |p_j|^2 rounds by at most (k + 1) eps (1 + sum |w|) on
    each side.
    """
    k = data.draw(st.integers(1, u - 1), label="k")
    t = data.draw(st.integers(1, 3), label="trials")
    angles = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=12), label="angles")
    rng = np.random.default_rng(seed)
    vecs = np.stack([np.linalg.qr(complex_gaussian(rng, (u, k)))[0] for _ in range(t)])
    eig = EigenSystem(np.ones((t, k)), vecs, 0.5, np.ones(t))
    weights = (None, np.ones((t, k)), rng.uniform(0.0, 3.0, (t, k)))
    spectrum = Pseudospectrum(eig, weights)
    theta = np.array(angles + [-math.pi, math.pi])
    rows = rng.integers(0, 3 * t, theta.size)
    got = spectrum.by_row(rows)(theta)

    r = math.isqrt(u)
    q = -(-u // r)
    c = math.pi + math.sqrt(2) + (math.pi * r / 2 + 16 + math.sqrt(2) * (r + q + 6)) / u
    for d, (row, th) in enumerate(zip(rows, theta)):
        s, trial = divmod(int(row), t)
        one = eig.row(trial)
        if s == 0:
            want, w = subspace.traditional_pseudospectrum(one, th), np.ones(k)
            assert 0.0 <= got[d] <= 1.0
        else:
            w = weights[s][trial]
            want = subspace.gmusic_pseudospectrum(one, None, None, th, weights=w)
        total = float(np.sum(np.abs(w)))
        bound = EPS * (2 * c * u * total + (k + 1) * (1 + total) * 2)
        assert abs(got[d] - want) <= bound, (d, got[d], want, bound)

    alone = [spectrum.by_row(rows[d : d + 1])(theta[d : d + 1])[0] for d in range(theta.size)]
    np.testing.assert_array_equal(got, alone)
    # the same rows inside a batch of at least 4 times as many angles, up to 256 where they fit 2^18 entries
    extra = max(3 * theta.size, min(256, 2**18 // (k * q * r)) - theta.size)
    big_rows = np.concatenate([rows, rng.integers(0, 3 * t, extra)])
    big_theta = np.concatenate([theta, rng.uniform(-math.pi, math.pi, extra)])
    np.testing.assert_array_equal(spectrum.by_row(big_rows)(big_theta)[: theta.size], got)


@given(
    doa=st.floats(-math.pi, math.pi, exclude_max=True),
    spacing=st.floats(0.5, 8.0),
    offset=st.floats(0.0, 1.0),
    seed=seeds,
)
def test_find_doas_chirp_z_scan_matches_direct_scan(doa, spacing, offset, seed):
    """find_doas on a Pseudospectrum (chirp-z grids) and on a plain callable
    around it (direct grids) return the same angles, to the refinement
    tolerance, per source interval and on a sub-window holding both DoAs."""
    m = 32
    beamwidth = 2.0 * math.pi / m
    xtol = 1e-4 * beamwidth
    second = float(wrap_angle(doa + spacing * beamwidth))
    sc = ArrayScenario(m=m, n=20, l=4, doas=(doa, second), snr_db=30.0, seed=seed)
    eig = sample_covariance_eig(SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=sc.l), sc.k)
    weights = gmusic_weights(eig, eig.noise_variance, eig.c_n)
    lo = doa - (0.5 + offset) * beamwidth
    window = SearchWindow(lo=lo, hi=lo + (spacing + 1.5) * beamwidth)
    for spectrum in (Pseudospectrum(eig), Pseudospectrum(eig, weights)):
        direct = lambda t: spectrum(t)
        for policy in (intervals_around(sc.doas, m), window):
            try:
                want = find_doas(direct, 2, policy, m)
            except UnderResolvedError:
                with pytest.raises(UnderResolvedError):
                    find_doas(spectrum, 2, policy, m)
                continue
            got = find_doas(spectrum, 2, policy, m)
            assert np.max(np.abs(wrap_angle(got - want))) <= xtol, f"{policy}"


@given(dim=st.integers(2, 40), data=st.data(), seed=seeds, weighted=st.booleans())
def test_rotating_eigenvectors_shifts_circle_values(dim, data, seed, weighted):
    """u_n -> u_n e^{i n delta} with delta = 2 pi j / p shifts the scan by j samples."""
    k = data.draw(st.integers(1, dim - 1), label="k")
    p = data.draw(st.integers(2, 6 * dim), label="p")
    j = data.draw(st.integers(0, p - 1), label="j")
    spectrum = _spectrum(dim, k, seed, weighted)
    eig = spectrum.eig
    phase = np.exp(1j * (2.0 * math.pi * j / p) * np.arange(dim))
    rotated = Pseudospectrum(
        EigenSystem(eig.eigenvalues, eig.eigenvectors * phase[:, None], eig.c_n, eig.noise_variance),
        spectrum.weights,
    )
    np.testing.assert_allclose(
        rotated.on_circle(-math.pi, p), np.roll(spectrum.on_circle(-math.pi, p), j), rtol=0, atol=1e-12
    )


@given(
    l=st.integers(1, 8),
    k=st.integers(1, 3),
    doas=st.lists(st.floats(-math.pi, math.pi, exclude_max=True), min_size=3, max_size=3, unique=True),
    p=st.integers(1, 300),
    seed=seeds,
)
def test_conjugate_snapshots_mirror_both_spectra(l, k, doas, p, seed):
    """Conjugating Y maps a(theta) to a(-theta): the scan of conj Y at index j
    is the original scan at index -j mod P, for MUSIC and G-MUSIC alike."""
    sc = ArrayScenario(m=24, n=10, l=l, doas=doas[:k], snr_db=20.0, seed=seed)
    snaps = synthesize_snapshots(sc)
    smoothed = SmoothedMatrix(snapshots=snaps, l=l)
    eig = sample_covariance_eig(smoothed, k)
    eig_c = sample_covariance_eig(SmoothedMatrix(snapshots=snaps.conj(), l=l), k)
    x = smoothed.entries
    vals = np.linalg.eigvalsh(x @ x.conj().T / smoothed.virtual_snapshots)[::-1]
    # a near-degenerate top-k eigenvalue leaves its eigenvectors ill defined
    assume(np.min(np.abs(np.diff(vals[: k + 1]))) > 1e-3 * vals[0])
    np.testing.assert_allclose(eig_c.eigenvalues, eig.eigenvalues, rtol=0, atol=1e-12 * vals[0])
    assert eig_c.noise_variance == pytest.approx(eig.noise_variance, rel=0, abs=1e-12 * vals[0])
    weights = gmusic_weights(eig, eig.noise_variance, eig.c_n)
    mirror = (-np.arange(p)) % p
    for w in (None, weights):
        want = Pseudospectrum(eig, w).on_circle(-math.pi, p)[mirror]
        got = Pseudospectrum(eig_c, w).on_circle(-math.pi, p)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _smoothed(u, nl, seed):
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal((u, nl)) + 1j * rng.standard_normal((u, nl))) / math.sqrt(2.0)
    # unsmoothed: the U x N L matrix W is its own smoothed matrix
    return SmoothedMatrix(snapshots=w, l=1)


@given(nl=st.integers(2, 20), extra=st.integers(1, 30), data=st.data(), seed=seeds)
def test_small_side_matches_dense_eigh(nl, extra, data, seed):
    """With c_N > 1 the eigensystem found from W* W equals a dense eigh of
    W W*/(N L)."""
    u = nl + extra
    k = data.draw(st.integers(1, nl - 1), label="k")
    sm = _smoothed(u, nl, seed)
    eig = sample_covariance_eig(sm, k)
    assert sm.c_n > 1
    vals, vecs = np.linalg.eigh(sm.entries @ sm.entries.conj().T / nl)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    # a near-degenerate k-th gap leaves the top-k subspace ill defined
    assume(vals[k - 1] - vals[k] > 1e-3 * vals[0])
    assert eig.eigenvalues.shape == (k,)
    assert eig.eigenvectors.shape == (u, k)
    np.testing.assert_allclose(eig.eigenvalues, vals[:k], rtol=1e-12, atol=1e-12 * vals[0])
    top = eig.eigenvectors
    want = vecs[:, :k]
    np.testing.assert_allclose(top @ top.conj().T, want @ want.conj().T, rtol=0, atol=1e-10)
    # the residual is the mean of the other eigenvalues, U - N L of them rounding-level nulls
    assert isinstance(eig.noise_variance, float)
    assert eig.noise_variance == pytest.approx(np.mean(vals[k:]), rel=1e-10)


@given(u=st.integers(60, 200), data=st.data(), seed=seeds)
def test_lanczos_top_k_matches_dense_eigh(u, data, seed):
    """With N L >= U the top-k eigensystem equals a dense eigh of W W*/(N L),
    on either side of the Lanczos branch bound, also for sources on the DFT
    grid 2 pi j / U (orthogonal to an all-ones start vector), and for one
    sub-threshold spike, whose top eigenvalue sits at the bulk edge."""
    nl = u + data.draw(st.integers(0, u), label="extra")
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="sub-threshold spike"):
        # W W*/(N L) = X X* with X = B + noise / sqrt(N L), B of rank one and
        # eigenvalue half the threshold sigma2 sqrt(c_N); 50 to 65 steps
        # converge it, within U / 2 from U ~ 140 (seen on 350 draws)
        k, converges = 1, u >= 140
        b = haar_columns(u, 1, rng) @ haar_columns(nl, 1, rng).conj().T
        w = math.sqrt(0.5 * math.sqrt(u / nl) * nl) * b + complex_gaussian(rng, (u, nl))
    else:
        k = data.draw(st.integers(1, u // 12), label="k")
        converges = u >= LANCZOS_MIN_DIM and u >= LANCZOS_DIM_PER_PAIR * k
        on_grid = data.draw(st.lists(st.booleans(), min_size=k, max_size=k), label="on_grid")
        # distinct even DFT bins, each source on its bin or up to one bin past it
        bins = 2 * rng.choice(u // 2, k, replace=False)
        bins = bins + np.where(on_grid, 0.0, rng.uniform(0, 1, k))
        s = rng.uniform(3.0, 15.0, k)[:, None] * complex_gaussian(rng, (k, nl))
        w = steering_matrix(u, 2.0 * math.pi * bins / u) @ s + complex_gaussian(rng, (u, nl))
    sm = SmoothedMatrix(snapshots=w, l=1)
    cov = w @ w.conj().T / nl
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    # a near-degenerate k-th gap leaves the top-k subspace ill defined
    assume(vals[k - 1] - vals[k] > 1e-3 * vals[0])
    eig = sample_covariance_eig(sm, k)
    if converges:
        # the Lanczos branch converges here instead of handing over to eigh
        (top,) = _lanczos_top(
            lambda y, x: SmoothedMatrix(snapshots=y, l=1).gram_matvec(x) / nl, w[None], u, k
        )
        assert top is not None
    assert eig.eigenvalues.shape == (k,)
    assert eig.eigenvectors.shape == (u, k)
    np.testing.assert_allclose(eig.eigenvalues, vals[:k], rtol=1e-12)
    top = eig.eigenvectors
    want = vecs[:, :k]
    np.testing.assert_allclose(top @ top.conj().T, want @ want.conj().T, rtol=0, atol=1e-10)
    assert isinstance(eig.noise_variance, float)
    assert eig.noise_variance == pytest.approx(np.mean(vals[k:]), rel=1e-10)


@settings(max_examples=25)
@given(u=st.integers(145, 200), extra=st.integers(0, 100), data=st.data(), seed=seeds)
def test_lanczos_basis_grows_without_moving_a_bit(u, extra, data, seed):
    """A lockstep search's basis holds LANCZOS_FIRST_STEPS steps at first
    and grows as the trials still searching outrun it.  In one stack, one
    or two sources at 20 to 30 dB converge before the first growth, and
    noise alone or a sub-threshold spike (50 to 110 steps at U >= 145) after
    it, or runs out; each trial's pairs are bit for bit those of the trial searched
    alone, and match a dense eigh of W W*/(N L) at the tolerances of
    test_lanczos_top_k_matches_dense_eigh."""
    nl, k = u + extra, 1
    fast = ["source"] * data.draw(st.integers(1, 2), label="sources")
    slow = data.draw(st.lists(st.sampled_from(["noise", "spike"]), min_size=1, max_size=3), label="slow")
    kinds = data.draw(st.permutations(fast + slow), label="order")
    rng = np.random.default_rng(seed)
    ws = []
    for kind in kinds:
        w = complex_gaussian(rng, (u, nl))
        if kind == "spike":  # half the threshold sigma2 sqrt(c_N), as in the test above
            b = haar_columns(u, 1, rng) @ haar_columns(nl, 1, rng).conj().T
            w += math.sqrt(0.5 * math.sqrt(u / nl) * nl) * b
        elif kind == "source":
            a = steering_matrix(u, rng.uniform(-math.pi, math.pi))  # |a|^2 = 1, so U times the SNR
            w += a @ complex_gaussian(rng, (1, nl), math.sqrt(u * 10.0 ** rng.uniform(2.0, 3.0)))
        ws.append(w)
    w = np.stack(ws)

    def search(rows):
        steps = []

        def apply(y, x):
            steps.append(len(x))
            return SmoothedMatrix(snapshots=y, l=1).gram_matvec(x) / nl

        return _lanczos_top(apply, w[rows], u, k), len(steps)

    alone = [search([i]) for i in range(len(kinds))]
    for kind, ((top,), steps) in zip(kinds, alone):
        if kind == "source":
            assert top is not None and steps <= LANCZOS_FIRST_STEPS, (kind, steps)
        else:
            assert steps > LANCZOS_FIRST_STEPS, (kind, steps)
    assert any(top is not None for kind, ((top,), _) in zip(kinds, alone) if kind != "source")
    stacked, steps = search(list(range(len(kinds))))
    assert steps == max(n for _, n in alone)
    for i, (((top,), _), got) in enumerate(zip(alone, stacked)):
        if top is None:
            assert got is None
            continue
        np.testing.assert_array_equal(got[0], top[0])
        np.testing.assert_array_equal(got[1], top[1])
        vals, vecs = np.linalg.eigh(w[i] @ w[i].conj().T / nl)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        assume(vals[k - 1] - vals[k] > 1e-3 * vals[0])
        np.testing.assert_allclose(top[0], vals[:k], rtol=1e-12)
        want = vecs[:, :k]
        np.testing.assert_allclose(top[1] @ top[1].conj().T, want @ want.conj().T, rtol=0, atol=1e-10)


@st.composite
def noise_variance_inputs(draw, branches=("small-side", "dense", "lanczos")):
    """(m, n, l, k, snr_db, seed) sized for one of the branches of
    sample_covariance_eig: the W* W side (k < N L < U), the dense eigh
    (N L >= U < LANCZOS_MIN_DIM) or Lanczos (N L >= U >= LANCZOS_MIN_DIM),
    with 1 to 3 sources at -20 to 300 dB."""
    branch = draw(st.sampled_from(branches), label="branch")
    k = draw(st.integers(1, 3), label="k")
    if branch == "small-side":
        l = draw(st.integers(1, 3), label="l")
        n = draw(st.integers(k // l + 1, 6), label="n")
        m = draw(st.integers(n * l + l, 40), label="m")
    else:
        m = draw(st.integers(k + 2, 48) if branch == "dense" else st.integers(108, 120), label="m")
        l = draw(st.integers(1, min(m - k - 1, 12)), label="l")
        n = -(-(m - l + 1) // l) + draw(st.integers(0, 3), label="extra")
    return m, n, l, k, draw(st.floats(-20.0, 300.0), label="snr_db"), draw(seeds, label="seed")


def _sources_in_noise(m, n, k, snr_db, seed):
    """Y = A S + V for k unit-power sources at least 0.3 rad apart, and V."""
    rng = np.random.default_rng(seed)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    doas = rng.uniform(-math.pi, math.pi) + rng.uniform(0.3, 2.0 * math.pi / k) * np.arange(k)
    noise = complex_gaussian(rng, (m, n), math.sqrt(sigma2))
    return steering_matrix(m, doas) @ complex_gaussian(rng, (k, n)) + noise, noise, doas


@given(inputs=noise_variance_inputs(branches=("small-side",)))
@example(inputs=(40, 6, 1, 2, 300.0, 0))
@example(inputs=(17, 4, 1, 3, 154.0, 124))  # W Z (N L lambda)^{-1/2} alone: 1.6e-14 off
@example(inputs=(13, 2, 2, 3, 203.0, 274))  # 1.2e-14 off
def test_small_side_matches_the_svd_of_w(inputs):
    """On the W* W side (k < N L < U), smoothed or not, the top k pairs
    match the thin SVD W = V S Z* from -20 to 300 dB, where the noise
    rounds away: the eigenvalues s^2 / (N L), and the projector V V* onto
    their eigenvectors, which are orthonormal to 9 eps: the QR pass holds
    them there (5 eps at most on 600 draws), where W Z (N L lambda)^{-1/2}
    drifts by up to eps lambda_1 / lambda_k."""
    m, n, l, k, snr_db, seed = inputs
    smoothed = SmoothedMatrix(snapshots=_sources_in_noise(m, n, k, snr_db, seed)[0], l=l)
    nl = smoothed.virtual_snapshots
    assert k < nl < smoothed.subarray_size
    left, sing, _ = np.linalg.svd(smoothed.entries, full_matrices=False)
    want = sing**2 / nl
    # a near-degenerate k-th gap leaves the top-k subspace ill defined
    assume(want[k - 1] - want[k] > 1e-3 * want[0])
    eig = sample_covariance_eig(smoothed, k)
    np.testing.assert_allclose(eig.eigenvalues, want[:k], rtol=1e-12, atol=1e-13 * want[0])
    top, v = eig.eigenvectors, left[:, :k]
    np.testing.assert_allclose(top @ top.conj().T, v @ v.conj().T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(top.conj().T @ top, np.eye(k), rtol=0, atol=9 * EPS)


@given(inputs=noise_variance_inputs())
@example(inputs=(2, 8, 1, 1, 200.0, 0))
@example(inputs=(40, 4, 3, 2, 300.0, 0))
@example(inputs=(112, 16, 8, 2, 30.0, 0))
# past the trace bound, where the trace form would be off by 1e-10 or more
@example(inputs=(40, 4, 3, 2, 80.0, 0))
@example(inputs=(32, 9, 4, 2, 80.0, 0))
@example(inputs=(112, 16, 8, 2, 80.0, 0))
def test_noise_variance_lies_in_the_chi2_band_on_every_branch(inputs):
    """The residual noise estimate of every branch, for Y = A S + V with k
    unit-power sources and noise power sigma2, is positive and lies in the
    band that the chi^2 spread of the (U - k) N L noise degrees of freedom
    off the steering span gives; at moderate SNR it equals the mean of the
    dense spectrum's other U - k eigenvalues to 1e-10 relative; and at any
    SNR it equals the residual of the eigenvectors returned to 1e-11
    relative, whether read from the trace or summed as squares.

    The band: each row slice Y_t of the noise is an iid U x N block, so
    ||P Y_t||^2 / sigma2, with P the projection off the span of the k
    steering vectors, is Gamma((U - k) N); by the union bound the sum over
    the L slices, ||P W_V||^2, lies between L times the slices' quantiles at
    ALPHA / (2 L) and 1 - ALPHA / (2 L), except with probability ALPHA.
    Eckart-Young puts the residual between ||P W_V||^2 less its top k
    squared singular values (what a fit of k directions can remove) and
    ||P W_V||^2 itself.  A rounding floor of 2 U eps per entry of W,
    relative (the worst-case bound on a length-U inner product, for the
    Gram or products and the projection each residual entry comes from),
    widens both ends; it shows only above ~250 dB."""
    m, n, l, k, snr_db, seed = inputs
    u, nl = m - l + 1, n * l
    sigma2 = 10.0 ** (-snr_db / 10.0)
    y, noise, doas = _sources_in_noise(m, n, k, snr_db, seed)
    smoothed = SmoothedMatrix(snapshots=y, l=l)
    eig = sample_covariance_eig(smoothed, k)
    estimate = eig.noise_variance
    assert estimate > 0
    assert estimate == pytest.approx(smoothed.residual(eig.eigenvectors) / (nl * (u - k)), rel=1e-11, abs=0)

    steering, _ = np.linalg.qr(steering_matrix(u, doas))
    off = block_hankel(noise, l)
    off -= steering @ (steering.conj().T @ off)
    squares = np.linalg.svd(off, compute_uv=False) ** 2
    w = smoothed.entries
    floor = (2.0 * u * EPS) ** 2 * np.vdot(w, w).real / (nl * (u - k))
    dof = (u - k) * n
    lo, hi = scipy.stats.gamma.ppf([ALPHA / (2 * l), 1.0 - ALPHA / (2 * l)], dof) / dof
    fit = np.sum(squares[:k]) / (nl * (u - k))
    assert lo * sigma2 - fit - floor <= estimate <= hi * sigma2 + floor, estimate / sigma2

    if snr_db <= 30.0:
        every = np.linalg.eigvalsh(w @ w.conj().T / nl)
        assert estimate == pytest.approx(np.mean(every[: u - k]), rel=1e-10)


@given(nl=st.integers(1, 10), data=st.data(), seed=seeds, weighted=st.booleans())
def test_source_count_above_rank_stays_finite(nl, data, seed, weighted):
    """k >= N L leaves no noise eigenvalue in the range; results stay finite."""
    u = nl + data.draw(st.integers(2, 30), label="extra")
    k = data.draw(st.integers(nl, u - 1), label="k")
    eig = sample_covariance_eig(_smoothed(u, nl, seed), k)
    assert eig.eigenvalues.shape == (k,) and eig.eigenvectors.shape == (u, k)
    assert np.all(np.isfinite(eig.eigenvalues)) and np.all(np.isfinite(eig.eigenvectors))
    assert math.isfinite(eig.noise_variance)
    weights = np.full(k, 2.0) if weighted else None
    spectrum = Pseudospectrum(eig, weights)
    assert np.all(np.isfinite(spectrum.on_circle(-math.pi, 4 * u)))
    assert np.all(np.isfinite(spectrum(np.linspace(-math.pi, math.pi, 7))))


@given(
    doa=st.floats(-math.pi, math.pi, exclude_max=True),
    spacing=st.floats(3.0, 8.0),
    delta=st.floats(-math.pi, math.pi),
    seed=seeds,
)
def test_find_doas_does_not_depend_on_where_the_circle_starts(doa, spacing, delta, seed):
    """A whole-circle window starting at delta - pi finds the DoAs of the
    default window, for both spectra, to twice the refinement tolerance."""
    m = 32
    beamwidth = 2.0 * math.pi / m
    second = float(wrap_angle(doa + spacing * beamwidth))
    sc = ArrayScenario(m=m, n=20, l=4, doas=(doa, second), snr_db=30.0, seed=seed)
    eig = sample_covariance_eig(SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=sc.l), sc.k)
    weights = gmusic_weights(eig, eig.noise_variance, eig.c_n)
    shifted = SearchWindow(lo=delta - math.pi, hi=delta + math.pi)
    for spectrum in (Pseudospectrum(eig), Pseudospectrum(eig, weights)):
        base = find_doas(spectrum, 2, SearchWindow(), m)
        got = find_doas(spectrum, 2, shifted, m)
        gap = np.abs(wrap_angle(got[:, None] - base[None, :])).min(axis=1)
        assert np.max(gap) <= 2e-4 * beamwidth


def _spectrum_flags(config: str, grid_points: int, out_dir: str):
    """Angles flagged in each column of the CLI's spectrum CSV."""
    path = os.path.join(out_dir, "spectrum.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{config}\n[spectrum]\ngrid_points = {grid_points}\n\n[output]\nverbosity = quiet\n")
    assert cli.main(["spectrum", "--config", path, "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "spectrum.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [np.array([float(r[0]) for r in rows if r[col] == "true"]) for col in (3, 4)]


@given(
    m=st.integers(8, 24),
    l=st.integers(1, 8),
    doa=st.floats(-math.pi, math.pi, exclude_max=True),
    spacing=st.floats(0.1, 4.0),
    snr_db=st.floats(-10.0, 40.0),
    seed=seeds,
)
# two dips an eighth of a beamwidth apart: a search on the display grid itself
# splits them at 1024 points but not at 257, where it flags a sidelobe
@example(m=9, l=1, doa=1.5, spacing=0.125, snr_db=36.0, seed=1)
def test_spectrum_flags_do_not_depend_on_grid_points(m, l, doa, spacing, snr_db, seed):
    """The CLI flags the minima a trial's search finds, each at its nearest
    display row, so 257 and 1024 grid points flag the same angles to within
    one coarse grid step, on the circle, for close pairs too."""
    l = min(l, m // 3)
    second = float(wrap_angle(doa + spacing * 2.0 * math.pi / m))
    config = (
        f"[scenario]\nm = {m}\nn = 20\nl = {l}\ndoas = {doa!r}, {second!r}\n"
        f"snr_db = {snr_db!r}\nseed = {seed}\n"
    )
    with tempfile.TemporaryDirectory() as out_dir:
        coarse = _spectrum_flags(config, 257, out_dir)
        fine = _spectrum_flags(config, 1024, out_dir)
    step = 2.0 * math.pi / 256
    for a, b in zip(coarse, fine):
        for x, y in ((a, b), (b, a)):
            assert x.size and y.size
            gap = np.abs(wrap_angle(x[:, None] - y[None, :])).min(axis=1)
            assert np.max(gap) <= step, (x, y)


@st.composite
def smoothing_shapes(draw, most=64):
    """(m, n, l) with 1 <= l < m <= most, from the unsmoothed l = 1 to l = m - 1."""
    m = draw(st.integers(2, most), label="m")
    return m, draw(st.integers(1, 12), label="n"), draw(st.integers(1, m - 1), label="l")


@given(shape=smoothing_shapes(), trials=st.sampled_from((None, 1, 3)), seed=seeds)
@example(shape=(17, 5, 1), trials=None, seed=0)
@example(shape=(17, 5, 16), trials=3, seed=0)
@example(shape=(40, 1, 13), trials=None, seed=0)
def test_gram_residual_and_matvec_match_their_w_forms(shape, trials, seed):
    """SmoothedMatrix's gram() is W W*, its norm2(), weighted over Y's rows,
    is ||W||_F^2, its residual(V), summed over Y's row slices, is
    ||W - V V* W||_F^2, and its row-slice matvec(x) is W x, all to rounding
    level, for W = block_hankel(y, l): of one trial (trials None), and of a
    T x M x N stack, whose rows are each checked against that trial's own
    W, V and x."""
    m, n, l = shape
    u = m - l + 1
    lead = () if trials is None else (trials,)
    rng = np.random.default_rng(seed)
    y = 10.0 ** rng.uniform(-3, 3) * complex_gaussian(rng, (*lead, m, n))
    smoothed = SmoothedMatrix(snapshots=y, l=l)
    k = rng.integers(1, u)
    vecs = np.stack([haar_columns(u, k, rng) for _ in range(trials or 1)]).reshape(*lead, u, k)
    x = complex_gaussian(rng, (*lead, n * l, 2))
    gram, residual, wx = smoothed.gram(), smoothed.residual(vecs), smoothed.matvec(x)
    norm2 = smoothed.norm2()
    assert gram.shape == (*lead, u, u) and np.shape(residual) == lead and wx.shape == (*lead, u, 2)
    assert isinstance(residual, float) == (trials is None) and np.shape(norm2) == lead
    for row in [(t,) for t in range(trials)] if trials else [()]:
        w = block_hankel(y[row], l)
        want = w @ w.conj().T
        assert np.linalg.norm(gram[row] - want) <= 1e-13 * np.linalg.norm(want)
        assert norm2[row] == pytest.approx(np.vdot(w, w).real, rel=1e-13, abs=0)

        resid = w - vecs[row] @ (vecs[row].conj().T @ w)
        direct = np.vdot(resid, resid).real
        assert abs(np.asarray(residual)[row] - direct) <= 1e-13 * np.vdot(w, w).real

        bound = 1e-13 * np.linalg.norm(w) * np.linalg.norm(x[row])
        assert np.linalg.norm(wx[row] - w @ x[row]) <= bound
        one = smoothed.matvec(x[..., 0])[row]
        assert np.linalg.norm(one - w @ x[row][:, 0]) <= bound


@given(shape=smoothing_shapes(most=48), trials=st.sampled_from((None, 1, 3)), seed=seeds)
@example(shape=(17, 5, 1), trials=3, seed=0)
@example(shape=(17, 5, 16), trials=None, seed=0)
@example(shape=(48, 2, 20), trials=3, seed=0)
def test_adjoint_gram_and_matvec_products_match_w_entries(shape, trials, seed):
    """SmoothedMatrix's rmatvec(q), gram_matvec(q) and matvec(x), of one
    vector or a block of them, are W* q, W W* q and W x for W = entries, to
    1e-12 relative, for one trial (trials None) and for each row of a
    stack."""
    m, n, l = shape
    lead = () if trials is None else (trials,)
    rng = np.random.default_rng(seed)
    y = 10.0 ** rng.uniform(-3, 3) * complex_gaussian(rng, (*lead, m, n))
    smoothed = SmoothedMatrix(snapshots=y, l=l)
    w = smoothed.entries
    w_adj = w.conj().swapaxes(-1, -2)
    q = complex_gaussian(rng, (*lead, m - l + 1))
    x = complex_gaussian(rng, (*lead, n * l))
    block = complex_gaussian(rng, (*lead, n * l, 3))
    products = [
        (smoothed.rmatvec(q), (w_adj @ q[..., None])[..., 0]),
        (smoothed.gram_matvec(q), (w @ (w_adj @ q[..., None]))[..., 0]),
        (smoothed.matvec(x), (w @ x[..., None])[..., 0]),
        (smoothed.matvec(block), w @ block),
    ]
    for got, want in products:
        assert got.shape == want.shape
        err = np.linalg.norm((got - want).reshape(*lead, -1), axis=-1)
        assert np.all(err <= 1e-12 * np.linalg.norm(want.reshape(*lead, -1), axis=-1))


@given(m=st.integers(2, 40), data=st.data(), seed=seeds)
def test_signal_covariance_kronecker_and_hadamard_forms_agree(m, data, seed):
    """(1/L) A^(L) (P kron I_L) A^(L)* equals both package forms: W W* / (N L)
    for the noiseless snapshots A S, and (U/M) A_U (P o A_L^T conj A_L) A_U*."""
    l = data.draw(st.integers(1, m - 1), label="l")
    k = data.draw(st.integers(1, m - l), label="k")
    n = data.draw(st.integers(1, 12), label="n")
    doas = data.draw(
        st.lists(st.floats(-math.pi, math.pi, exclude_max=True), min_size=k, max_size=k, unique=True),
        label="doas",
    )
    sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=0.0)
    signal = draw_signal_matrix(k, n, sc.signal_policy, np.random.default_rng(seed))
    kron = signal_covariance_kronecker(sc, signal)
    for form in (signal_covariance, signal_covariance_hadamard):
        np.testing.assert_allclose(form(sc, signal), kron, rtol=0, atol=1e-12 * np.max(np.abs(kron)))


@given(m=st.integers(3, 48), data=st.data(), seed=seeds)
def test_separation_report_matches_kronecker_and_hadamard_eigenvalues(m, data, seed):
    """The K x K separation eigenvalues are the top-k eigenvalues of the
    U x U signal covariances, the Kronecker reference and both package
    forms, also for n < k, where some of them are 0."""
    l = data.draw(st.integers(1, m - 1), label="l")
    k = data.draw(st.integers(1, min(3, m - l)), label="k")
    policy = data.draw(st.sampled_from(SIGNAL_POLICIES), label="policy")
    n = data.draw(st.integers(k if policy == "identity-covariance" else 1, 8), label="n")
    doas = data.draw(
        st.lists(st.floats(-math.pi, math.pi, exclude_max=True), min_size=k, max_size=k, unique=True),
        label="doas",
    )
    sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=0.0, signal_policy=policy)
    signal = draw_signal_matrix(k, n, policy, np.random.default_rng(seed))
    lam = separation_report(sc, signal).lambda_signal
    for form in (signal_covariance_kronecker, signal_covariance, signal_covariance_hadamard):
        cov = form(sc, signal)
        want = np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))[::-1][:k]
        np.testing.assert_allclose(lam, want, rtol=0, atol=1e-10 * want[0])


# any angle, or one of three 1e-9 apart: two of those leave lambda_K at 0
separation_angles = st.one_of(
    st.floats(-math.pi, math.pi, exclude_max=True), st.sampled_from((0.0, 1e-9, 2e-9))
)


@given(m=st.integers(3, 48), data=st.data(), seed=seeds)
def test_stacked_separation_reports_equal_the_per_draw_oracle(m, data, seed):
    """A stack of D source matrices gives each draw's own report
    (reference.separation_report_per_draw) bit for bit, inf min_snr_db
    included, also for n < k; so does one draw alone.  table1, which
    stacks its draws, gives the rows of the per-draw table."""
    l = data.draw(st.integers(1, m - 1), label="l")
    k = data.draw(st.integers(1, min(3, m - l)), label="k")
    policy = data.draw(st.sampled_from(SIGNAL_POLICIES), label="policy")
    n = data.draw(st.integers(k if policy == "identity-covariance" else 1, 8), label="n")
    doas = data.draw(st.lists(separation_angles, min_size=k, max_size=k, unique=True), label="doas")
    draws = data.draw(st.integers(1, 6), label="draws")
    sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=0.0, signal_policy=policy, seed=seed)
    rng = np.random.default_rng(seed)
    signals = np.stack([draw_signal_matrix(k, n, policy, rng) for _ in range(draws)])
    stacked = separation_report(sc, signals)
    assert stacked.lambda_signal.shape == (draws, k)
    assert all(np.shape(getattr(stacked, f)) == (draws,) for f in PER_DRAW[1:])
    for d, signal in enumerate(signals):
        want = separation_report_per_draw(sc, signal)
        one = separation_report(sc, signal)
        assert (type(one.separated), type(one.margin), type(one.min_snr_db)) == (bool, float, float)
        for got in (one, replace(stacked, **{f: getattr(stacked, f)[d] for f in PER_DRAW})):
            assert np.array_equal(got.lambda_signal, want.lambda_signal)
            assert (got.separated, got.margin, got.min_snr_db) == (
                want.separated, want.margin, want.min_snr_db
            )
            assert (got.threshold, got.c_n) == (want.threshold, want.c_n)
    least = -(-k // n)  # table1 refuses an l with N l < k
    l_values = data.draw(st.lists(st.integers(least, m - k), max_size=3), label="l_values")
    assert table1(sc, l_values, draws) == table1_per_draw(sc, l_values, draws)


@st.composite
def table1_inputs(draw):
    """A small scenario of any source count, some of its sources 1e-9 apart,
    smoothing factors in range or anywhere, and a draw count."""
    m = draw(st.integers(2, 24), label="m")
    l = draw(st.integers(1, m - 1), label="l")
    n = draw(st.integers(1, 6), label="n")
    policy = draw(st.sampled_from(SIGNAL_POLICIES), label="policy")
    most = min(3, m - l, n if policy == "identity-covariance" else 3)
    k = draw(st.one_of(st.integers(min(1, most), most), st.just(0)), label="k")
    sc = ArrayScenario(
        m=m, n=n, l=l, signal_policy=policy, seed=draw(seeds, label="seed"),
        doas=draw(st.lists(separation_angles, min_size=k, max_size=k, unique=True), label="doas"),
        snr_db=draw(st.floats(-30.0, 250.0), label="snr_db"),
    )
    anywhere = st.one_of(st.integers(-1, m + 1), st.just(2.5))
    l_values = draw(
        st.one_of(st.lists(st.integers(1, m - 1), max_size=3), st.lists(anywhere, max_size=3)),
        label="l_values",
    )
    draws = draw(st.one_of(st.integers(1, 5), st.sampled_from((0, -1, 2.0, True))), label="draws")
    return sc, l_values, draws


@given(inputs=table1_inputs())
@example(inputs=(ArrayScenario(m=8, n=4, l=2, doas=(0, 1e-9), snr_db=0), [2, 4], 5))
def test_table1_over_its_accepted_domain(inputs):
    """table1 on any scenario, smoothing factors and draw count.  An
    accepted input gives one row per l with a median that is not nan and a
    range >= 0, and no numpy warning; any other is refused by a ValueError
    before the first draw, with no separation report run."""
    sc, l_values, draws = inputs
    m, n, k = sc.m, sc.n, sc.k
    accepted = (
        type(draws) is int and draws >= 1 and k >= 1
        and all(type(v) is int and 1 <= v <= m - k and k <= n * v for v in l_values)
    )
    if accepted:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = table1(sc, l_values, draws)
        assert [r.l for r in rows] == l_values
        for r in rows:
            assert not math.isnan(r.min_snr_db_median)
            assert r.min_snr_db_iqr >= 0
        return

    def drawn(*args):
        pytest.fail("table1 drew a signal before refusing its input")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(montecarlo, "_drawn_signal", drawn)
        patched.setattr(subspace, "separation_report", drawn)
        with pytest.raises(ValueError):
            table1(sc, l_values, draws)


@st.composite
def plan_inputs(draw):
    """run_plan's scenario and plan: a small array with 1 to 3 sources at
    least 1e-3 apart, an snr_db sweep of one or two points from -20 to
    250 dB, any set of the estimators the rank rule admits (N l >= k, and
    N l >= k + 1 for the G-MUSIC pair, at l = 1 for the unsmoothed pair),
    either DoA mode and any flags, on one worker; or the same with one
    argument out of range, the worker count included."""
    wrong = draw(
        st.sampled_from(
            (None,) * 8
            + ("l", "doas", "snr_db", "seed", "trials", "estimators", "rank", "doa_mode", "workers")
        ),
        label="wrong",
    )
    m = draw(st.integers(2, 24), label="m")
    l = draw(st.sampled_from((0, m)) if wrong == "l" else st.integers(1, m - 1), label="l")
    k = draw(st.integers(1, max(1, min(3, m - l))), label="k")
    policy = draw(st.sampled_from(SIGNAL_POLICIES), label="policy")
    n = k if wrong == "rank" else draw(st.integers(k, 6), label="n")
    angles = st.lists(st.floats(-math.pi, math.pi, exclude_max=True), min_size=k, max_size=k)
    doas = draw(angles.filter(lambda t: k == 1 or min_spacing(t) > 1e-3), label="doas")
    if wrong == "doas":
        # a repeat, one off [-pi, pi), or one 1e-9 away, which leaves the
        # steering Gram singular at float precision
        near = doas[0] - math.copysign(1e-9, doas[0])
        doas = doas + [draw(st.sampled_from((doas[0], math.pi, math.nan, near)), label="bad doa")]
    db = st.floats(-20.0, 250.0)
    bad_db = st.sampled_from((-4000.0, 4000.0, math.inf, math.nan))
    scenario = dict(
        m=m, n=n, l=l, doas=tuple(doas), signal_policy=policy, snr_db=draw(db, label="snr_db"),
        seed=draw(st.sampled_from((-1, 2.5, True)) if wrong == "seed" else seeds, label="seed"),
    )
    values = draw(st.lists(db, min_size=1, max_size=2), label="values")
    if wrong == "snr_db":
        values.append(draw(bad_db, label="bad snr_db"))
    admitted = [
        name for name, est in ESTIMATORS.items()
        if n * (l if est.smoothed else 1) >= k + est.corrected
    ]
    estimators = draw(st.lists(st.sampled_from(admitted), min_size=1, unique=True), label="estimators")
    if wrong == "rank":
        estimators.append("gmusic")  # N l = k at l = 1 leaves G-MUSIC no noise eigenvalue
    elif wrong == "estimators":
        estimators = draw(st.sampled_from(((), ("capon",), "music")), label="bad estimators")
    plan = dict(
        sweep="snr_db", values=tuple(values), estimators=tuple(estimators),
        trials=draw(
            st.sampled_from((0, -1, 2.0, True)) if wrong == "trials" else st.integers(1, 3),
            label="trials",
        ),
        doa_mode=draw(
            st.just("grid") if wrong == "doa_mode" else st.sampled_from(DOA_MODES), label="doa_mode"
        ),
        include_failures=draw(st.booleans(), label="include_failures"),
        fresh_signal=draw(st.booleans(), label="fresh_signal"),
        strict_separation=draw(st.booleans(), label="strict_separation"),
    )
    workers = draw(st.sampled_from((-1, 2.5, True)) if wrong == "workers" else st.just(1), label="workers")
    return wrong is None, scenario, plan, workers


@given(inputs=plan_inputs())
@example(inputs=(
    True,
    dict(m=2, n=8, l=1, doas=(0.3,), snr_db=200.0, seed=0),
    dict(sweep="snr_db", values=(200.0,), trials=2, estimators=("gmusic",)),
    1,
))
@example(inputs=(
    False,
    dict(m=8, n=4, l=2, doas=(0.0, 1e-9), snr_db=0.0, seed=0),
    dict(sweep="snr_db", values=(0.0,), trials=1, estimators=("music",), doa_mode="window"),
    1,
))
@example(inputs=(
    False,
    dict(m=8, n=4, l=2, doas=(0.0, 1.0), snr_db=0.0, seed=0),
    dict(sweep="snr_db", values=(0.0,), trials=1, estimators=("music",)),
    -1,
))
def test_run_plan_over_its_accepted_domain(inputs):
    """run_plan on any small scenario and plan.  An accepted input gives a row
    per point, estimator and source with failures <= trials, mse >= 0 or
    nan and a finite positive CRB, every resolved trial a finite error in
    [-pi, pi) and every other a row of nan, and no numpy warning; any other
    is refused by a ValueError before the first draw."""
    accepted, scenario, plan, workers = inputs
    if accepted:
        outcomes = []  # (causes, errors) per block and estimator
        run_block = montecarlo._run_block

        def spy(task):
            block = run_block(task)
            outcomes.extend(block.values())
            return block

        with pytest.MonkeyPatch.context() as patched, warnings.catch_warnings():
            warnings.simplefilter("error")
            patched.setattr(montecarlo, "_run_block", spy)
            rows = run_plan(ExperimentPlan(scenario=ArrayScenario(**scenario), **plan), workers)
        k, trials = len(scenario["doas"]), plan["trials"]
        assert len(rows) == len(plan["values"]) * len(plan["estimators"]) * k
        assert sum(len(causes) for causes, _ in outcomes) == (
            len(plan["values"]) * len(plan["estimators"]) * trials
        )
        for row in rows:
            assert 0 <= row.failures <= trials
            assert row.mse >= 0 or math.isnan(row.mse)
            assert 0 < row.crb < math.inf
        for causes, errors in outcomes:
            assert errors.shape == (len(causes), k) and set(causes) <= set(montecarlo.CAUSES)
            estimated = (causes == montecarlo.OK) | (causes == montecarlo.WILD)
            assert np.all((-math.pi <= errors[estimated]) & (errors[estimated] < math.pi))
            assert np.all(np.isnan(errors[~estimated]))
        return

    def drawn(*args):
        pytest.fail("run_plan drew before refusing its input")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(montecarlo, "_drawn_signal", drawn)
        patched.setattr(montecarlo, "observe", drawn)
        with pytest.raises(ValueError):
            run_plan(ExperimentPlan(scenario=ArrayScenario(**scenario), **plan), workers)


@st.composite
def sweep_inputs(draw):
    """consistency_sweep's arguments: one to three sizes at one c_N, either
    l fixed and n growing with the subarray or l growing with it at fixed
    n; 1 or 2 sources given in beamwidths, at least 1e-3 rad apart at the
    largest size; -20 to 250 dB, any set of estimators, 1 to 3 trials and
    one worker; or the same with one argument out of range."""
    wrong = draw(
        st.sampled_from(
            (None,) * 8
            + ("workers", "order", "drift", "doas", "snr_db", "trials", "estimators", "rank", "sizes")
        ),
        label="wrong",
    )
    k = draw(st.integers(1, 2), label="k")
    u, l = draw(st.integers(k + 1, 6), label="u"), draw(st.integers(1, 4), label="l")
    n = k if wrong == "rank" else draw(st.integers(k + 1, 4), label="n")
    count = draw(st.integers(2 if wrong in ("order", "drift") else 1, 3), label="count")
    if draw(st.booleans(), label="fixed l"):
        sizes = [(j * u + l - 1, j * n, l) for j in range(1, count + 1)]
    else:
        sizes = [(j * (u + l) - 1, n, j * l) for j in range(1, count + 1)]
    if wrong == "order":
        sizes = sizes[::-1] if draw(st.booleans(), label="reversed") else sizes + sizes[-1:]
    elif wrong == "drift":
        m, n_last, l_last = sizes[-1]
        sizes[-1] = (m, 2 * n_last, l_last)  # halves the last c_N
    elif wrong == "sizes":
        sizes = []
    half = sizes[0][0] / 2 if sizes else 1.0  # DoAs of the smallest array in [-pi, pi)
    beamwidths = st.floats(-half, half, exclude_max=True)
    largest = max((m for m, _, _ in sizes), default=1)
    doas = draw(
        st.lists(beamwidths, min_size=k, max_size=k).filter(
            lambda t: k == 1 or min_spacing([2.0 * math.pi * x / largest for x in t]) > 1e-3
        ),
        label="doas",
    )
    if wrong == "doas":
        # a repeat, nan, or a DoA 2 to 4 ulps from the first: too close for a bound
        nudged = doas[0]
        for _ in range(draw(st.integers(2, 4), label="ulps")):
            nudged = float(np.nextafter(nudged, math.inf))
        doas = [doas[0], draw(st.sampled_from((doas[0], math.nan, nudged)), label="bad doa")]
    snr_db = draw(
        st.sampled_from((4000.0, math.inf, math.nan)) if wrong == "snr_db" else st.floats(-20.0, 250.0),
        label="snr_db",
    )
    estimators = draw(st.lists(st.sampled_from(tuple(ESTIMATORS)), min_size=1, unique=True), label="estimators")
    if wrong == "rank":
        estimators.append("gmusic")  # N l = k at l = 1 leaves G-MUSIC no noise eigenvalue
    elif wrong == "estimators":
        estimators = draw(st.sampled_from(((), ("capon",), "music")), label="bad estimators")
    trials = draw(
        st.sampled_from((0, -1, 2.0, True)) if wrong == "trials" else st.integers(1, 3), label="trials"
    )
    workers = draw(st.sampled_from((-1, 2.5, True)) if wrong == "workers" else st.just(1), label="workers")
    return wrong is None, (tuple(sizes), tuple(doas), snr_db, tuple(estimators), trials, 0, workers)


@given(inputs=sweep_inputs())
@example(inputs=(False, (((8, 2, 2), (16, 4, 2)), (0.0, 1.5), 10.0, ("music-ss",), 2, 0, -1)))
@example(inputs=(False, (((16, 4, 2), (8, 2, 2)), (0.0, 1.5), 10.0, ("music-ss",), 2, 0, 1)))
@example(inputs=(  # two DoAs whose intervals cannot part in floating point at m = 8
    False, (((8, 2, 2), (16, 4, 2)), (-1.0, float(np.nextafter(-1.0, 0.0))), 10.0, ("music-ss",), 2, 0, 1)
))
@example(inputs=(  # two ulps apart the intervals part, but no bound exists
    False,
    (((8, 2, 2), (16, 4, 2)), (-1.0, float(np.nextafter(np.nextafter(-1.0, 0.0), 0.0))), 10.0,
     ("music-ss",), 2, 0, 1),
))
@example(inputs=(False, (((8, 2, 2), (16, 8, 2)), (0.0, 1.5), 10.0, ("music-ss",), 2, 0, 1)))
@example(inputs=(  # at m = 14 both refined estimates land on the true DoAs: a median of 0
    True, (((8, 3, 3), (14, 6, 3)), (2.96875, 0.375), 63.0, ("music",), 1, 0, 1)
))
def test_consistency_sweep_over_its_accepted_domain(inputs):
    """consistency_sweep on any small sizing policy, DoAs, SNR, estimators
    and counts.  An accepted input gives one row per size and estimator, in
    that order, with 0 <= failures <= trials and a finite median scaled
    error >= 0, or nan when every trial failed, and no numpy warning; any
    other (a bad worker count, m not increasing, c_N drifting, DoAs
    repeated, too close to part or too close for a Cramer-Rao bound, ...)
    is refused by a ValueError before the first draw."""
    accepted, args = inputs
    sizes, _, _, estimators, trials, _, _ = args
    if accepted:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = montecarlo.consistency_sweep(*args)
        assert [(r.m, r.n, r.l, r.estimator) for r in rows] == [
            (*size, est) for size in sizes for est in estimators
        ]
        for row in rows:
            assert row.trials == trials and 0 <= row.failures <= trials
            if row.failures == trials:
                assert math.isnan(row.median_scaled_error)
            else:
                assert 0 <= row.median_scaled_error < math.inf
        return

    def drawn(*args):
        pytest.fail("consistency_sweep drew before refusing its input")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(montecarlo, "_drawn_signal", drawn)
        patched.setattr(montecarlo, "observe", drawn)
        with pytest.raises(ValueError):
            montecarlo.consistency_sweep(*args)


@st.composite
def spike_inputs(draw):
    """spike_experiment's arguments: a small model of either noise kind, a
    noise power over 60 decades and distinct planted eigenvalues from 20 dB
    below it to 250 dB above it; or the same with one argument out of range."""
    wrong = draw(
        st.sampled_from(
            (None,) * 7 + ("l", "sigma2", "planted", "rank", "trials", "seed", "noise")
        ),
        label="wrong",
    )
    bad = st.sampled_from((0.0, -1.0, math.inf, math.nan))
    m = draw(st.integers(2, 24), label="m")
    n = draw(st.integers(1, 6), label="n")
    l = draw(st.sampled_from((0, m)) if wrong == "l" else st.integers(1, m - 1), label="l")
    decades = st.floats(-30.0, 30.0).map(lambda e: 10.0**e)
    sigma2 = draw(bad if wrong == "sigma2" else decades, label="sigma2")
    room = min(m - l, n * l)  # the most spikes the model takes
    k = room + 1 if wrong == "rank" else draw(st.integers(1, max(1, min(room, 4))), label="k")
    scale = sigma2 if 0.0 < sigma2 < math.inf else 1.0
    power = st.floats(-20.0, 250.0).map(lambda db: scale * 10.0 ** (db / 10.0))
    planted = draw(st.lists(power, min_size=k, max_size=k, unique=True), label="planted")
    if wrong == "planted":
        how = draw(st.sampled_from(("none", "repeat", "bad")), label="how")
        planted = [] if how == "none" else planted + [planted[0] if how == "repeat" else draw(bad)]
    trials = draw(
        st.sampled_from((0, -1, 2.0, True)) if wrong == "trials" else st.integers(1, 3),
        label="trials",
    )
    seed = draw(st.sampled_from((-1, 2.5, True)) if wrong == "seed" else seeds, label="seed")
    noise = draw(
        st.just("gaussian") if wrong == "noise" else st.sampled_from(("hankel", "iid")),
        label="noise",
    )
    return m, n, l, sigma2, tuple(planted), trials, seed, noise


@given(inputs=spike_inputs())
@example(inputs=(2, 1, 1, 1.0, (3.162277660168379e19,), 1, 1, "hankel"))
@example(inputs=(2, 1, 1, 1.0, (1.0,), 1, True, "hankel"))
def test_spike_experiment_over_its_accepted_domain(inputs):
    """spike_experiment on any model, noise power, planted eigenvalues and
    counts.  An accepted input gives finite statistics, lambda_hat >= 0 and
    projections in [0, 1], with no numpy warning; any other is refused by a
    ValueError before the first draw."""
    m, n, l, sigma2, planted, trials, seed, noise = inputs
    k, u, nl = len(planted), m - l + 1, n * l
    accepted = (
        1 <= l < m
        and 0.0 < sigma2 < math.inf
        and all(0.0 < lam < math.inf for lam in planted)
        and 1 <= len(set(planted)) == k
        and k < u
        and k <= nl
        and type(trials) is int and trials >= 1
        and type(seed) is int and seed >= 0
        and noise in ("hankel", "iid")
    )
    if accepted:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exp = verify.spike_experiment(m, n, l, sigma2, planted, trials, seed, noise)
        assert exp.lambda_hat.shape == exp.projections.shape == (trials, k)
        assert np.all(np.isfinite(exp.lambda_hat)) and np.all(exp.lambda_hat >= 0)
        assert np.all((exp.projections >= 0) & (exp.projections <= 1))
        assert np.all(np.isfinite(exp.rho)) and np.all(np.isfinite(exp.h[exp.detached]))
        return

    def drawn(*args):
        pytest.fail("spike_experiment drew before refusing its input")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(verify, "haar_columns", drawn)
        patched.setattr(verify, "_noise_block", drawn)
        with pytest.raises(ValueError):
            verify.spike_experiment(m, n, l, sigma2, planted, trials, seed, noise)


@given(
    c=st.one_of(st.just(1.0), st.floats(0.01, 10.0)),
    sigma2=st.floats(0.1, 10.0),
    frac=st.floats(0.01, 0.99),
)
def test_mp_cdf_differentiates_to_the_density(c, sigma2, frac):
    """A central difference of the CDF is the density inside the bulk, and
    the CDF climbs from the atom at the lower edge to 1 at the upper one."""
    p = MpParams(sigma2, c)
    span = p.edge_plus - p.edge_minus
    x = p.edge_minus + frac * span
    h = 1e-5 * span
    slope = (mp_cdf(x + h, p) - mp_cdf(x - h, p)) / (2.0 * h)
    assert slope == pytest.approx(mp_density(x, p), rel=1e-5)
    below, above = mp_cdf(np.array([p.edge_minus, np.nextafter(p.edge_plus, 0.0)]), p)
    assert below == mp_atom(p)
    assert above - below == pytest.approx(min(1.0, 1.0 / c), abs=1e-12)


@settings(max_examples=300)
@given(
    k=st.integers(1, 6),
    scale=st.sampled_from([1e-3, 0.3, math.pi]),
    center=st.sampled_from([0.0, math.pi]),
    turns=st.booleans(),
    seed=seeds,
)
def test_matched_errors_is_a_least_cost_assignment(k, scale, center, turns, seed):
    """The matched errors are those of one assignment, its total circular
    cost is the least over all k! assignments, and when every error of a
    least-cost assignment is below half the source spacing they are its
    errors bit for bit.  center = pi puts the sources across the seam;
    turns adds whole turns to the estimates, which name the same angles."""
    rng = np.random.default_rng(seed)
    truth = wrap_angle(center + rng.uniform(-1.0, 1.0, k))
    assume(np.unique(truth).size == k)
    est = wrap_angle(rng.permutation(truth) + scale * rng.standard_normal(k))
    if turns:
        est = est + 2.0 * math.pi * rng.integers(-2, 3, k)
    errors = _matched_errors(est, truth)
    # a stack is matched row by row; a row holding nan gives nan errors
    stacked = _matched_errors(np.stack([est, est[::-1], np.full(k, np.nan)]), truth)
    np.testing.assert_array_equal(stacked[:2], [errors, _matched_errors(est[::-1], truth)])
    assert np.all(np.isnan(stacked[2]))
    by_perm = [wrap_angle(est[list(perm)] - truth) for perm in itertools.permutations(range(k))]
    costs = [float(np.sum(np.abs(e))) for e in by_perm]
    best = by_perm[int(np.argmin(costs))]
    assert any(np.array_equal(errors, e) for e in by_perm)
    assert float(np.sum(np.abs(errors))) == pytest.approx(min(costs), rel=1e-12, abs=1e-15)
    half = 0.5 * min_spacing(truth) if k > 1 else math.inf
    if np.all(np.abs(best) < half):
        np.testing.assert_array_equal(errors, best)
