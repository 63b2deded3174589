"""Property tests for the signal model and the spectral and eigen layers.

The FFT scan of a whole-circle window and the chirp-z scan of any other
uniform grid are checked against direct evaluation through steering_matrix,
the FFT scan against the rotation identity it implies, the DoA search
against the angle the circle starts at and against a direct scan, and the CLI's
spectrum minima against the size of its display grid; conjugating the
snapshots mirrors both spectra; the thin-SVD eigen path is checked against
a dense eigh of the same covariance; the smoothed Gram matrix, the
row-slice noise residual and the row-slice matvec match their forms
through the block-Hankel matrix W; a source count above the rank of the
covariance must still give finite results; the Kronecker form of the
smoothed signal covariance (the tests' reference) agrees with the Gram,
Hadamard and K x K forms; a stack of draws gives each draw's separation
report bit for bit, and the separation table that stacks them the
per-draw table's rows; the separation table keeps its invariants, or
refuses before its first draw, on any input; the closed-form MP CDF differentiates to the
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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smoothmusic import cli, montecarlo, subspace
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
from smoothmusic.montecarlo import _matched_errors, table1
from smoothmusic.rmt import MpParams, mp_atom, mp_cdf
from smoothmusic.subspace import (
    LANCZOS_DIM_PER_PAIR,
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
def test_thin_svd_matches_dense_eigh(nl, extra, data, seed):
    """With c_N > 1 the thin-SVD eigensystem equals a dense eigh of W W*/(N L)."""
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
    # the U - N L null eigenvalues enter the mean as exact zeros
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
        assert _lanczos_top(0.5 * (cov + cov.conj().T), k) is not None
    assert eig.eigenvalues.shape == (k,)
    assert eig.eigenvectors.shape == (u, k)
    np.testing.assert_allclose(eig.eigenvalues, vals[:k], rtol=1e-12)
    top = eig.eigenvectors
    want = vecs[:, :k]
    np.testing.assert_allclose(top @ top.conj().T, want @ want.conj().T, rtol=0, atol=1e-10)
    assert isinstance(eig.noise_variance, float)
    assert eig.noise_variance == pytest.approx(np.mean(vals[k:]), rel=1e-10)


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
def smoothing_shapes(draw):
    """(m, n, l) with 1 <= l < m, from the unsmoothed l = 1 to l = m - 1."""
    m = draw(st.integers(2, 64), label="m")
    return m, draw(st.integers(1, 12), label="n"), draw(st.integers(1, m - 1), label="l")


@given(shape=smoothing_shapes(), seed=seeds)
@example(shape=(17, 5, 1), seed=0)
@example(shape=(17, 5, 16), seed=0)
@example(shape=(40, 1, 13), seed=0)
def test_gram_residual_and_matvec_match_their_w_forms(shape, seed):
    """SmoothedMatrix's gram() is W W*, its residual(V), summed over Y's row
    slices, is ||W - V V* W||_F^2, and its row-slice matvec(x) is W x, all
    to rounding level, for W = block_hankel(y, l)."""
    m, n, l = shape
    rng = np.random.default_rng(seed)
    y = 10.0 ** rng.uniform(-3, 3) * complex_gaussian(rng, (m, n))
    smoothed = SmoothedMatrix(snapshots=y, l=l)
    w = block_hankel(y, l)
    want = w @ w.conj().T
    got = smoothed.gram()
    assert got.shape == want.shape == (m - l + 1, m - l + 1)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    k = rng.integers(1, m - l + 1)
    vecs = haar_columns(m - l + 1, k, rng)
    resid = w - vecs @ (vecs.conj().T @ w)
    direct = np.vdot(resid, resid).real
    assert abs(smoothed.residual(vecs) - direct) <= 1e-13 * np.vdot(w, w).real

    x = complex_gaussian(rng, (n * l, 2))
    got_wx = smoothed.matvec(x)
    assert np.linalg.norm(got_wx - w @ x) <= 1e-13 * np.linalg.norm(w) * np.linalg.norm(x)
    one = smoothed.matvec(x[:, 0])
    assert np.linalg.norm(one - w @ x[:, 0]) <= 1e-13 * np.linalg.norm(w) * np.linalg.norm(x)


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
    by_perm = [wrap_angle(est[list(perm)] - truth) for perm in itertools.permutations(range(k))]
    costs = [float(np.sum(np.abs(e))) for e in by_perm]
    best = by_perm[int(np.argmin(costs))]
    assert any(np.array_equal(errors, e) for e in by_perm)
    assert float(np.sum(np.abs(errors))) == pytest.approx(min(costs), rel=1e-12, abs=1e-15)
    half = 0.5 * min_spacing(truth) if k > 1 else math.inf
    if np.all(np.abs(best) < half):
        np.testing.assert_array_equal(errors, best)
