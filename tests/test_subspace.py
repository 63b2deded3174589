"""Tests for the subspace estimators and the dip search.

Eigendecomposition is checked against a matrix assembled from a known
singular system; the corrected-spectrum weights against hand-computed
rational values; and the dip search against synthetic spectra whose vertex
and zero crossings are placed far apart, which pins the contract that
selection and refinement act on signed values (a modulus-folding search
would land on a crossing instead of the vertex).  The lockstep refinement
must equal one scalar golden-section search per dip (``reference``) bit for
bit, each row of a stacked top-k eigen search must equal that trial searched
alone bit for bit, and interval policies are checked on the circle.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from smoothmusic.array_model import (
    ArrayScenario,
    SmoothedMatrix,
    complex_gaussian,
    draw_signal_matrix,
    min_spacing,
    observe,
    signal_covariance,
    signal_covariance_hadamard,
    steering_matrix,
    synthesize_snapshots,
    wrap_angle,
)
from reference import golden_min, steering_vector
from smoothmusic import montecarlo, subspace
from smoothmusic.rmt import MpParams, h_star
from smoothmusic.subspace import (
    EigenSystem,
    MIN_INTERVAL_POINTS,
    KnownIntervals,
    NotSeparatedError,
    Pseudospectrum,
    SearchWindow,
    UnderResolvedError,
    _grid,
    _refine,
    find_doas,
    gmusic_pseudospectrum,
    gmusic_weights,
    intervals_around,
    sample_covariance_eig,
    separation_report,
    traditional_pseudospectrum,
)


def _unitary(dim, seed):
    """Haar-ish unitary via QR of a seeded complex Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def test_sample_covariance_eig_known_singular_system():
    """The top k eigenvalues of W W*/(N L) equal the planted squared singular
    values, and the noise variance is the mean of the others."""
    u = _unitary(4, 0)
    v = _unitary(6, 1)[:, :4]
    sing = np.array([3.0, 2.0, 1.0, 0.5])
    w = (u * sing) @ v.conj().T
    sm = SmoothedMatrix(snapshots=w, l=1)  # unsmoothed: subarray 4, virtual snapshots 6
    eig = sample_covariance_eig(sm, k=2)
    np.testing.assert_allclose(eig.eigenvalues, sing[:2] ** 2 / 6.0, rtol=1e-12)
    assert eig.eigenvectors.shape == (4, 2)
    assert eig.k == 2
    assert eig.dim == 4
    assert eig.c_n == pytest.approx(4 / 6, rel=1e-15)
    assert isinstance(eig.noise_variance, float)
    assert eig.noise_variance == pytest.approx(np.mean(sing[2:] ** 2 / 6.0), rel=1e-12)
    # eigenvectors recover the planted left singular vectors up to phase
    for i in range(2):
        overlap = abs(np.vdot(u[:, i], eig.eigenvectors[:, i]))
        assert overlap == pytest.approx(1.0, abs=1e-10), f"vector {i} overlap {overlap}"
    # eigenvalues are descending and nonnegative
    assert np.all(np.diff(eig.eigenvalues) <= 0)
    assert np.all(eig.eigenvalues >= 0)


def test_sample_covariance_eig_validation():
    """k bounds and non-finite snapshots are rejected."""
    sm = SmoothedMatrix(snapshots=np.zeros((4, 6), dtype=complex), l=1)
    for bad_k in (-1, 4, 5):
        with pytest.raises(ValueError):
            sample_covariance_eig(sm, bad_k)
    snapshots = np.zeros((4, 6), dtype=complex)
    snapshots[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sample_covariance_eig(SmoothedMatrix(snapshots=snapshots, l=1), 1)
    # real snapshots of any width are checked by value, also with an odd column count
    y = np.arange(40).reshape(8, 5)
    want = sample_covariance_eig(SmoothedMatrix(snapshots=y.astype(complex), l=2), 1).eigenvalues
    for dtype in (np.float32, np.int32, np.int64):
        got = sample_covariance_eig(SmoothedMatrix(snapshots=y.astype(dtype), l=2), 1).eigenvalues
        np.testing.assert_allclose(got, want, rtol=1e-5)


@pytest.mark.usefixtures("forbid_block_hankel")
@pytest.mark.parametrize("m, n, l", [(160, 20, 16), (32, 16, 4), (24, 30, 1)])
def test_gram_branches_never_build_the_smoothed_matrix(m, n, l):
    """The Lanczos branch (U = 145) and the dense branch, smoothed and not,
    read W W* from Y Y* and sum the Lanczos residual over Y's row slices:
    block_hankel, the U x N L copy, is never called."""
    sc = ArrayScenario(m=m, n=n, l=l, doas=(0.0, 0.4), snr_db=20.0, seed=0)
    eig = sample_covariance_eig(SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=l), sc.k)
    assert sc.virtual_snapshots >= sc.subarray_size
    assert 0.5 * sc.sigma2 < eig.noise_variance < 2.0 * sc.sigma2


def test_traditional_pseudospectrum_projector_identity():
    """Values equal a* (I - U_k U_k*) a computed explicitly, clipped to [0, 1]."""
    rng = np.random.default_rng(4)
    dim = 8
    u = _unitary(dim, 12)
    vals = np.sort(rng.uniform(0.1, 5.0, dim))[::-1]
    eig = EigenSystem(vals[:3], u[:, :3], c_n=0.4, noise_variance=float(np.mean(vals[3:])))
    proj = np.eye(dim) - u[:, :3] @ u[:, :3].conj().T
    thetas = np.linspace(-math.pi, math.pi, 41)
    got = traditional_pseudospectrum(eig, thetas)
    for t, g in zip(thetas, got):
        a = steering_vector(dim, t)
        oracle = float(np.real(a.conj() @ proj @ a))
        assert g == pytest.approx(min(max(oracle, 0.0), 1.0), abs=1e-12)
    # scalar in, float out
    assert isinstance(traditional_pseudospectrum(eig, 0.3), float)
    # k = 0 leaves the constant spectrum 1
    empty = EigenSystem(vals[:0], u[:, :0], c_n=0.4, noise_variance=float(np.mean(vals)))
    assert traditional_pseudospectrum(empty, 0.1) == 1.0


def test_gmusic_weight_exact_rational_case():
    """lambda = 3.75 at sigma2 = 1, c = 0.5 gives attenuation 0.7, weight 10/7."""
    edge = MpParams(1.0, 0.5).edge_plus
    eig = EigenSystem(
        eigenvalues=np.array([3.75, edge, 0.5 * edge]),
        eigenvectors=np.eye(4, 3, dtype=complex),
        c_n=0.5,
        noise_variance=0.2,
    )
    weights = gmusic_weights(eig, 1.0, 0.5)
    assert weights[0] == pytest.approx(10.0 / 7.0, rel=1e-12)
    # the inverse: h at the mapped location is exactly 0.7
    assert h_star(3.75, MpParams(1.0, 0.5)) == pytest.approx(0.7, rel=1e-12)
    # at or below the bulk edge the weight clamps to the traditional value
    assert weights[1:].tolist() == [1.0, 1.0]


def test_gmusic_weights_vector_and_mask():
    """Per-eigenvalue weights line up; exactly 1.0 marks a non-separated one."""
    edge = MpParams(1.0, 0.5).edge_plus
    eig = EigenSystem(
        eigenvalues=np.array([10.0, 3.75, 0.5 * edge]),
        eigenvectors=np.eye(4, 3, dtype=complex),
        c_n=0.5,
        noise_variance=0.2,
    )
    values = gmusic_weights(eig, 1.0, 0.5)
    assert values.shape == (3,)
    assert (values > 1.0).tolist() == [True, True, False]
    assert values[1] == pytest.approx(10.0 / 7.0, rel=1e-12)
    assert values[2] == 1.0


def test_gmusic_weights_on_a_stack_equal_each_trials_weights():
    """T x k eigenvalues with one sigma2 per trial give T x k weights, each
    trial's row bit for bit the weights of that trial alone; separated masks
    the entries above their own trial's bulk edge, whose weights are 1 / h,
    and every other entry weighs exactly 1.  strict refuses a stack with
    any entry at or below its edge."""
    c = 0.5
    sigma2 = np.array([1.0, 0.5, 2.0])
    edges = MpParams(sigma2, c).edge_plus
    vals = np.array([[10.0, 3.75], [10.0, 0.9 * edges[1]], [3.0 * edges[2], edges[2]]])
    eig = EigenSystem(vals, np.zeros((3, 4, 2), dtype=complex), c_n=c, noise_variance=sigma2)
    weights = gmusic_weights(eig, sigma2, c)
    mask = subspace.separated(eig, sigma2, c)
    assert weights.shape == mask.shape == (3, 2)
    assert mask.tolist() == [[True, True], [True, False], [True, False]]
    assert weights[0, 1] == pytest.approx(10.0 / 7.0, rel=1e-12)
    assert weights[~mask].tolist() == [1.0, 1.0] and np.all(weights[mask] > 1.0)
    for t in range(3):
        np.testing.assert_array_equal(weights[t], gmusic_weights(eig.row(t), float(sigma2[t]), c))
    gmusic_weights(EigenSystem(vals[:1], eig.eigenvectors[:1], c, sigma2[:1]), sigma2[:1], c, strict=True)
    with pytest.raises(NotSeparatedError) as info:
        gmusic_weights(eig, sigma2, c, strict=True)
    assert info.value.indices == (3, 5)


def test_gmusic_pseudospectrum_hand_case_and_overrides():
    """Axis-aligned eigenvectors give an angle-independent closed form."""
    eig = EigenSystem(
        eigenvalues=np.array([5.0]),
        eigenvectors=np.eye(4, 1, dtype=complex),
        c_n=0.5,
        noise_variance=1.0,
    )
    # |a(theta)* e_0|^2 = 1/4 for every theta, so eta = 1 - weight/4
    weight = 1.0 / h_star(5.0, MpParams(1.0, 0.5))
    for theta in (-1.0, 0.0, 2.2):
        got = gmusic_pseudospectrum(eig, 1.0, 0.5, theta)
        assert got == pytest.approx(1.0 - weight / 4.0, rel=1e-12)
        assert isinstance(got, float)
    # all-ones override reproduces the unclipped traditional spectrum
    ones = gmusic_pseudospectrum(eig, 1.0, 0.5, 0.3, weights=np.ones(1))
    assert ones == pytest.approx(0.75, rel=1e-14)
    # a large weight can push the value negative (no clipping on this path)
    big = gmusic_pseudospectrum(eig, 1.0, 0.5, 0.3, weights=np.array([8.0]))
    assert big == pytest.approx(-1.0, rel=1e-12)
    with pytest.raises(ValueError):
        gmusic_pseudospectrum(eig, 1.0, 0.5, 0.3, weights=np.ones(2))


def test_gmusic_strict_separation_error():
    """strict mode raises with diagnostics when a top eigenvalue is in the bulk."""
    p = MpParams(1.0, 0.5)
    eig = EigenSystem(
        eigenvalues=np.array([0.9 * p.edge_plus]),
        eigenvectors=np.eye(4, 1, dtype=complex),
        c_n=0.5,
        noise_variance=0.4,
    )
    with pytest.raises(NotSeparatedError) as info:
        gmusic_weights(eig, 1.0, 0.5, strict=True)
    assert info.value.indices == (0,)
    assert info.value.edge_plus == pytest.approx(p.edge_plus, rel=1e-12)
    assert f"eigenvalues [{0.9 * p.edge_plus!r}]" in str(info.value), "plain floats"
    # the pseudo-spectrum clamps instead: equals the traditional value
    lax = gmusic_pseudospectrum(eig, 1.0, 0.5, 0.1)
    assert lax == pytest.approx(0.75, rel=1e-12)


def test_find_doas_refines_to_vertex_not_zero_crossing():
    """A negative-floor dip is located at its vertex, not a flanking crossing.

    f(theta) = (theta - 0.313)^2 - 0.01 crosses zero at 0.213 and 0.413; a
    search that folded the sign would converge onto one of those crossings.
    The contract is the signed minimum at exactly 0.313.
    """
    vertex = 0.313
    fn = lambda th: (np.asarray(th) - vertex) ** 2 - 0.01
    m = 100
    got = find_doas(fn, 1, SearchWindow(lo=0.0, hi=1.0), m)
    assert got.shape == (1,)
    assert abs(got[0] - vertex) < 2e-4 * (2 * math.pi / m), (
        f"vertex missed: got {got[0]}, crossings sit at {vertex - 0.1} / {vertex + 0.1}"
    )
    # same contract under a known-interval policy
    got = find_doas(fn, 1, KnownIntervals(intervals=((0.1, 0.52),)), m)
    assert abs(got[0] - vertex) < 2e-4 * (2 * math.pi / m)


def test_find_doas_orders_minima_by_depth():
    """With more minima than sources, the deepest dips win."""
    # dips at 0.6 (depth -0.04) and 2.0 (depth -0.09)
    def fn(th):
        th = np.asarray(th)
        return np.minimum((th - 0.6) ** 2 - 0.04, (th - 2.0) ** 2 - 0.09)

    got = find_doas(fn, 1, SearchWindow(lo=0.0, hi=3.0), 50)
    assert abs(got[0] - 2.0) < 1e-3, "the deeper dip must be selected"
    both = find_doas(fn, 2, SearchWindow(lo=0.0, hi=3.0), 50)
    np.testing.assert_allclose(both, [0.6, 2.0], atol=1e-3)


def test_find_doas_known_intervals_and_errors():
    """Interval policy takes one minimum per interval; errors carry counts."""
    a, b = -0.8, 0.9
    fn = lambda th: ((np.asarray(th) - a) ** 2) * ((np.asarray(th) - b) ** 2)
    policy = KnownIntervals(intervals=((a - 0.2, a + 0.2), (b - 0.2, b + 0.2)))
    got = find_doas(fn, 2, policy, 64)
    np.testing.assert_allclose(got, [a, b], atol=1e-4)

    with pytest.raises(ValueError):
        find_doas(fn, 1, policy, 64)  # interval count != k
    with pytest.raises(ValueError):
        find_doas(fn, 0, policy, 64)
    with pytest.raises(TypeError):
        find_doas(fn, 2, "not-a-policy", 64)

    rising = lambda th: np.asarray(th) * 1.0
    with pytest.raises(UnderResolvedError) as info:
        find_doas(rising, 1, SearchWindow(lo=0.0, hi=1.0), 64)
    assert info.value.needed == 1
    assert info.value.found == 0


def test_find_doas_whole_circle_has_no_seam():
    """A source next to -pi is found, whichever angle the circle starts at.

    The whole-circle grid is periodic: a dip straddling -pi/pi is a minimum
    like any other, and refined angles come back in [-pi, pi).
    """
    m = 32
    sc = ArrayScenario(m=m, n=20, l=1, doas=(-math.pi + 1e-3, 1.0), snr_db=30.0, seed=0)
    eig = sample_covariance_eig(SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=sc.l), sc.k)
    direct = lambda th: traditional_pseudospectrum(eig, th)
    for fn in (direct, Pseudospectrum(eig)):  # direct scan, FFT scan
        for window in (SearchWindow(), SearchWindow(lo=0.0, hi=2 * math.pi)):
            got = find_doas(fn, 2, window, m)
            np.testing.assert_allclose(got, sc.doas, atol=0.01, err_msg=f"{window}")
            assert np.all((got >= -math.pi) & (got < math.pi))


def test_find_doas_interval_across_the_seam_wraps():
    """An interval that crosses +-pi returns its minimum wrapped onto
    [-pi, pi), where the whole-circle search finds the same dip."""
    m = 32
    xtol = 1e-4 * (2 * math.pi / m)
    for seed in (2, 4):
        sc = ArrayScenario(m=m, n=20, l=4, doas=(math.pi - 1e-4,), snr_db=10.0, seed=seed)
        smoothed = SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=sc.l)
        spectrum = Pseudospectrum(sample_covariance_eig(smoothed, 1))
        got = find_doas(spectrum, 1, intervals_around(sc.doas, m), m)
        assert -math.pi <= got[0] < math.pi, f"seed {seed}: {got[0]} not wrapped"
        circle = find_doas(spectrum, 1, SearchWindow(), m)
        assert abs(got[0] - circle[0]) <= 2 * xtol, f"seed {seed}: {got[0]} vs {circle[0]}"


def test_find_doas_sub_window_past_pi_wraps():
    """A sub-window that reaches past pi returns its minimum wrapped onto
    [-pi, pi), like the whole-circle search."""
    m = 32
    sc = ArrayScenario(m=m, n=20, l=4, doas=(-math.pi + 0.02,), snr_db=20.0, seed=0)
    smoothed = SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=sc.l)
    spectrum = Pseudospectrum(sample_covariance_eig(smoothed, 1))
    got = find_doas(spectrum, 1, SearchWindow(lo=2.5, hi=3.5), m)
    assert -math.pi <= got[0] < math.pi, f"{got[0]} not wrapped"
    circle = find_doas(spectrum, 1, SearchWindow(), m)
    assert abs(got[0] - circle[0]) <= 2e-4 * (2 * math.pi / m), f"{got[0]} vs {circle[0]}"


def test_grid_policy_validation():
    """Degenerate windows and overlapping or unbounded intervals are rejected."""
    with pytest.raises(ValueError):
        SearchWindow(lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        KnownIntervals(intervals=((0.0, 0.0),))
    with pytest.raises(ValueError):
        KnownIntervals(intervals=((0.0, 0.5), (0.4, 0.9)))
    with pytest.raises(ValueError, match="not finite"):
        KnownIntervals(intervals=((0.0, math.inf),))


# the dips of cos(3 theta - 1.5) in [-pi, pi), ascending
_COS3_DIPS = [0.5 + math.pi - 2.0 * math.pi, 0.5 - math.pi / 3.0, 0.5 + math.pi / 3.0]


def test_known_intervals_must_be_disjoint_on_the_circle():
    """Intervals are compared after wrapping: -3.25 is 3.033 on the circle,
    inside (3.0, 3.2), where both intervals would return the one source at
    3.1.  One interval wider than 2 pi overlaps itself.  Intervals written a
    turn apart, in any order, or touching stay valid."""
    with pytest.raises(ValueError, match="overlap on the circle"):
        KnownIntervals(intervals=((-3.25, -3.0), (3.0, 3.2)))
    with pytest.raises(ValueError, match="overlap on the circle"):
        KnownIntervals(intervals=((-3.0, 3.0), (3.1, 3.4)))  # 3.4 is -2.883
    with pytest.raises(ValueError, match="wider than the circle"):
        KnownIntervals(intervals=((-4.0, 4.0),))
    for ivs in (
        ((-0.34, 0.34), (6.66, 7.34)),
        ((6.66, 7.34), (-0.34, 0.34)),
        ((0.0, 0.5), (0.5, 0.9)),
        ((-math.pi, math.pi),),
        ((3.0, 3.5), (-2.7, -1.0)),  # 3.5 is -2.783
    ):
        assert KnownIntervals(intervals=ivs).intervals == ivs

    # one source per interval, each found once, wherever the turn is written
    fn = lambda th: np.cos(3.0 * np.asarray(th) - 1.5)
    policy = KnownIntervals(intervals=((1.3, 1.8), (3.4, 3.9), (5.5, 6.0)))
    np.testing.assert_allclose(find_doas(fn, 3, policy, 64), _COS3_DIPS, atol=1e-5)


def test_search_window_wider_than_the_circle_is_refused():
    """Past 2 pi a window scans some angles twice, where one source shows up
    as two dips 2 pi apart; a window of exactly 2 pi is the circle."""
    with pytest.raises(ValueError, match="wider than the circle"):
        SearchWindow(lo=-4.0, hi=4.0)
    assert SearchWindow(lo=-4.0, hi=-4.0 + 2 * math.pi).circle


@pytest.mark.parametrize(
    "lo, hi", [(math.nan, math.pi), (-math.pi, math.nan), (math.inf, math.inf), (-math.inf, -math.inf)]
)
def test_search_window_non_finite_bound_is_refused_by_name(lo, hi):
    """A nan bound, or two infinite ones with no width between them, is named
    as not finite rather than taken for an empty window.  A window that
    reaches to infinity is wider than the circle."""
    with pytest.raises(ValueError, match=r"^search window \[.*\] is not finite$"):
        SearchWindow(lo=lo, hi=hi)
    with pytest.raises(ValueError, match="wider than the circle"):
        SearchWindow(lo=-math.inf, hi=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_doas(np.cos, 1, SearchWindow(), 0), "m must be >= 1, got 0"),
        (lambda: find_doas(np.cos, 1.5, SearchWindow(), 16), "k must be an integer, got 1.5"),
        (lambda: intervals_around((1.0,), 0), "m must be >= 1, got 0"),
        (lambda: intervals_around((1.0,), 2.5), "m must be an integer, got 2.5"),
    ],
    ids=["find_doas-m0", "find_doas-k1.5", "intervals_around-m0", "intervals_around-m2.5"],
)
def test_search_refuses_bad_counts(call, message):
    """The search's source count k and array size m go through the one count
    rule: refused by name, not a ZeroDivisionError or a slicing TypeError."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_intervals_around_arithmetic():
    """Half-width is 0.475 of the minimum spacing; lone sources get a half beam."""
    iv = intervals_around((0.0, 0.4), m=20)
    np.testing.assert_allclose(iv.intervals[0], (-0.19, 0.19), atol=1e-12)
    np.testing.assert_allclose(iv.intervals[1], (0.21, 0.59), atol=1e-12)
    # the spacing is measured on the circle: 0.1 across the seam at +-pi
    seam = intervals_around((math.pi - 0.05, -math.pi + 0.05), m=64)
    np.testing.assert_allclose(
        seam.intervals, [(-math.pi + 0.0025, -math.pi + 0.0975), (math.pi - 0.0975, math.pi - 0.0025)],
        atol=1e-12,
    )
    lone = intervals_around((0.5,), m=10)
    np.testing.assert_allclose(lone.intervals[0], (0.5 - math.pi / 10, 0.5 + math.pi / 10), atol=1e-12)
    with pytest.raises(ValueError):
        intervals_around((), m=10)
    with pytest.raises(ValueError, match=r"^doas 1\.0 and 1\.0 are too close to search apart$"):
        intervals_around((1.0, 1.0), m=64)
    with pytest.raises(ValueError, match="doas 0.0 and 6.283185307179586 are too close"):
        intervals_around((0.0, 2.0 * math.pi), m=64)  # one direction


@given(
    doas=st.lists(st.floats(-math.pi, math.pi, exclude_max=True), min_size=1, max_size=6, unique=True),
    m=st.integers(2, 1024),
    ulps=st.one_of(st.none(), st.integers(1, 8), st.integers(1, 10**5)),
)
@example(doas=[math.pi - 0.05, -math.pi + 0.05], m=64, ulps=None)
@example(doas=[-math.pi, 0.0], m=64, ulps=None)
@example(doas=[1.0], m=64, ulps=1)
@example(doas=[math.nextafter(math.pi, 0.0), 0.0], m=64, ulps=1)  # the neighbour is -pi
def test_intervals_around_distinct_doas_are_never_refused(doas, m, ulps):
    """The intervals around distinct DoAs in [-pi, pi) are disjoint on the
    circle, also across the seam.  ulps adds a neighbour that many ulps past
    the first DoA, wrapped.  DoAs 1e-12 or more apart are never refused.
    Closer ones may be: their intervals' gap nears the rounding of 2 pi, and
    at one ulp apart the intervals themselves round to points.  Then the
    refusal names the closest pair."""
    if ulps is not None:
        doas = doas + [float(wrap_angle(doas[0] + ulps * math.ulp(doas[0])))]
        assume(len(set(doas)) == len(doas))
    if len(doas) == 1 or min_spacing(doas) > 1e-12:
        assert len(intervals_around(doas, m).intervals) == len(doas)
        return
    try:
        ivs = intervals_around(doas, m).intervals
    except ValueError as exc:
        named = re.fullmatch(r"doas (\S+) and (\S+) are too close to search apart", str(exc))
        assert named, exc
        pair = [float(t) for t in named.groups()]
        assert set(pair) <= set(doas) and min_spacing(pair) == min_spacing(doas)
        return
    # nonempty, and in the order of the sorted DoAs each ends before the
    # next starts, the last before the first one turn later
    assert all(b > a for a, b in ivs)
    assert all(b <= a for (_, b), (a, _) in zip(ivs, ivs[1:]))
    assert ivs[-1][1] - ivs[0][0] <= 2.0 * math.pi


def _trig_poly(seed):
    """A random trigonometric polynomial, evaluated one angle at a time, so a
    value never depends on how many angles one call asks for."""
    rng = np.random.default_rng(seed)
    terms = list(zip(range(1, 7), rng.standard_normal(6), rng.uniform(0.0, 2.0 * math.pi, 6)))

    def fn(theta):
        return np.array([sum(c * math.cos(j * t + phi) for j, c, phi in terms) for t in theta])

    return fn


@given(
    brackets=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-1.0, 5.0)), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(brackets=[(0.5, -1.0)], seed=0)
@example(brackets=[(-3.0, 4.0), (0.5, -0.5), (1.0, 2.0)], seed=1)
def test_lockstep_refine_equals_golden_section_per_dip(brackets, seed):
    """_refine advances all searches together and returns, bit for bit, the
    wrapped result of one scalar golden-section search per bracket.  Widths
    xtol 10^e differ, so the searches take different step counts; e <= 0 is
    a bracket within xtol, returned at once."""
    xtol = 1e-4 * (2.0 * math.pi / 64)
    brackets = [(a, a + xtol * 10.0**e) for a, e in brackets]
    fn = _trig_poly(seed)
    scalar = lambda t: float(fn(np.array([t]))[0])
    want = wrap_angle([golden_min(scalar, a, b, xtol) for a, b in brackets])
    got = _refine(fn, *np.array(brackets).T, xtol)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_find_doas_refines_intervals_in_lockstep():
    """With k = 3 intervals a plain callable sees its 3 grids, then one call
    per golden-section step of the longest search, each on at most 3 angles,
    not 3 separate searches of 2 + steps calls each."""
    sizes = []

    def fn(theta):
        theta = np.asarray(theta)
        sizes.append(theta.size)
        return np.cos(3.0 * theta - 1.5)

    m = 64
    policy = KnownIntervals(intervals=((-2.9, -2.4), (-0.8, -0.3), (1.3, 1.8)))
    np.testing.assert_allclose(find_doas(fn, 3, policy, m), _COS3_DIPS, atol=1e-5)
    grids = [_grid(lo, hi, m, floor=MIN_INTERVAL_POINTS).size for lo, hi in policy.intervals]
    assert sizes[:3] == grids
    xtol = 1e-4 * (2.0 * math.pi / m)
    h, steps = max(2.0 * (hi - lo) / (n - 1) for (lo, hi), n in zip(policy.intervals, grids)), 0
    while h > xtol:
        h *= (math.sqrt(5.0) - 1.0) / 2.0
        steps += 1
    refine = sizes[3:]
    assert 0 < len(refine) <= 2 + steps
    assert max(refine) <= 3


def test_noiseless_recovery_both_estimators():
    """At vanishing noise both spectra dip to ~0 exactly at the sources."""
    m, n, l = 32, 12, 8
    doas = (-0.9, 0.7)
    sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=300.0, seed=3)
    eig = sample_covariance_eig(SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=l), sc.k)
    for theta in doas:
        assert traditional_pseudospectrum(eig, theta) < 1e-10
    policy = intervals_around(doas, m)
    xtol = 1e-4 * (2 * math.pi / m)
    got = find_doas(lambda th: traditional_pseudospectrum(eig, th), 2, policy, m)
    np.testing.assert_allclose(got, doas, atol=2 * xtol)
    s2 = eig.noise_variance
    got_g = find_doas(lambda th: gmusic_pseudospectrum(eig, s2, eig.c_n, th), 2, policy, m)
    np.testing.assert_allclose(got_g, doas, atol=2 * xtol)


def test_find_doas_whole_circle_minima_near_doas_both_spectra():
    """The whole-circle search puts one refined minimum at each source on
    both spectra."""
    m, n, l = 32, 16, 8
    doas = (-0.5, 0.7)
    sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=40.0, seed=6)
    eig = sample_covariance_eig(SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=l), sc.k)
    weights = gmusic_weights(eig, eig.noise_variance, eig.c_n)
    for spectrum, name in ((Pseudospectrum(eig), "traditional"), (Pseudospectrum(eig, weights), "g-music")):
        got = find_doas(spectrum, 2, SearchWindow(), m)
        np.testing.assert_allclose(got, doas, atol=5e-3, err_msg=name)


def _under_resolved_stack():
    """Eigensystems of six trials at (6, 8, 2), four sources on the 5-sensor
    subarray at 0 dB, and their G-MUSIC weights: on the whole circle some
    rows of each spectrum have fewer than four dips."""
    sc = ArrayScenario(m=6, n=8, l=2, doas=(-2.5, -1.0, 0.5, 2.0), snr_db=0.0, seed=0)
    signal = montecarlo._drawn_signal(sc)
    y = np.stack([observe(sc, signal, np.random.default_rng(t)) for t in range(6)])
    eig = sample_covariance_eig(SmoothedMatrix(snapshots=y, l=sc.l), sc.k)
    return sc, eig, gmusic_weights(eig, eig.noise_variance, eig.c_n)


def test_paired_search_rows_equal_each_spectrum_alone():
    """A Pseudospectrum of MUSIC and G-MUSIC rows over one stack of
    eigensystems, weights (None, w), gives each row that spectrum's values
    alone, bit for bit: on the FFT circle, on a chirp-z grid and in
    refinement's by_row, each row the traditional_pseudospectrum or the
    gmusic_pseudospectrum of its trial.  find_doas on it gives each
    spectrum's DoAs, and under the whole-circle window it meets
    under-resolved rows (nan) of both estimators."""
    sc, eig, w = _under_resolved_stack()
    t = len(w)
    paired = Pseudospectrum(eig, (None, w))
    alone = (Pseudospectrum(eig), Pseudospectrum(eig, w))
    direct = (
        lambda row, th: traditional_pseudospectrum(eig.row(row), th),
        lambda row, th: gmusic_pseudospectrum(eig.row(row), None, None, th, weights=w[row]),
    )
    for scan in (lambda f: f.on_circle(-math.pi, 97), lambda f: f.on_grid(-1.0, 0.01, 41)):
        np.testing.assert_array_equal(scan(paired), np.concatenate([scan(f) for f in alone]))
    grid = -1.0 + 0.01 * np.arange(41)
    for s, f in enumerate(direct):
        for row in range(t):
            np.testing.assert_allclose(paired.on_grid(-1.0, 0.01, 41)[s * t + row], f(row, grid), atol=1e-12)
    rows = np.array([0, 7, 3, 11, 7, 5, 6])
    theta = np.linspace(-3.0, 3.0, rows.size)
    got = paired.by_row(rows)(theta)
    for s, f in enumerate(alone):
        mine = rows // t == s
        np.testing.assert_array_equal(got[mine], f.by_row(rows[mine] % t)(theta[mine]))
    for policy in (SearchWindow(), intervals_around(sc.doas, sc.m)):
        found = find_doas(paired, sc.k, policy, sc.m)
        for s, f in enumerate(alone):
            np.testing.assert_array_equal(found[s * t : (s + 1) * t], find_doas(f, sc.k, policy, sc.m))
    unresolved = np.isnan(find_doas(paired, sc.k, SearchWindow(), sc.m)[:, 0]).reshape(2, t)
    assert unresolved.any(axis=1).all() and not unresolved.all(axis=1).any(), unresolved


def test_paired_music_rows_keep_their_clip():
    """MUSIC rows of a paired stack stay in [0, 1] where the same
    projections with unit weights, unclipped, round below 0: k = U - 1
    eigenvectors spanning a(theta0), read at theta0 on a chirp-z grid."""
    u, theta0 = 8, 0.5
    rng = np.random.default_rng(8)
    basis = np.linalg.qr(np.hstack([steering_matrix(u, theta0), complex_gaussian(rng, (u, u - 2))]))[0]
    span = basis @ np.linalg.qr(complex_gaussian(rng, (u - 1, u - 1)))[0]  # a(theta0) spread over all
    other = np.linalg.qr(complex_gaussian(rng, (u, u - 1)))[0]
    eig = EigenSystem(np.ones((2, u - 1)), np.stack([span, other]), 0.5, np.ones(2))
    ones = np.ones((2, u - 1))
    vals = Pseudospectrum(eig, (None, ones)).on_grid(theta0, 0.01, 3)
    assert vals[2, 0] < 0.0  # trial 0 with unit weights, unclipped
    assert vals[0, 0] == 0.0
    assert np.all((vals[:2] >= 0.0) & (vals[:2] <= 1.0))
    np.testing.assert_array_equal(vals[2:], Pseudospectrum(eig, ones).on_grid(theta0, 0.01, 3))


def test_eigen_pass_memory_follows_the_steps_taken():
    """The eigen pass of a block at (160, 20, 16) holds at its tracemalloc
    peak no more than the arrays it must: the T x M x N stack (a search
    copies the rows still searching when a trial leaves), one product's
    T x l x M temporaries, and a basis of at most twice the steps taken.
    The U / 2-step basis the search once allocated up front does not fit:
    that pass peaked at 4.55 MB here against a bound of 2.77 MB."""
    sc = ArrayScenario(m=160, n=20, l=16, doas=(0.0, math.pi / 320), snr_db=31.0, seed=1)
    trials, item = montecarlo.BLOCK_TRIALS, np.dtype(complex).itemsize
    signal = montecarlo._drawn_signal(sc)
    y = np.stack([observe(sc, signal, np.random.default_rng(t)) for t in range(trials)])
    smoothed = SmoothedMatrix(snapshots=y, l=sc.l)
    steps = []
    with pytest.MonkeyPatch.context() as patched:
        real = SmoothedMatrix.gram_matvec
        patched.setattr(SmoothedMatrix, "gram_matvec", lambda self, q: steps.append(q) or real(self, q))
        sample_covariance_eig(smoothed, sc.k)
    assert 0 < len(steps) < sc.subarray_size // subspace.LANCZOS_DIM_PER_STEP
    basis = trials * 2 * len(steps) * sc.subarray_size * item
    bound = y.nbytes + trials * sc.l * sc.m * item + basis
    tracemalloc.start()
    try:
        sample_covariance_eig(smoothed, sc.k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_separation_report_single_source_closed_form():
    """One unit-power source: the signal eigenvalue is (m - l + 1)/m exactly."""
    m, n, l = 24, 10, 6
    sc = ArrayScenario(m=m, n=n, l=l, doas=(0.4,), snr_db=10.0, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(5))
    s = draw_signal_matrix(1, n, "random-gaussian-normalized", rng)
    rep = separation_report(sc, s)
    expected = (m - l + 1) / m
    assert rep.lambda_signal.shape == (1,)
    assert rep.lambda_signal[0] == pytest.approx(expected, rel=1e-10)
    assert rep.threshold == pytest.approx(sc.sigma2 * math.sqrt(sc.c_n), rel=1e-12)
    assert rep.separated == (rep.lambda_signal[0] > rep.threshold)
    assert rep.margin == pytest.approx(rep.lambda_signal[0] - rep.threshold, rel=1e-12)
    assert rep.min_snr_db == pytest.approx(
        10 * math.log10(math.sqrt(sc.c_n) / rep.lambda_signal[0]), rel=1e-12
    )
    assert rep.c_n == pytest.approx(sc.c_n, rel=1e-15)


def test_separation_report_matches_dense_forms_at_table_size():
    """At the separation table's own size, (160, 20) with the paper's L grid,
    the K x K eigenvalues are the top-k eigenvalues of both U x U signal
    covariances, for a few draws of the table's signal stream."""
    sc = ArrayScenario(m=160, n=20, l=2, doas=(0.0, math.pi / 320), snr_db=0.0, seed=1)
    for d in range(3):
        signal = montecarlo._drawn_signal(sc, sc.k, sc.n, d)
        for l in (2, 4, 8, 16, 32, 64, 96, 128):
            at_l = replace(sc, l=l)
            lam = separation_report(at_l, signal).lambda_signal
            for cov in (signal_covariance(at_l, signal), signal_covariance_hadamard(at_l, signal)):
                want = np.linalg.eigvalsh(cov)[::-1][: sc.k]
                np.testing.assert_allclose(lam, want, rtol=0, atol=1e-10 * want[0], err_msg=f"l={l}")


def test_eight_sources_at_u_145_converge_in_lanczos(monkeypatch):
    """k = 8 sources at 10 dB, U = 145: the size rule (U < 24 k) sends the
    top-k search to a dense eigh, and Lanczos run on the same matrix
    converges: its eigenvalues match that eigh to 1e-10 relative, and it
    spans the same top-k subspace."""
    sc = ArrayScenario(
        m=160, n=20, l=16, doas=-math.pi + 2.0 * math.pi * (np.arange(8) + 0.5) / 8,
        snr_db=10.0, seed=2,
    )
    lanczos_top = subspace._lanczos_top
    calls = []
    monkeypatch.setattr(subspace, "_lanczos_top", lambda apply, data, u, k: calls.append(k))
    smoothed = SmoothedMatrix(snapshots=synthesize_snapshots(sc), l=sc.l)
    eig = sample_covariance_eig(smoothed, sc.k)
    assert calls == []
    cov = smoothed.gram() / sc.virtual_snapshots
    (top,) = lanczos_top(
        lambda y, x: SmoothedMatrix(snapshots=y, l=sc.l).gram_matvec(x) / sc.virtual_snapshots,
        smoothed.snapshots[None], sc.subarray_size, sc.k,
    )
    assert top is not None
    want = np.linalg.eigvalsh(cov)[::-1]
    np.testing.assert_allclose(top[0], want[: sc.k], rtol=1e-10)
    np.testing.assert_allclose(eig.eigenvalues, want[: sc.k], rtol=1e-10)
    assert eig.noise_variance == pytest.approx(np.mean(want[sc.k :]), rel=1e-10)
    proj = top[1] @ top[1].conj().T
    np.testing.assert_allclose(proj, eig.eigenvectors @ eig.eigenvectors.conj().T, atol=1e-8)


def test_stacked_search_rows_equal_each_trial_searched_alone():
    """Each row of a stacked top-k search equals that trial searched alone
    (a stack of 1), bit for bit, in stacks of 2, 3 and 8, and so does each
    row of the stacked eigensystem.  At U = 97 trial 3 holds two sources
    below the separation threshold sigma2 sqrt(c_N) and hands over to eigh,
    while its neighbours, two sources at 10 to 30 dB, converge in Lanczos;
    every search makes one dense(rows) call for the trials that hand over,
    so a stack holding trial 3 twice hands both to one stacked eigh."""
    m, n, l, k = 112, 12, 16, 2
    u, nl = m - l + 1, n * l
    rng = np.random.default_rng(7)
    a = steering_matrix(m, (-0.4, 0.5))
    powers = [
        (10, 30), (1e3, 100), (20, 1e3), (0.3, 0.4), (10, 10), (1e3, 1e3), (50, 12), (100, 1e3)
    ]
    y = np.stack([
        a @ (np.sqrt(p)[:, None] * complex_gaussian(rng, (k, n))) + complex_gaussian(rng, (m, n))
        for p in np.array(powers, dtype=float)
    ])

    def search(rows):
        def dense(handing):
            handed.append([rows[i] for i in handing])
            return SmoothedMatrix(snapshots=y[rows][handing], l=l).gram() / nl

        return subspace._top_eigenpairs(
            lambda ys, x: SmoothedMatrix(snapshots=ys, l=l).gram_matvec(x) / nl,
            y[rows], dense, u, k, nl,
        )

    handed = []  # per dense(rows) call, the trials that read their dense matrix
    alone = [search([i]) for i in range(8)]
    assert handed == [[3]]
    for rows in [list(range(8)), [3, 0, 3]] + [[i, i + 1] for i in range(7)]:
        handed.clear()
        vals, vecs = search(rows)
        assert handed == ([[i for i in rows if i == 3]] if 3 in rows else [])
        for r, i in enumerate(rows):
            np.testing.assert_array_equal(vals[r], alone[i][0][0])
            np.testing.assert_array_equal(vecs[r], alone[i][1][0])
    stacked = sample_covariance_eig(SmoothedMatrix(snapshots=y, l=l), k)
    for i in range(8):
        one = sample_covariance_eig(SmoothedMatrix(snapshots=y[i], l=l), k)
        np.testing.assert_array_equal(stacked.eigenvalues[i], one.eigenvalues)
        np.testing.assert_array_equal(stacked.eigenvectors[i], one.eigenvectors)
        assert stacked.noise_variance[i] == one.noise_variance


def _fallback_stack(m, n, k, rng):
    """Snapshots of four trials: two sources at 20 and 30 dB, at 200 dB
    (past the trace bound, so sigma2 takes the residual), and one source
    without noise (rank 1 < k, so lambda_k is at rounding level)."""
    a = steering_matrix(m, (-0.4, 0.5))
    rows = [
        a @ complex_gaussian(rng, (k, n)) + complex_gaussian(rng, (m, n), 10.0 ** (-snr / 20.0))
        for snr in (20.0, 200.0, 30.0)
    ]
    return np.stack(rows + [a[:, :1] @ complex_gaussian(rng, (1, n))])


@pytest.mark.parametrize("m, n, l", [(112, 12, 16), (40, 4, 3)], ids=["lanczos", "small-side"])
def test_eigensystem_rows_do_not_depend_on_their_neighbours_fallbacks(m, n, l):
    """A trial's eigensystem, sigma2 included, is bit for bit the same alone
    and in any stack, where a neighbour takes the residual for sigma2 or, on
    the W* W side (k < N L < U), a neighbour of rank 1 < k takes the W W*
    side; each fallback runs for exactly the trials that need it."""
    k = 2
    y = _fallback_stack(m, n, k, np.random.default_rng(3))
    smoothed = SmoothedMatrix(snapshots=y, l=l)
    assert (k < smoothed.virtual_snapshots < smoothed.subarray_size) == (l == 3)
    seen = {"residual": [], "gram": []}
    with pytest.MonkeyPatch.context() as patched:
        for name in seen:
            real = getattr(SmoothedMatrix, name)
            patched.setattr(SmoothedMatrix, name, lambda self, *a, real=real, name=name: (
                seen[name].append(self.snapshots.copy()) or real(self, *a)
            ))
        stacked = sample_covariance_eig(smoothed, k)
    (took_residual,) = seen["residual"]
    np.testing.assert_array_equal(took_residual, y[[1, 3]])
    if l == 3:
        (wide,) = seen["gram"]
        np.testing.assert_array_equal(wide, y[[3]])
    assert np.all(np.isfinite(stacked.eigenvectors)) and np.all(stacked.noise_variance > 0)
    for rows in ([0], [1], [2], [3], [0, 1], [1, 2], [3, 0], [2, 3, 0, 1]):
        part = sample_covariance_eig(SmoothedMatrix(snapshots=y[rows], l=l), k)
        for r, i in enumerate(rows):
            np.testing.assert_array_equal(part.eigenvalues[r], stacked.eigenvalues[i])
            np.testing.assert_array_equal(part.eigenvectors[r], stacked.eigenvectors[i])
            assert part.noise_variance[r] == stacked.noise_variance[i]


@pytest.mark.parametrize("m, n, l", [(40, 4, 3), (32, 16, 4), (112, 16, 8)])
def test_noise_variance_sums_squares_only_past_the_trace_bound(m, n, l):
    """sigma2 is read from the trace, ||W||_F^2 - N L sum(lambda), for the
    trials whose ||W||_F^2 is within TRACE_RATIO_MAX of that value, and only
    the others (here at 200 and 250 dB) reach SmoothedMatrix.residual, on
    the W* W side, the dense side and Lanczos alike."""
    k, rng = 2, np.random.default_rng(5)
    a = steering_matrix(m, (-0.4, 0.5))
    snrs = (20.0, 200.0, 30.0, 250.0)
    y = np.stack([
        a @ complex_gaussian(rng, (k, n)) + complex_gaussian(rng, (m, n), 10.0 ** (-snr / 20.0))
        for snr in snrs
    ])
    smoothed = SmoothedMatrix(snapshots=y, l=l)
    u, nl = smoothed.subarray_size, smoothed.virtual_snapshots
    for rows, far in (([0, 2], []), ([0, 1, 2, 3], [1, 3])):
        seen = []
        with pytest.MonkeyPatch.context() as patched:
            real = SmoothedMatrix.residual
            patched.setattr(SmoothedMatrix, "residual", lambda self, v: (
                seen.append(self.snapshots.copy()) or real(self, v)
            ))
            eig = sample_covariance_eig(SmoothedMatrix(snapshots=y[rows], l=l), k)
        assert len(seen) == bool(far)
        if far:
            np.testing.assert_array_equal(seen[0], y[far])
        rest = eig.noise_variance * (nl * (u - k))
        ratio = SmoothedMatrix(snapshots=y[rows], l=l).norm2() / rest
        assert list(np.flatnonzero(ratio > subspace.TRACE_RATIO_MAX)) == [rows.index(i) for i in far]


def test_separation_report_validation():
    """A sourceless scenario or a non-finite signal cannot be analyzed."""
    sc = ArrayScenario(m=12, n=6, l=3, doas=(), snr_db=10.0)
    with pytest.raises(ValueError):
        separation_report(sc, np.zeros((0, 6)))
    one = ArrayScenario(m=12, n=6, l=3, doas=(0.4,), snr_db=10.0)
    with pytest.raises(ValueError, match="non-finite"):
        separation_report(one, np.full((1, 6), np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        separation_report(one, np.stack([np.ones((1, 6)), np.full((1, 6), np.inf)]))
    with pytest.raises(ValueError, match=r"signal has shape \(2, 6\), expected \(1, 6\)"):
        separation_report(one, np.ones((2, 6)))


def test_bias_correction_tightens_closely_spaced_estimates():
    """Corrected-spectrum estimates beat the traditional ones by >= 1.5x rms.

    Two sources a quarter-beamwidth apart at snr 30 dB, smoothed M = 160
    array: over 120 seeded noise realizations the pooled rms angle error of
    the traditional spectrum must exceed 1.5 times that of the corrected
    spectrum (measured headroom: the ratio sits near 1.8 at this seed).
    """
    m, n, l = 160, 20, 16
    doas = (0.0, math.pi / (2 * m))
    sigma = math.sqrt(10.0 ** (-30.0 / 10.0))
    a = steering_matrix(m, doas)
    policy = intervals_around(doas, m)
    s = draw_signal_matrix(
        2, n, "random-gaussian-normalized", np.random.default_rng(np.random.SeedSequence([99, 1]))
    )
    se_trad, se_gm = [], []
    for t in range(120):
        rng = np.random.default_rng(np.random.SeedSequence([99, 2, t]))
        noise = sigma * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / math.sqrt(2)
        sm = SmoothedMatrix(snapshots=a @ s + noise, l=l)
        eig = sample_covariance_eig(sm, 2)
        th_t = find_doas(lambda th: traditional_pseudospectrum(eig, th), 2, policy, m)
        s2 = eig.noise_variance
        th_g = find_doas(lambda th: gmusic_pseudospectrum(eig, s2, eig.c_n, th), 2, policy, m)
        se_trad.extend((th_t - doas) ** 2)
        se_gm.extend((th_g - doas) ** 2)
    rms_trad = math.sqrt(float(np.mean(se_trad)))
    rms_gm = math.sqrt(float(np.mean(se_gm)))
    assert rms_trad >= 1.5 * rms_gm, (
        f"expected >= 1.5x contrast, got {rms_trad / rms_gm:.3f} "
        f"(rms_trad={rms_trad:.3e}, rms_gm={rms_gm:.3e})"
    )
