"""Subspace DoA estimators and separation analysis.

Two pseudo-spectra are provided over the smoothed model: the traditional
projection onto the estimated noise subspace (MUSIC SS) and the
random-matrix-corrected estimator (G-MUSIC SS) that reweights the top sample
eigenvectors by the inverse spike attenuation 1/h(lambda_hat).  DoAs are the
deepest minima of the modulus of the pseudo-spectrum.

Every layer here takes one trial or a stack of T trials, and one trial is
the stack of one.  :func:`sample_covariance_eig` of a stack of snapshots
gives a stack of eigensystems, a :class:`Pseudospectrum` of that stack holds
T x U x k eigenvectors and T x k weights (or several such stacks of
weights, for the MUSIC and G-MUSIC spectra of one eigensystem), and
:func:`find_doas` searches all its spectra at once.  On a whole-circle
search window a spectrum is evaluated by FFT: on the grid
theta_j = lo + 2 pi j / P every projection u_k* a(theta_j) is one
zero-padded length-P DFT of the eigenvector, so a P-point scan costs k
FFTs instead of a U x P steering matrix.  Any other uniform grid (a
sub-window, a per-source interval) is one chirp-z transform per eigenvector.
The transforms of a stack run along one axis.  Refinement is one
golden-section search written over arrays: the dips of every trial of the
stack advance together, one evaluation of all their angles per step, by
baby-step/giant-step exponentials (~2 sqrt(U) per angle, not a U x D
steering matrix).
:func:`separation_report` takes one source matrix or a stack of D draws
the same way: a stack is one K x K eigen pass, with a report per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import numpy.fft  # numpy loads it lazily; import it here, not inside a command

from .array_model import (
    ArrayScenario,
    SmoothedMatrix,
    _check_count,
    complex_gaussian,
    min_spacing,
    steering_matrix,
    wrap_angle,
)
from .rmt import MpParams, h_star

__all__ = [
    "EigenSystem",
    "KnownIntervals",
    "NotSeparatedError",
    "Pseudospectrum",
    "SearchWindow",
    "SeparationReport",
    "UnderResolvedError",
    "find_doas",
    "gmusic_pseudospectrum",
    "gmusic_weights",
    "intervals_around",
    "sample_covariance_eig",
    "separated",
    "separation_report",
    "traditional_pseudospectrum",
]


class UnderResolvedError(RuntimeError):
    """Fewer strict local minima than sources were found."""

    def __init__(self, needed: int, found: int):
        super().__init__(f"needed {needed} pseudo-spectrum minima, found {found}")
        self.needed = needed
        self.found = found


class NotSeparatedError(RuntimeError):
    """A top sample eigenvalue sits at or below the estimated bulk edge.

    Carries the empirical diagnostics available on the estimator path: the
    offending indices, the top eigenvalues and the plug-in bulk edge.
    """

    def __init__(self, indices, lambda_hat, edge_plus):
        super().__init__(
            f"sample eigenvalues {np.asarray(lambda_hat)[list(indices)].tolist()} at indices "
            f"{list(indices)} do not separate from the bulk edge {edge_plus}"
        )
        self.indices = tuple(indices)
        self.lambda_hat = np.asarray(lambda_hat)
        self.edge_plus = edge_plus


@dataclass(frozen=True)
class EigenSystem:
    """The signal part of a smoothed sample covariance's eigensystem.

    eigenvalues are the top k, descending and nonnegative; eigenvectors is
    U x k with column i matching eigenvalues[i]; noise_variance, the plug-in
    sigma2, is the residual of W off those k (:func:`sample_covariance_eig`),
    positive on every side.  A stack of T
    trials' eigensystems holds T x k eigenvalues, T x U x k eigenvectors
    and T noise variances; row(t) is trial t's.  k, the source count, and
    dim, the covariance's size U, follow from the arrays.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    c_n: float
    noise_variance: float

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[-2]

    def row(self, t: int) -> "EigenSystem":
        """Trial t's eigensystem of a stack."""
        return EigenSystem(
            self.eigenvalues[t], self.eigenvectors[t], self.c_n, float(self.noise_variance[t])
        )


@dataclass(frozen=True)
class SeparationReport:
    """Finite-sample separation analysis of one scenario and signal draw, or
    of each draw of a stack of D: then lambda_signal is D x k and
    separated, margin and min_snr_db are length-D arrays."""

    lambda_signal: np.ndarray  # descending, length k per draw
    threshold: float  # sigma2 * sqrt(c_n)
    separated: bool
    margin: float
    min_snr_db: float  # inf where lambda_K is 0
    c_n: float


# search grid points per beamwidth 2 pi / m, and the least per interval
POINTS_PER_BEAMWIDTH = 16
MIN_INTERVAL_POINTS = 33
# intervals_around width over the minimum source spacing; < 1 keeps them disjoint
INTERVAL_FRAC = 0.95


@dataclass(frozen=True)
class SearchWindow:
    """Grid policy: scan [lo, hi) and keep the k deepest strict local minima.

    A window with hi - lo = 2 pi (the default) is the whole circle: its grid
    is periodic, so a dip at the seam counts like any other.  A wider window
    is refused, and so is a bound that is not finite.
    """

    lo: float = -math.pi
    hi: float = math.pi

    def __post_init__(self):
        if self.hi - self.lo > 2.0 * math.pi and not self.circle:
            # past 2 pi a source would be scanned, and found, twice
            raise ValueError(f"search window [{self.lo}, {self.hi}] is wider than the circle")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"search window [{self.lo}, {self.hi}] is not finite")
        if not self.hi > self.lo:
            raise ValueError(f"empty search window [{self.lo}, {self.hi}]")

    @property
    def circle(self) -> bool:
        return math.isclose(self.hi - self.lo, 2.0 * math.pi, rel_tol=1e-12)


@dataclass(frozen=True)
class KnownIntervals:
    """Grid policy: one global minimum per known interval.

    The intervals must be disjoint on the circle, where an angle and the
    same angle 2 pi away are one direction: otherwise one source could be
    the minimum of two intervals.  They may touch, and come in any order.
    """

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"interval [{a}, {b}] is not finite")
            if not b > a:
                raise ValueError(f"empty interval [{a}, {b}]")
            if b - a > 2.0 * math.pi:
                raise ValueError(f"interval [{a}, {b}] is wider than the circle")
        # each interval ends before the next one starts, in the order of the
        # wrapped starts; the last wraps round to the first, a turn later.
        # Compared as b - a' <= 2 pi (turns apart), which is exact when that is 0
        lo, hi = np.array(ivs, dtype=float).reshape(-1, 2).T
        turns = np.floor((lo + math.pi) / (2.0 * math.pi))
        order = np.argsort(lo - 2.0 * math.pi * turns, kind="stable")
        after = np.roll(order, -1)
        apart = turns[order] - turns[after] + (np.arange(order.size) == order.size - 1)
        if np.any(hi[order] - lo[after] > 2.0 * math.pi * apart):
            raise ValueError(f"intervals {ivs} overlap on the circle")


def intervals_around(doas: Sequence[float], m: int) -> KnownIntervals:
    """Disjoint intervals centered on known DoAs.

    Half-width is INTERVAL_FRAC / 2 times the minimum source spacing on the
    circle; a lone source gets half a beamwidth.  Finite DoAs too close for
    the intervals to part in floating point (or one direction written
    twice) are refused by name.
    """
    _check_count("m", m, 1)
    doas = sorted(float(t) for t in doas)
    if not doas:
        raise ValueError("need at least one doa")
    if len(doas) == 1:
        half = math.pi / m
    else:
        half = 0.5 * INTERVAL_FRAC * min_spacing(doas)
    try:
        return KnownIntervals(intervals=tuple((t - half, t + half) for t in doas))
    except ValueError:
        if len(doas) == 1 or not all(map(math.isfinite, doas)):
            raise
    # name the closest pair on the circle; the last gap is the one across the seam
    t = wrap_angle(doas)
    order = np.argsort(t, kind="stable")
    i = int(np.argmin(np.diff(t[order], append=t[order[0]] + 2.0 * math.pi)))
    a, b = doas[order[i]], doas[order[(i + 1) % len(doas)]]
    raise ValueError(f"doas {a!r} and {b!r} are too close to search apart")


# The dense branch against the top-k search for the top k eigenpairs of
# W W*/(N L), N L = 2 U, ms, one BLAS thread, 2-CPU VM.  Each cell is the
# dense branch / the search with k sources at 10 dB each / on noise alone /
# with k planted spikes at 0.5 to 0.9 of the threshold sigma2 sqrt(c_N); *
# marks a search that handed over to the dense branch, which then ran too
# (+ where some trials of a block did).  One trial, W = U x 2U (l = 1), the
# dense branch its eigh alone (BENCH_28.json):
#
#    U  k = 2                        k = 4
#   65  0.60 / 1.62 / 2.54* / 2.50*  0.59 / 2.25 / 2.37* / 2.29*
#   97  1.45 / 1.78 / 4.92* / 4.92*  1.52 / 2.50 / 4.65* / 4.61*
#  145  4.46 / 2.32 / 7.92 / 7.83    3.75 / 2.86 / 9.65* / 9.64*
#  289  23.6 / 5.71 / 31.1 / 30.2    22.5 / 7.49 / 38.8 / 37.5
#
# and per trial of a block of 8 smoothed as the trials are (M = U + 15,
# l = 16, N = 2 U / 16), the dense branch its Gram from Y and its eigh:
#
#    U  k = 2                        k = 4
#   65  0.77 / 0.70 / 1.24* / 1.31*  0.74 / 0.80 / 1.19* / 1.21*
#   97  1.96 / 0.85 / 2.84* / 2.71+  1.68 / 0.91 / 2.53* / 2.52*
#  145  4.46 / 0.96 / 5.49+ / 5.52+  4.18 / 1.15 / 6.29* / 6.05*
#  289  25.0 / 2.17 / 13.8 / 12.1    23.2 / 2.60 / 17.7 / 16.4
#
# Steps grow as the top eigenvalues near the noise bulk or each other: 9 to
# 32 for sources at 10 to 31 dB, 50 to 110 on noise alone or below the
# threshold, where one spike at U = 145 takes 49 to 65.  The budget of
# U / 2 steps is what that one spike needs: a search that will not converge
# in it hands over from U / 4 steps on (_lanczos_top).  A step's product
# W (W* q) costs about 2 M N l, against U^2 for a product with W W* itself,
# so one unsmoothed trial (4 U^2) pays 1.2 to 1.6 eigh at U = 97 even with
# 10 dB sources, and noise alone 1.3 to 3.4 eigh.  In a smoothed block, the
# trials' case, the search with sources takes 0.9 to 1.1 of the dense
# branch at U = 65, 0.4 to 0.55 at U = 97 and 0.1 to 0.3 above; noise alone
# pays 1.2 to 1.6 of it where it hands over, and 0.55 to 0.8 at U = 289.
# Below U ~ 96 Lanczos saves nothing even with 10 dB sources.  With more
# sources, and the search then run on the dense matrix (BENCH_27.json),
# each cell of one trial as above with the size rule lifted:
#
#    U  k = U/12                         k = U/8
#   97  ( 8) 1.39 / 0.90 / 2.11* / 2.11*  (12) 1.40 / 1.30 / 2.11* / 2.10*
#  145  (12) 3.61 / 1.84 / 5.15* / 5.04*  (18) 4.09 / 2.64 / 5.72* / 5.86*
#  289  (24) 22.6 / 4.75 / 30.0* / 29.9*  (36) 32.8 / 13.2 / 41.7* / 41.1*
#
# and from k = U / 6 on every column hands over, at 1.3 to 1.5 eigh.  So up
# to U / 8 sources above the threshold converge at 0.2 to 0.95 eigh, while
# noise alone and sub-threshold spikes pay 1.3 to 1.5 eigh there.  Which of
# the two a search at k > U / 24 meets depends on the SNR mix of its
# workload, which no benchmark workload measures yet; the rule stays at
# U / 24 until one does.
EPS = np.finfo(float).eps
LANCZOS_MIN_DIM = 96
LANCZOS_DIM_PER_PAIR = 24
LANCZOS_DIM_PER_STEP = 2
# the steps a search's basis holds before it first grows: sources above the
# threshold converge in 9 to 32 steps, most of them (10 to 14 at (160, 20, 16))
# within it, so a block does not hold U / 2 steps per trial for 14 it reads
LANCZOS_FIRST_STEPS = 16
# sample_covariance_eig reads r from the trace where ||W||_F^2 <= TRACE_RATIO_MAX r.
# Its relative error was at most 4 eps times that ratio (-20 to 60 dB, both
# sides), so 1e3 keeps it near 1e-12; at (160, 20, 16), 31 to 37 dB read 12 to 90.
TRACE_RATIO_MAX = 1e3


def _lanczos_top(apply, data, u: int, k: int) -> list:
    """Top k eigenpairs of each of T Hermitian U x U operators, searched in
    lockstep: one list entry per trial, (eigenvalues descending, U x k
    eigenvectors), or None when they have not converged within
    U / LANCZOS_DIM_PER_STEP steps.

    data holds the operators along its first axis, and apply(data, x)
    gives their products with the rows of x, a len(data) x U stack; a
    trial whose search ends leaves the stack, and its row of data with it.
    Every step works on each trial's own slices, so a trial's result does
    not depend on the others searched with it.  The basis of the trials
    still searching starts at LANCZOS_FIRST_STEPS steps and doubles when
    they outrun it, so past those it holds at most twice the steps taken;
    growing it copies the q_j and changes no product.

    Lanczos with full reorthogonalization from a fixed start vector, in
    numpy alone: ARPACK (scipy's eigsh) runs on scipy's own BLAS, whose
    thread pool, left unpinned, fights numpy's for the CPUs on every
    step.  A Ritz pair (theta, Q s) of step j has residual norm
    beta_j |s_j|; all k must be within machine precision of the largest
    Ritz value.  Each check is an eigh of the tridiagonal matrix, so it
    runs every 4th step.  From half the budget on, a check also gives up
    when the largest residual, falling at its rate since the last check,
    would still miss machine precision at the last step: a search that
    has stalled in the noise bulk then costs little more than the eigh
    that follows it.
    """
    found = [None] * len(data)
    steps = u // LANCZOS_DIM_PER_STEP
    ids = np.arange(len(data))  # the trials still searching
    # basis[i, j] is trial i's q_j
    basis = np.empty((len(data), min(steps, LANCZOS_FIRST_STEPS), u), dtype=complex)
    alpha = np.empty((len(data), steps))
    beta = np.empty((len(data), steps))
    last = np.full(len(data), math.inf)  # the largest residual at the previous check
    # a generic start vector: all ones is orthogonal to every a(2 pi j / U), j != 0
    q = complex_gaussian(np.random.default_rng(0), u)
    q = np.tile(q / np.linalg.norm(q), (len(data), 1))
    for j in range(steps):
        if j == basis.shape[1]:
            more = np.empty((len(basis), min(j, steps - j), u), dtype=complex)
            basis = np.concatenate((basis, more), axis=1)
        basis[:, j] = q
        span = basis[:, : j + 1].swapaxes(1, 2)  # each trial's U x (j + 1) basis
        z = apply(data, q)
        h = (z.conj()[:, None] @ span).conj()[:, 0]  # span* z, trial by trial
        z -= (span @ h[..., None])[..., 0]
        again = (z.conj()[:, None] @ span).conj()[:, 0]
        z -= (span @ again[..., None])[..., 0]  # twice is enough (Kahan)
        alpha[:, j] = h[:, j].real
        beta[:, j] = np.linalg.norm(z, axis=-1)
        invariant = beta[:, j] <= EPS * np.max(np.abs(alpha[:, : j + 1]), axis=-1)
        done = invariant.copy()
        check = np.flatnonzero((invariant | ((j + 1 - k) % 4 == 0)) & (j + 1 >= k))
        if check.size:
            tri = np.zeros((len(check), j + 1, j + 1))
            d = np.arange(j + 1)
            tri[:, d, d] = alpha[check, : j + 1]
            tri[:, d[1:], d[:-1]] = tri[:, d[:-1], d[1:]] = beta[check, :j]
            theta, s = np.linalg.eigh(tri)
            resid = np.max(beta[check, j, None] * np.abs(s[:, -1, -k:]), axis=-1)
            converged = resid <= EPS * theta[:, -1]
            fall = np.minimum(resid / last[check], 1.0) ** ((steps - j - 1) / 4)
            gives_up = (2 * (j + 1) >= steps) & (resid * fall > EPS * theta[:, -1])
            last[check] = resid
            done[check] |= converged | gives_up
            for c in np.flatnonzero(converged):
                i = check[c]
                found[ids[i]] = theta[c, : -k - 1 : -1], span[i] @ s[c, :, : -k - 1 : -1]
        if done.all():
            break
        if done.any():
            keep = ~done
            ids, data, basis, z, alpha, beta, last = (
                a[keep] for a in (ids, data, basis, z, alpha, beta, last)
            )
        q = z / beta[:, j, None]
    return found


def _top_eigenpairs(apply, data, dense, u: int, k: int, rank: int):
    """The one top-k eigen search, for each of T Hermitian U x U operators,
    PSD of rank at most ``rank``: (T x k eigenvalues descending, T x U x k
    row-major eigenvectors).  Eigenvalues are clipped at 0.

    The operators are apply(data, x) as in :func:`_lanczos_top`, and
    dense(rows) is the stack of those trials' U x U matrices, which only a
    dense eigh reads, of their Hermitian parts.  Lanczos runs when
    0 < k < rank, U >= LANCZOS_MIN_DIM and U >= LANCZOS_DIM_PER_PAIR k; a
    dense eigh runs otherwise, and for the trials whose search hands over
    unconverged: one stacked eigh for all of them.
    """
    found = [None] * len(data)
    if 0 < k < rank and u >= LANCZOS_MIN_DIM and u >= LANCZOS_DIM_PER_PAIR * k:
        found = _lanczos_top(apply, data, u, k)
    rows = [i for i, top in enumerate(found) if top is None]
    if rows:
        cov = dense(rows)
        every, basis = np.linalg.eigh(0.5 * (cov + cov.conj().swapaxes(-1, -2)))
        # eigh is ascending
        for i, top, vecs in zip(rows, every[:, : -k - 1 : -1], basis[..., : -k - 1 : -1]):
            found[i] = top, vecs
    vals, vecs = zip(*found)
    # both can return tiny negative values for a PSD input
    return np.clip(vals, 0.0, None), np.array(vecs, dtype=complex)


def sample_covariance_eig(smoothed: SmoothedMatrix, k: int) -> EigenSystem:
    """Top k eigenpairs U_k of W W* / (N L), and the noise variance.

    The pairs come from the smaller of W W* and W* W, by
    :func:`_top_eigenpairs` (Lanczos on products read from Y, or one
    stacked eigh), the side chosen from U, N L and k alone.  When
    k < N L < U it is W* W / (N L), whose dense matrix is built trial by
    trial, from Y at l = 1 and from W for l > 1 (the one place W is built),
    so one trial's conjugate is held at a time; its top
    pairs (lambda, Z) give U_k = W Z (N L lambda)^{-1/2} after one QR pass,
    and a trial whose lambda_k is at rounding level takes W W* instead.

    The noise variance is r / (N L (U - k)), r = ||W - U_k U_k* W||_F^2:
    the trace ||W||_F^2 - N L sum(lambda) (:meth:`SmoothedMatrix.norm2`)
    where ||W||_F^2 <= TRACE_RATIO_MAX r, and elsewhere (high SNR, r <= 0)
    the sum of squares (:meth:`SmoothedMatrix.residual`), which stays
    positive: above ~300 dB, where Y = A S + V rounds the noise away, it is
    that rounding floor (1e7 to 1e9 sigma2 at 400 dB), never 0.

    A stack of T trials' snapshots gives the stack of their eigensystems
    (:meth:`EigenSystem.row` is one trial's).  Every stacked call and sum
    works on each trial's own slices, so a trial's eigensystem depends
    neither on its stack nor on the fallbacks its neighbours take.
    """
    if not np.all(np.isfinite(smoothed.snapshots)):  # W holds every entry of Y
        raise ValueError("smoothed matrix contains non-finite entries")
    u = smoothed.subarray_size
    if not 0 <= k < u:
        raise ValueError(f"need 0 <= k < subarray size {u}, got k={k}")
    nl, l = smoothed.virtual_snapshots, smoothed.l
    y = smoothed.snapshots.reshape(-1, smoothed.m, smoothed.n)

    def trials(rows) -> SmoothedMatrix:
        # rows ascend, so all of them is y itself: a copy would add to the peak memory
        return SmoothedMatrix(snapshots=y if len(rows) == len(y) else y[rows], l=l)

    vals, vecs = np.zeros((len(y), k)), np.zeros((len(y), u, k), dtype=complex)
    big = np.arange(len(y))  # the trials whose pairs come from W W*
    if k < nl < u:

        def cross(rows):
            # trial by trial, so one trial's W and its conjugate exist at a time, not the stack's
            grams = []
            for i in rows:
                w = y[i] if l == 1 else SmoothedMatrix(snapshots=y[i], l=l).entries
                grams.append(w.conj().T @ w)
            return np.stack(grams) / nl

        lam, z = _top_eigenpairs(
            lambda ys, x: (w := SmoothedMatrix(snapshots=ys, l=l)).rmatvec(w.matvec(x)) / nl,
            y, cross, nl, k, nl,
        )
        # U_k divides by lambda_k: a trial where that is at rounding level takes W W*
        fine = lam[:, -1] > nl * EPS * lam[:, 0]
        small, big = np.flatnonzero(fine), np.flatnonzero(~fine)
        if small.size:
            vals[small] = lam[small]
            tall = trials(small).matvec(z[small]) / np.sqrt(nl * lam[small])[:, None, :]
            vecs[small] = np.linalg.qr(tall)[0]
    if big.size:
        vals[big], vecs[big] = _top_eigenpairs(
            lambda ys, x: SmoothedMatrix(snapshots=ys, l=l).gram_matvec(x) / nl,
            trials(big).snapshots,
            lambda rows: trials(big[rows]).gram() / nl,
            u, k, nl,
        )
    norm2 = SmoothedMatrix(snapshots=y, l=l).norm2()
    rest = norm2 - nl * np.sum(vals, axis=-1)
    far = np.flatnonzero(~((rest > 0) & (norm2 <= TRACE_RATIO_MAX * rest)))
    if far.size:
        rest[far] = trials(far).residual(vecs[far])
    eig = EigenSystem(vals, vecs, smoothed.c_n, rest / (nl * (u - k)))
    return eig if smoothed.snapshots.ndim == 3 else eig.row(0)


def _signal_projections(eig: EigenSystem, theta) -> np.ndarray:
    """|u_i^* a(theta)|^2 for the k signal eigenvectors of one trial, shape (k, ...)."""
    if eig.eigenvectors.ndim != 2:
        raise ValueError(
            "direct evaluation is for one trial's eigensystem and one set of weights, "
            f"got a stack of {len(eig.eigenvectors)} eigensystems"
        )
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    a = steering_matrix(eig.dim, thetas)  # (dim, g)
    proj = eig.eigenvectors.conj().T @ a  # (k, g)
    return np.abs(proj) ** 2


def _circle_projections(eig: EigenSystem, lo: float, p: int) -> np.ndarray:
    """|u_i^* a(lo + 2 pi j / p)|^2 for j = 0..p-1, shape (..., k, p), by FFT.

    u^* a(theta_j) = conj(sum_n u_n e^{-i n lo} e^{-2 pi i n j / p}) / sqrt(U),
    a length-p DFT of u_n e^{-i n lo}.  Terms with n >= p fold onto n mod p,
    so any p is exact, not only p >= U.
    """
    dim, k = eig.dim, eig.k
    x = eig.eigenvectors * np.exp(-1j * lo * np.arange(dim))[:, None]
    if dim > p:
        pad = [(0, 0)] * (x.ndim - 2) + [(0, -dim % p), (0, 0)]
        x = np.pad(x, pad).reshape(*x.shape[:-2], -1, p, k).sum(axis=-3)
    return np.abs(np.swapaxes(np.fft.fft(x, n=p, axis=-2), -1, -2)) ** 2 / dim


def _grid_projections(eig: EigenSystem, lo: float, step: float, p: int) -> np.ndarray:
    """|u_i^* a(lo + j step)|^2 for j = 0..p-1, shape (..., k, p), by chirp-z.

    With n j = (n^2 + j^2 - (j - n)^2) / 2, u^* a(theta_j) is
    e^{i step j^2 / 2} / sqrt(U) times sum_n y_n c_{j-n}, where
    y_n = conj(u_n) e^{i (lo n + step n^2 / 2)} and c_t = e^{-i step t^2 / 2}:
    one linear convolution, by FFT, of length >= U + p - 1 (Bluestein).  The
    leading factor has modulus 1 and drops out of |.|^2.
    """
    dim = eig.dim
    nfft = 1 << (dim + p - 2).bit_length()
    t = np.arange(max(dim, p), dtype=float)
    chirp = np.exp(-0.5j * step * t**2)  # c_t = c_{-t}
    kernel = np.zeros(nfft, dtype=complex)
    kernel[:p] = chirp[:p]
    kernel[nfft - dim + 1 :] = chirp[dim - 1 : 0 : -1]  # t = -(dim - 1) .. -1
    n = t[:dim]
    y = eig.eigenvectors.conj() * (np.exp(1j * lo * n) / chirp[:dim])[:, None]
    conv = np.fft.ifft(np.fft.fft(y, n=nfft, axis=-2) * np.fft.fft(kernel)[:, None], axis=-2)
    return np.abs(np.swapaxes(conv[..., :p, :], -1, -2)) ** 2 / dim


def _spectrum_values(proj2: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """1 - sum_k w_k proj2_k over the k axis of proj2, shape (..., k, g);
    weights None is the traditional form, clipped to [0, 1]."""
    if weights is None:
        return np.clip(1.0 - np.sum(proj2, axis=-2), 0.0, 1.0)
    return 1.0 - np.einsum("...k,...kg->...g", weights, proj2)


def traditional_pseudospectrum(eig: EigenSystem, theta):
    """a(theta)* Pi_noise_hat a(theta) = 1 - sum_k |a* u_k|^2, in [0, 1]."""
    val = _spectrum_values(_signal_projections(eig, theta), None)
    if np.ndim(theta) == 0:
        return float(val[0])
    return val


def separated(eig: EigenSystem, sigma2, c: float) -> np.ndarray:
    """Whether each top eigenvalue lies above the bulk edge; on a stack,
    T x k, with one sigma2 per trial."""
    return eig.eigenvalues > MpParams(np.asarray(sigma2, dtype=float)[..., None], c).edge_plus


def gmusic_weights(eig: EigenSystem, sigma2, c: float, strict: bool = False) -> np.ndarray:
    """Spike weights 1/h(lambda_hat) for the k top eigenvalues; on a stack,
    T x k, with one sigma2 per trial.

    A top eigenvalue that is not :func:`separated` gets the weight exactly
    1, the traditional projection weight, or ``strict`` raises
    :class:`NotSeparatedError` instead.
    """
    above = separated(eig, sigma2, c)
    if strict and not above.all():
        below = np.flatnonzero(~above).tolist()
        raise NotSeparatedError(below, np.ravel(eig.eigenvalues), MpParams(sigma2, c).edge_plus)
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=float)[..., None], above.shape)
    weights = np.ones(above.shape)
    weights[above] = 1.0 / h_star(eig.eigenvalues[above], MpParams(s2[above], c))
    return weights


def gmusic_pseudospectrum(
    eig: EigenSystem, sigma2: float, c: float, theta, weights: Optional[np.ndarray] = None
):
    """G-MUSIC SS estimator a*(I - sum_k (1/h(lam_k)) u_k u_k*) a.

    May be negative at finite sizes.  ``weights`` overrides the spike
    weights of :func:`gmusic_weights` (all ones reproduces the traditional
    estimator before clipping), and sigma2 and c are then unused.
    """
    proj2 = _signal_projections(eig, theta)
    if weights is None:
        weights = gmusic_weights(eig, sigma2, c)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (eig.k,):
            raise ValueError(f"weights has shape {weights.shape}, expected {(eig.k,)}")
    val = _spectrum_values(proj2, weights)
    if np.ndim(theta) == 0:
        return float(val[0])
    return val


@dataclass(frozen=True)
class Pseudospectrum:
    """The pseudo-spectrum of one trial, or of each trial of a stack, fixed
    by its eigensystem and weights.

    weights None is the traditional (MUSIC) spectrum; otherwise the G-MUSIC
    spectrum with those spike weights, computed once, e.g. by
    :func:`gmusic_weights`, and shaped like the eigenvalues: k, or T x k
    for a stack.  A stack's weights may also be a tuple of these, one per
    spectrum of the same eigensystem: the stack then has a row per spectrum
    and trial, spectrum by spectrum (row s T + t is spectrum s of trial t),
    each row computed as its spectrum alone would compute it, so one search
    serves MUSIC and G-MUSIC.  Calling it evaluates one trial's spectrum,
    with one set of weights, at angles directly (a stack or a tuple of
    weights is refused); :meth:`by_row` evaluates one angle per row for
    refinement; :meth:`on_circle` evaluates a uniform grid around the
    whole circle by FFT, and :meth:`on_grid` any other uniform grid by
    chirp-z, one row per row of a stack.
    """

    eig: EigenSystem
    weights: Optional[np.ndarray | tuple] = None

    def __call__(self, theta):
        if isinstance(self.weights, tuple):
            raise ValueError(
                "direct evaluation is for one trial's eigensystem and one set of weights, "
                f"got a tuple of {len(self.weights)} sets of weights"
            )
        if self.weights is None:
            return traditional_pseudospectrum(self.eig, theta)
        return gmusic_pseudospectrum(self.eig, None, None, theta, weights=self.weights)

    def _spectra(self) -> tuple:
        return self.weights if isinstance(self.weights, tuple) else (self.weights,)

    def _rows(self, proj2: np.ndarray) -> np.ndarray:
        """Each spectrum's values from the trials' projections, stacked."""
        vals = [_spectrum_values(proj2, w) for w in self._spectra()]
        return vals[0] if len(vals) == 1 else np.concatenate(vals)

    def on_circle(self, lo: float, p: int) -> np.ndarray:
        """Values at lo + 2 pi j / p, j = 0..p-1."""
        return self._rows(_circle_projections(self.eig, lo, p))

    def on_grid(self, lo: float, step: float, p: int) -> np.ndarray:
        """Values at lo + j step, j = 0..p-1."""
        return self._rows(_grid_projections(self.eig, lo, step, p))

    def by_row(self, rows: np.ndarray):
        """The function that maps D angles to the spectrum of row rows[d]
        at angle d, for refinement: the stack is indexed once, here.

        Each value is one trial's k projections, split baby-step/giant-step
        (Paterson and Stockmeyer): with n = q R + r, R = isqrt(U) and
        Q = ceil(U / R),
        u* a(theta) = U^{-1/2} sum_q e^{i q R theta} sum_r conj(u_{qR+r}) e^{i r theta}.
        Each dip's conjugated eigenvectors are laid out once, here, as a
        zero-padded k x Q x R array, so an evaluation takes R + Q ~ 2 sqrt(U)
        exponentials per angle, not the U of a steering vector, and two
        batched products on each angle's own slices: a row's values do not
        depend on D or on the other rows.  They agree with the direct
        evaluation within rounding, not bit for bit.
        """
        dim, k = self.eig.dim, self.eig.k
        vecs = self.eig.eigenvectors.reshape(-1, dim, k)
        trial = rows % len(vecs)
        baby = math.isqrt(dim)
        giant = -(-dim // baby)
        coef = np.zeros((len(rows), k, giant * baby), dtype=complex)
        coef[..., :dim] = np.swapaxes(vecs[trial].conj(), -1, -2)
        coef = coef.reshape(len(rows), k * giant, baby)  # row j Q + q: conj(u_j[q R:(q + 1) R])
        parts = []  # per spectrum, the angles it evaluates and their rows' weights
        for s, w in enumerate(self._spectra()):
            at = np.flatnonzero(rows // len(vecs) == s)
            parts.append((at, None if w is None else np.reshape(w, (-1, k))[trial[at]]))

        def values(theta):
            inner = coef @ np.exp(1j * np.multiply.outer(theta, np.arange(baby)))[:, :, None]
            outer = np.exp(1j * np.multiply.outer(theta, baby * np.arange(giant))) / math.sqrt(dim)
            proj = inner.reshape(len(rows), k, giant) @ outer[:, :, None]
            proj2 = np.abs(proj) ** 2  # (D, k, 1)
            out = np.empty(len(rows))
            for at, w in parts:
                out[at] = _spectrum_values(proj2[at], w)[:, 0]
            return out

        return values


def _grid(lo: float, hi: float, m: int, floor: int = 0) -> np.ndarray:
    beamwidth = 2.0 * math.pi / m
    npts = int(math.ceil((hi - lo) / beamwidth * POINTS_PER_BEAMWIDTH)) + 1
    return np.linspace(lo, hi, max(npts, floor, 5))


def _scan(spectrum_fn, grid: np.ndarray, circle: bool) -> np.ndarray:
    """spectrum_fn on a _grid, one row per trial; a circle grid's last point
    repeats its first and is left out.  A Pseudospectrum scans by FFT or
    chirp-z; any other callable is one trial."""
    if not isinstance(spectrum_fn, Pseudospectrum):
        vals = spectrum_fn(grid[:-1] if circle else grid)
    elif circle:
        vals = spectrum_fn.on_circle(grid[0], grid.size - 1)
    else:
        vals = spectrum_fn.on_grid(grid[0], (grid[-1] - grid[0]) / (grid.size - 1), grid.size)
    return np.atleast_2d(vals)


def _deepest_minima(vals: np.ndarray, k: int, periodic: bool = False):
    """The (at most) k deepest strict local minima of each row of vals,
    deepest first, as a rows x k index array, and how many each row has.

    periodic treats each row as samples around a circle, so the first and
    the last point are neighbours; otherwise the end points never count.
    Equal depths keep their grid order.
    """
    if periodic:
        is_min = (vals < np.roll(vals, 1, axis=-1)) & (vals < np.roll(vals, -1, axis=-1))
    else:
        is_min = np.zeros(vals.shape, dtype=bool)
        is_min[:, 1:-1] = (vals[:, 1:-1] < vals[:, :-2]) & (vals[:, 1:-1] < vals[:, 2:])
    row, col = np.nonzero(is_min)
    order = np.lexsort((vals[row, col], row))  # by row, then depth; stable
    row, col = row[order], col[order]
    rank = np.arange(row.size) - np.searchsorted(row, row)  # depth order within the row
    keep = rank < k
    picked = np.zeros((vals.shape[0], k), dtype=np.intp)
    picked[row[keep], rank[keep]] = col[keep]
    return picked, np.bincount(row, minlength=vals.shape[0])


def _bracket(grid: np.ndarray, i: np.ndarray, periodic: bool) -> tuple:
    """The grid neighbours of the points i, an index array.  On a periodic
    grid (grid[-1] is grid[0] + 2 pi) the left neighbour of point 0 lies one
    step below it; otherwise the bracket is clamped to the grid ends."""
    if periodic:
        a = np.where(i > 0, grid[i - 1], 2.0 * grid[0] - grid[1])
    else:
        a = grid[np.maximum(i - 1, 0)]
    return a, grid[np.minimum(i + 1, grid.size - 1)]


def _refine(values, lo: np.ndarray, hi: np.ndarray, xtol: float) -> np.ndarray:
    """Golden-section minimum of values in each bracket [lo_d, hi_d] to
    absolute x tolerance, wrapped onto [-pi, pi), as a bracket may reach
    past +-pi.

    One search per bracket, written over arrays: it takes the scalar
    search's float64 steps and f1 < f2 comparisons, element by element, and
    returns the midpoint of each last bracket.  The searches advance
    together: each step is one values call on an array of one angle per
    search.  A search that has finished, or whose bracket is within xtol
    from the start, gets an angle of its bracket too, whose value is not
    read.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = invphi * invphi
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    h = b - a
    if np.any(h > xtol):
        x1 = a + invphi2 * h
        x2 = a + invphi * h
        f1 = values(x1)
        f2 = values(x2)
        while np.any(live := h > xtol):
            h = np.where(live, h * invphi, h)
            lower = f1 < f2
            left, right = live & lower, live & ~lower
            # left: b, x2, f2 = x2, x1, f1 and a new x1; right: a, x1, f1 = x1, x2, f2 and a new x2
            b = np.where(left, x2, b)
            a = np.where(right, x1, a)
            x1, x2 = np.where(right, x2, x1), np.where(left, x1, x2)
            f1, f2 = np.where(right, f2, f1), np.where(left, f1, f2)
            x = np.where(left, a + invphi2 * h, a + invphi * h)
            f = values(x)
            x1, f1 = np.where(left, x, x1), np.where(left, f, f1)
            x2, f2 = np.where(right, x, x2), np.where(right, f, f2)
    return wrap_angle(0.5 * (a + b))


def find_doas(spectrum_fn, k: int, policy, m: int):
    """Locate k DoAs as the deepest dips of a pseudo-spectrum.

    spectrum_fn maps an angle array to real spectrum values (a
    :class:`Pseudospectrum`, or any callable) and is passed unwrapped: the
    bias-corrected estimator may fluctuate below zero at the bottom of a
    dip, and the search minimizes the signed value throughout so that
    refinement tracks the center of the dip.  (Minimizing the modulus
    instead would converge onto one of the two zero crossings that flank a
    negative dip, half a lobe-width off center, inflating the angle error
    once the dip floor sits below zero.)  For the clipped traditional
    spectrum the two conventions coincide.

    Under a :class:`SearchWindow` the k deepest strict local minima on the
    grid are kept; under :class:`KnownIntervals` each interval contributes
    its global minimum.  Each minimum is refined by golden-section search
    between its grid neighbours to an absolute tolerance of 1e-4
    beamwidths; the searches of all minima run in lockstep, so each step is
    one evaluation of up to k angles.  Returns angles wrapped onto
    [-pi, pi), in ascending order.

    A Pseudospectrum of a stack of T trials is searched as one: each grid
    is one scan of the whole stack, and the searches of all its trials' dips
    run in lockstep.  It returns a T x k array, a row per trial (or per
    spectrum and trial, where the stack holds several spectra of each
    trial), whose rows with fewer than k minima on the grid
    (under-resolved) are nan.  One
    trial's Pseudospectrum, and any callable, is the stack of one: it
    returns k angles, and raises :class:`UnderResolvedError` for a row a
    stack would leave nan.

    A whole-circle window treats spectrum_fn as 2 pi-periodic: its grid
    counts the seam point once, minima wrap around it, refinement may step
    across it.  A :class:`Pseudospectrum` scans that grid by FFT, and a
    sub-window's or an interval's grid by chirp-z; refinement evaluates all
    dips by :meth:`Pseudospectrum.by_row`, ~2 sqrt(U) exponentials per dip
    and step, with no U x D steering matrix.
    """
    _check_count("k", k, 1)
    _check_count("m", m, 1)
    xtol = 1e-4 * (2.0 * math.pi / m)

    if isinstance(policy, SearchWindow):
        grid = _grid(policy.lo, policy.hi, m)
        picked, found = _deepest_minima(_scan(spectrum_fn, grid, policy.circle), k, policy.circle)
        lo, hi = _bracket(grid, picked, policy.circle)
    elif isinstance(policy, KnownIntervals):
        if len(policy.intervals) != k:
            raise ValueError(
                f"need one interval per source, got {len(policy.intervals)} for k={k}"
            )
        ends = []
        for a, b in policy.intervals:
            grid = _grid(a, b, m, floor=MIN_INTERVAL_POINTS)
            ends.append(_bracket(grid, np.argmin(_scan(spectrum_fn, grid, False), axis=-1), False))
        lo, hi = (np.stack(side, axis=-1) for side in zip(*ends))
        found = np.full(lo.shape[0], k)
    else:
        raise TypeError(f"unknown grid policy {policy!r}")

    stack = isinstance(spectrum_fn, Pseudospectrum) and spectrum_fn.eig.eigenvalues.ndim == 2
    if not stack and found[0] < k:
        raise UnderResolvedError(needed=k, found=int(found[0]))
    rows = np.flatnonzero(found >= k)
    values = spectrum_fn
    if isinstance(spectrum_fn, Pseudospectrum):
        values = spectrum_fn.by_row(np.repeat(rows, k))
    refined = _refine(values, lo[rows].ravel(), hi[rows].ravel(), xtol).reshape(-1, k)
    doas = np.full((found.size, k), np.nan)
    doas[rows] = np.sort(refined, axis=-1)
    return doas if stack else doas[0]


def separation_report(scenario: ArrayScenario, signal: np.ndarray) -> SeparationReport:
    """Finite-sample separation condition lambda_k > sigma2 sqrt(c_N).

    lambda_k are the k nonzero eigenvalues of the signal covariance
    (1/L) A^(L) (P kron I_L) A^(L)* = (U/M) A_U (P o C) A_U*, with
    P = S S*/N and C = A_L^T conj(A_L).  They are computed at size K x K as
    the eigenvalues of (U/M) R G R, with R the Hermitian square root of
    P o C and G = A_U* A_U.  The minimum separation SNR is
    10 log10(sqrt(c_N) / lambda_K).

    A D x K x N stack of D source matrices gives one report per draw, whose
    fields carry a leading D axis: C and G are built once for the stack,
    and P, the root and both K x K eigh calls run stacked.  One K x N draw
    is the stack of one, reported with scalar fields.
    """
    k, n, m, l = scenario.k, scenario.n, scenario.m, scenario.l
    if k == 0:
        raise ValueError("separation analysis needs at least one source")
    s = scenario.check_signal(signal)
    u = scenario.subarray_size
    p = s @ np.swapaxes(s.conj(), -1, -2) / n
    a_l = steering_matrix(l, scenario.doas)
    a_u = steering_matrix(u, scenario.doas)
    # P o C is singular when l = 1 and k > n, so its root comes from eigh, not Cholesky
    w, v = np.linalg.eigh(p * (a_l.T @ a_l.conj()))
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    h = (u / m) * (root @ (a_u.conj().T @ a_u) @ root)
    vals = np.linalg.eigh(0.5 * (h + np.swapaxes(h.conj(), -1, -2)))[0]

    lam = np.clip(vals[..., ::-1], 0.0, None)
    lam_k = lam[..., -1]
    # math.log10, draw by draw: np.log10 may differ from it in the last bit
    root_c = math.sqrt(scenario.c_n)
    min_snr_db = [
        10.0 * math.log10(root_c / x) if x > 0 else math.inf for x in np.ravel(lam_k).tolist()
    ]
    if s.ndim == 2:
        lam_k, min_snr_db = float(lam_k), min_snr_db[0]
    else:
        min_snr_db = np.reshape(min_snr_db, lam_k.shape)
    threshold = scenario.sigma2 * root_c
    return SeparationReport(
        lambda_signal=lam,
        threshold=threshold,
        separated=lam_k > threshold,
        margin=lam_k - threshold,
        min_snr_db=min_snr_db,
        c_n=scenario.c_n,
    )
