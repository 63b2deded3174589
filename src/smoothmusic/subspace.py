"""Subspace DoA estimators and separation analysis.

Two pseudo-spectra are provided over the smoothed model: the traditional
projection onto the estimated noise subspace (MUSIC SS) and the
random-matrix-corrected estimator (G-MUSIC SS) that reweights the top sample
eigenvectors by the inverse spike attenuation 1/h(lambda_hat).  DoAs are the
deepest minima of the modulus of the pseudo-spectrum.

A :class:`Pseudospectrum` fixes one spectrum from an eigensystem and its
weights.  On a whole-circle search window it is evaluated by FFT: on the
grid theta_j = lo + 2 pi j / P every projection u_k* a(theta_j) is one
zero-padded length-P DFT of the eigenvector, so a P-point scan costs k FFTs
instead of a U x P steering matrix.  Any other angles are evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.fft  # numpy loads it lazily; import it here, not inside a command

from .array_model import (
    ArrayScenario,
    SmoothedMatrix,
    complex_gaussian,
    min_spacing,
    smoothed_steering_set,
    steering_matrix,
    wrap_angle,
)
from .rmt import BelowEdgeError, MpParams, h_star

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
    U x k with column i matching eigenvalues[i]; noise_variance is the mean
    of the other U - k eigenvalues, the plug-in sigma2.  k, the source
    count, and dim, the covariance's size U, follow from the arrays.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    c_n: float
    noise_variance: float

    @property
    def k(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class SeparationReport:
    """Finite-sample separation analysis of one scenario and signal draw."""

    lambda_signal: np.ndarray  # descending, length k
    threshold: float  # sigma2 * sqrt(c_n)
    separated: bool
    margin: float
    min_snr_db: float
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
    is refused.
    """

    lo: float = -math.pi
    hi: float = math.pi

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty search window [{self.lo}, {self.hi}]")
        if self.hi - self.lo > 2.0 * math.pi and not self.circle:
            # past 2 pi a source would be scanned, and found, twice
            raise ValueError(f"search window [{self.lo}, {self.hi}] is wider than the circle")

    @property
    def circle(self) -> bool:
        return math.isclose(self.hi - self.lo, 2.0 * math.pi, rel_tol=1e-12)


@dataclass(frozen=True)
class KnownIntervals:
    """Grid policy: one global minimum per known disjoint interval."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for a, b in ivs:
            if not b > a:
                raise ValueError(f"empty interval [{a}, {b}]")
        for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals must be disjoint and sorted")


def intervals_around(doas: Sequence[float], m: int) -> KnownIntervals:
    """Disjoint intervals centered on known DoAs.

    Half-width is INTERVAL_FRAC / 2 times the minimum source spacing on the
    circle; a lone source gets half a beamwidth.
    """
    doas = sorted(float(t) for t in doas)
    if not doas:
        raise ValueError("need at least one doa")
    if len(doas) == 1:
        half = math.pi / m
    else:
        half = 0.5 * INTERVAL_FRAC * min_spacing(doas)
    return KnownIntervals(intervals=tuple((t - half, t + half) for t in doas))


# Dense eigh against _lanczos_top for the top k eigenpairs of W W*/(N L),
# N L = 2 U, ms, one BLAS thread, 2-CPU VM.  Each cell is eigh / Lanczos
# with k sources at 10 dB each / Lanczos on noise alone; * marks a search
# that ran out of steps and then ran eigh too:
#
#      U   k = 2               k = 4               k = 8
#     65   1.12 / 0.74 / 2.36*  1.10 / 2.63* / 2.77*  1.28 / 2.49* / 2.76*
#     97   2.18 / 0.97 / 4.68*  2.47 / 1.67 / 5.53*   2.20 / 1.42 / 4.82*
#    145   7.19 / 1.38 / 12.7*  6.95 / 2.20 / 13.0*   5.84 / 10.5* / 10.5*
#    289   29.2 / 1.68 / 15.8   30.4 / 2.01 / 14.9    27.7 / 3.80 / 47.7*
#
# Steps grow as the top eigenvalues near the noise bulk or each other: 10 to
# 26 for two sources at 10 to 30 dB, 50 to 120 for noise alone.  By U / 3
# steps a search has cost about 3/4 of an eigh, so it stops there and eigh
# runs.  Below U ~ 96 Lanczos saves under 0.4 ms even with strong sources;
# past k ~ U / 24 sources it runs out of steps at 10 dB.
EPS = np.finfo(float).eps
LANCZOS_MIN_DIM = 96
LANCZOS_DIM_PER_PAIR = 24
LANCZOS_DIM_PER_STEP = 3


def _lanczos_top(cov: np.ndarray, k: int):
    """Top k eigenpairs of a Hermitian matrix, eigenvalues descending, or
    None when they have not converged within U / LANCZOS_DIM_PER_STEP steps.

    Lanczos with full reorthogonalization from a fixed start vector, in
    numpy alone: ARPACK (scipy's eigsh) runs on scipy's own BLAS, whose
    thread pool, left unpinned, fights numpy's for the CPUs on every
    step.  A Ritz pair (theta, Q s) of step j has residual norm
    beta_j |s_j|; all k must be within machine precision of the largest
    Ritz value.  Each check is an eigh of the tridiagonal matrix, so it
    runs every 4th step.
    """
    u = cov.shape[0]
    steps = u // LANCZOS_DIM_PER_STEP
    basis = np.empty((u, steps), dtype=complex, order="F")
    alpha = np.empty(steps)
    beta = np.empty(steps)
    # a generic start vector: all ones is orthogonal to every a(2 pi j / U), j != 0
    q = complex_gaussian(np.random.default_rng(0), u)
    q /= np.linalg.norm(q)
    for j in range(steps):
        basis[:, j] = q
        span = basis[:, : j + 1]
        z = cov @ q
        h = (z.conj() @ span).conj()
        z -= span @ h
        z -= span @ (z.conj() @ span).conj()  # twice is enough (Kahan)
        alpha[j] = h[j].real
        beta[j] = np.linalg.norm(z)
        invariant = beta[j] <= EPS * np.max(np.abs(alpha[: j + 1]))
        if j + 1 >= k and (invariant or (j + 1 - k) % 4 == 0):
            tri = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            theta, s = np.linalg.eigh(tri)
            if np.all(beta[j] * np.abs(s[-1, -k:]) <= EPS * theta[-1]):
                return theta[: -k - 1 : -1], span @ s[:, : -k - 1 : -1]
        if invariant:
            return None
        q = z / beta[j]
    return None


def sample_covariance_eig(smoothed: SmoothedMatrix, k: int) -> EigenSystem:
    """Top k eigenpairs of W W* / (N L) and the mean of the other U - k
    eigenvalues, by one of three branches chosen from U, N L and k alone:

    * k < N L < U: a thin SVD W = V S Z* gives the N L range eigenpairs
      (s^2 / (N L), V) at a fraction of the cost of a U x U eigensolve; the
      U - N L null eigenvalues are exact zeros.
    * 0 < k < N L, U >= LANCZOS_MIN_DIM and U >= LANCZOS_DIM_PER_PAIR k:
      Lanczos computes only the top k eigenpairs U_k (from a fixed start
      vector, so a result never depends on the process), and the noise
      eigenvalue mean is the residual ||W - U_k U_k* W||_F^2 /
      (N L (U - k)).  That equals (tr R - sum of the top k) / (U - k) but
      is a sum of squares, so it stays positive where the trace difference
      cancels to rounding level.  If Lanczos does not converge within its
      step budget, the dense branch runs instead.
    * otherwise a dense eigh of the whole matrix.  With k >= N L the range
      holds no noise eigenvalue, and its rounding-level null eigenvalues
      are what the noise mean then averages.
    """
    if not np.all(np.isfinite(smoothed.snapshots)):  # W holds every entry of Y
        raise ValueError("smoothed matrix contains non-finite entries")
    w = smoothed.entries
    u = smoothed.subarray_size
    if not 0 <= k < u:
        raise ValueError(f"need 0 <= k < subarray size {u}, got k={k}")
    nl = smoothed.virtual_snapshots

    def top_k(vals, vecs, noise_variance):
        return EigenSystem(vals[:k], vecs[:, :k], smoothed.c_n, float(noise_variance))

    if k < nl < u:
        vecs, sing, _ = np.linalg.svd(w, full_matrices=False)
        vals = np.zeros(u)
        vals[:nl] = sing**2 / nl
        return top_k(vals, vecs, np.mean(vals[k:]))
    cov = w @ w.conj().T / nl
    cov = 0.5 * (cov + cov.conj().T)
    top = None
    if 0 < k < nl and u >= LANCZOS_MIN_DIM and u >= LANCZOS_DIM_PER_PAIR * k:
        top = _lanczos_top(cov, k)
    if top is not None:
        vals, vecs = top
        resid = vecs @ (vecs.conj().T @ w)
        resid -= w
        return top_k(np.clip(vals, 0.0, None), vecs, np.vdot(resid, resid).real / (nl * (u - k)))
    vals, vecs = np.linalg.eigh(cov)
    # eigh is ascending, and can return tiny negative values for a PSD input
    vals = np.clip(vals[::-1], 0.0, None)
    # row-major, like the other branches' eigenvectors, not a reversed view
    return top_k(vals, np.ascontiguousarray(vecs[:, : -k - 1 : -1]), np.mean(vals[k:]))


def _signal_projections(eig: EigenSystem, theta) -> np.ndarray:
    """|u_i^* a(theta)|^2 for the k signal eigenvectors, shape (k, ...)."""
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    a = steering_matrix(eig.dim, thetas)  # (dim, g)
    proj = eig.eigenvectors.conj().T @ a  # (k, g)
    return np.abs(proj) ** 2


def _circle_projections(eig: EigenSystem, lo: float, p: int) -> np.ndarray:
    """|u_i^* a(lo + 2 pi j / p)|^2 for j = 0..p-1, shape (k, p), by FFT.

    u^* a(theta_j) = conj(sum_n u_n e^{-i n lo} e^{-2 pi i n j / p}) / sqrt(U),
    a length-p DFT of u_n e^{-i n lo}.  Terms with n >= p fold onto n mod p,
    so any p is exact, not only p >= U.
    """
    dim = eig.dim
    x = eig.eigenvectors * np.exp(-1j * lo * np.arange(dim))[:, None]
    if dim > p:
        x = np.pad(x, ((0, -dim % p), (0, 0))).reshape(-1, p, eig.k).sum(axis=0)
    return np.abs(np.fft.fft(x, n=p, axis=0).T) ** 2 / dim


def _spectrum_values(proj2: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """1 - sum_k w_k proj2_k; weights None is the traditional form, clipped to [0, 1]."""
    if weights is None:
        return np.clip(1.0 - np.sum(proj2, axis=0), 0.0, 1.0)
    return 1.0 - np.einsum("k,k...->...", weights, proj2)


def traditional_pseudospectrum(eig: EigenSystem, theta):
    """a(theta)* Pi_noise_hat a(theta) = 1 - sum_k |a* u_k|^2, in [0, 1]."""
    val = _spectrum_values(_signal_projections(eig, theta), None)
    if np.ndim(theta) == 0:
        return float(val[0])
    return val


def gmusic_weights(eig: EigenSystem, sigma2: float, c: float, strict: bool = False) -> np.ndarray:
    """Spike weights 1/h(lambda_hat) for the k top eigenvalues.

    A top eigenvalue at or below the bulk edge does not separate: its
    weight is clamped to exactly 1, the traditional projection weight, or
    ``strict`` raises :class:`NotSeparatedError` instead.
    """
    p = MpParams(sigma2, c)
    weights = np.ones(eig.k)
    below = []
    for i, lam in enumerate(eig.eigenvalues):
        try:
            weights[i] = 1.0 / h_star(lam, p)
        except BelowEdgeError:
            below.append(i)
    if strict and below:
        raise NotSeparatedError(below, eig.eigenvalues, p.edge_plus)
    return weights


def gmusic_pseudospectrum(
    eig: EigenSystem, sigma2: float, c: float, theta, weights: Optional[np.ndarray] = None
):
    """G-MUSIC SS estimator a*(I - sum_k (1/h(lam_k)) u_k u_k*) a.

    May be negative at finite sizes.  ``weights`` overrides the spike
    weights of :func:`gmusic_weights` (all ones reproduces the traditional
    estimator before clipping), and sigma2 and c are then unused.
    """
    if weights is None:
        weights = gmusic_weights(eig, sigma2, c)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (eig.k,):
            raise ValueError(f"weights has shape {weights.shape}, expected {(eig.k,)}")
    val = _spectrum_values(_signal_projections(eig, theta), weights)
    if np.ndim(theta) == 0:
        return float(val[0])
    return val


@dataclass(frozen=True)
class Pseudospectrum:
    """One pseudo-spectrum of a trial, fixed by its eigensystem and weights.

    weights None is the traditional (MUSIC) spectrum; otherwise the G-MUSIC
    spectrum with those spike weights, computed once, e.g. by
    :func:`gmusic_weights`.  Calling it evaluates angles directly;
    :meth:`on_circle` evaluates a uniform grid around the whole circle by FFT.
    """

    eig: EigenSystem
    weights: Optional[np.ndarray] = None

    def __call__(self, theta):
        if self.weights is None:
            return traditional_pseudospectrum(self.eig, theta)
        return gmusic_pseudospectrum(self.eig, None, None, theta, weights=self.weights)

    def on_circle(self, lo: float, p: int) -> np.ndarray:
        """Values at lo + 2 pi j / p, j = 0..p-1."""
        return _spectrum_values(_circle_projections(self.eig, lo, p), self.weights)


def _golden_min(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Golden-section minimum of f on [a, b] to absolute x tolerance."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    invphi2 = invphi * invphi
    h = b - a
    if h <= xtol:
        return 0.5 * (a + b)
    x1 = a + invphi2 * h
    x2 = a + invphi * h
    f1, f2 = f(x1), f(x2)
    while h > xtol:
        h *= invphi
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = a + invphi2 * h
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * h
            f2 = f(x2)
    return 0.5 * (a + b)


def _grid(lo: float, hi: float, m: int, floor: int = 0) -> np.ndarray:
    beamwidth = 2.0 * math.pi / m
    npts = int(math.ceil((hi - lo) / beamwidth * POINTS_PER_BEAMWIDTH)) + 1
    return np.linspace(lo, hi, max(npts, floor, 5))


def _deepest_minima(vals: np.ndarray, k: int, periodic: bool = False) -> np.ndarray:
    """Indices of the (at most) k deepest strict local minima, deepest first.

    periodic treats vals as samples around a circle, so the first and the
    last point are neighbours; otherwise the end points never count.
    """
    if periodic:
        idx = np.flatnonzero((vals < np.roll(vals, 1)) & (vals < np.roll(vals, -1)))
    else:
        idx = np.flatnonzero((vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
    return idx[np.argsort(vals[idx], kind="stable")][:k]


def _refine(spectrum_fn, grid: np.ndarray, indices, xtol: float, periodic: bool) -> np.ndarray:
    """Golden-section minimum of spectrum_fn between the grid neighbours of
    each index, wrapped onto [-pi, pi), as a grid may reach past +-pi.

    On a periodic grid (grid[-1] is grid[0] + 2 pi) the left neighbour of
    point 0 lies one step below it; otherwise the brackets are clamped to
    the grid ends.
    """
    scalar_fn = lambda t: float(spectrum_fn(np.array([t]))[0])
    out = []
    for i in indices:
        if periodic:
            a = grid[i - 1] if i else 2.0 * grid[0] - grid[1]
        else:
            a = grid[max(i - 1, 0)]
        out.append(_golden_min(scalar_fn, a, grid[min(i + 1, grid.size - 1)], xtol))
    return wrap_angle(out)


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
    grid are kept and an :class:`UnderResolvedError` is raised when fewer
    exist; under :class:`KnownIntervals` each interval contributes its
    global minimum.  Each minimum is refined by golden-section search to an
    absolute tolerance of 1e-4 beamwidths.  Returns angles wrapped onto
    [-pi, pi), in ascending order.

    A whole-circle window treats spectrum_fn as 2 pi-periodic: its grid
    counts the seam point once, minima wrap around it, refinement may step
    across it.  A :class:`Pseudospectrum` is then scanned by FFT.
    """
    if k < 1:
        raise ValueError(f"need at least one source, got k={k}")
    xtol = 1e-4 * (2.0 * math.pi / m)

    if isinstance(policy, SearchWindow):
        grid = _grid(policy.lo, policy.hi, m)
        if not policy.circle:
            vals = np.asarray(spectrum_fn(grid))
        elif isinstance(spectrum_fn, Pseudospectrum):
            vals = spectrum_fn.on_circle(policy.lo, grid.size - 1)
        else:
            vals = np.asarray(spectrum_fn(grid[:-1]))  # grid[-1] repeats grid[0]
        deepest = _deepest_minima(vals, k, periodic=policy.circle)
        if deepest.size < k:
            raise UnderResolvedError(needed=k, found=int(deepest.size))
        return np.sort(_refine(spectrum_fn, grid, deepest, xtol, policy.circle))

    if isinstance(policy, KnownIntervals):
        if len(policy.intervals) != k:
            raise ValueError(
                f"need one interval per source, got {len(policy.intervals)} for k={k}"
            )
        out = []
        for lo, hi in policy.intervals:
            grid = _grid(lo, hi, m, floor=MIN_INTERVAL_POINTS)
            i = int(np.argmin(np.asarray(spectrum_fn(grid))))
            out.extend(_refine(spectrum_fn, grid, [i], xtol, periodic=False))
        return np.sort(out)

    raise TypeError(f"unknown grid policy {policy!r}")


def separation_report(scenario: ArrayScenario, signal: np.ndarray) -> SeparationReport:
    """Finite-sample separation condition lambda_k > sigma2 sqrt(c_N).

    lambda_k are the k nonzero eigenvalues of the signal covariance
    (1/L) A^(L) (P kron I_L) A^(L)* = (U/M) A_U (P o C) A_U*, with
    P = S S*/N and C = A_L^T conj(A_L).  They are computed at size K x K as
    the eigenvalues of (U/M) R G R, with R the Hermitian square root of
    P o C and G = A_U* A_U, and cross-checked against the Kronecker form:
    each eigenvector y maps to x = A_U R y, to which the Kronecker
    covariance is applied as an operator.  The minimum separation SNR is
    10 log10(sqrt(c_N) / lambda_K).
    """
    k, n, m, l = scenario.k, scenario.n, scenario.m, scenario.l
    if k == 0:
        raise ValueError("separation analysis needs at least one source")
    s = scenario.check_signal(signal)
    u = scenario.subarray_size
    p = s @ s.conj().T / n
    a_l = steering_matrix(l, scenario.doas)
    a_u = steering_matrix(u, scenario.doas)
    # P o C is singular when l = 1 and k > n, so its root comes from eigh, not Cholesky
    w, v = np.linalg.eigh(p * (a_l.T @ a_l.conj()))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    h = (u / m) * (root @ (a_u.conj().T @ a_u) @ root)
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))

    # (1/L) A^(L) (P kron I_L) A^(L)* x for the K vectors x = A_U R y at once;
    # A^(L) has K blocks of L columns, so P kron I_L acts on a (K, L) reshape
    x = a_u @ (root @ vecs)
    a_set = smoothed_steering_set(scenario.doas, m, l)
    mixed = np.einsum("ij,jtc->itc", p, (a_set.conj().T @ x).reshape(k, l, k))
    residual = np.linalg.norm(a_set @ mixed.reshape(k * l, k) / l - x * vals, axis=0)
    # against the top column: x is at rounding level for a null eigenvalue
    if float(np.max(residual)) > 1e-8 * float(vals[-1] * np.linalg.norm(x[:, -1])):
        raise RuntimeError("K x K and Kronecker signal covariances disagree")

    lam = np.clip(vals[::-1], 0.0, None)
    lam_k = float(lam[-1])
    threshold = scenario.sigma2 * math.sqrt(scenario.c_n)
    if lam_k > 0:
        min_snr_db = 10.0 * math.log10(math.sqrt(scenario.c_n) / lam_k)
    else:
        min_snr_db = math.inf
    return SeparationReport(
        lambda_signal=lam,
        threshold=threshold,
        separated=lam_k > threshold,
        margin=lam_k - threshold,
        min_snr_db=min_snr_db,
        c_n=scenario.c_n,
    )
