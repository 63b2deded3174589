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
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .array_model import (
    ArrayScenario,
    SmoothedMatrix,
    signal_covariance,
    signal_covariance_hadamard,
    steering_matrix,
    wrap_angle,
)
from .rmt import BelowEdgeError, MpParams, h_star

__all__ = [
    "EigenSystem",
    "GMusicWeight",
    "KnownIntervals",
    "NotSeparatedError",
    "Pseudospectrum",
    "SearchWindow",
    "SeparationCheck",
    "SeparationReport",
    "SpectrumTrace",
    "UnderResolvedError",
    "find_doas",
    "gmusic_pseudospectrum",
    "gmusic_weight",
    "gmusic_weights",
    "intervals_around",
    "noise_variance_estimate",
    "sample_covariance_eig",
    "separation_closely_spaced",
    "separation_report",
    "separation_widely_spaced",
    "spectrum_trace",
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
            f"sample eigenvalues {list(np.asarray(lambda_hat)[list(indices)])} at indices "
            f"{list(indices)} do not separate from the bulk edge {edge_plus}"
        )
        self.indices = tuple(indices)
        self.lambda_hat = np.asarray(lambda_hat)
        self.edge_plus = edge_plus


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a smoothed sample covariance.

    eigenvalues are descending and nonnegative, one per dimension;
    eigenvectors[:, i] matches eigenvalues[i]; k is the source count used to
    split signal and noise.  eigenvectors may hold fewer columns than there
    are eigenvalues, but always at least k: when the covariance has rank
    N L < U, :func:`sample_covariance_eig` keeps only the N L vectors of its
    range and the remaining U - N L eigenvalues are exact zeros.  Readers use
    the first k columns and the eigenvalues only, never the null space.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    k: int
    c_n: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


class GMusicWeight(NamedTuple):
    """Spike weight 1/h(lambda_hat); separated is False at or below the edge."""

    value: float
    separated: bool


class SeparationCheck(NamedTuple):
    separated: bool
    margin: float
    statistic: float
    threshold: float


@dataclass(frozen=True)
class SeparationReport:
    """Finite-sample separation analysis of one scenario and signal draw."""

    lambda_signal: np.ndarray  # descending, length k
    threshold: float  # sigma2 * sqrt(c_n)
    separated: bool
    margin: float
    min_snr_db: float
    c_n: float


@dataclass(frozen=True)
class SpectrumTrace:
    grid: np.ndarray
    values: np.ndarray
    minima: tuple  # (theta, depth) pairs, refined
    method: str


@dataclass(frozen=True)
class SearchWindow:
    """Grid policy: scan [lo, hi) and keep the k deepest strict local minima.

    A window with hi - lo = 2 pi (the default) is the whole circle: its grid
    is periodic, so a dip at the seam counts like any other.
    """

    lo: float = -math.pi
    hi: float = math.pi
    points_per_beamwidth: int = 16

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty search window [{self.lo}, {self.hi}]")
        if self.points_per_beamwidth < 2:
            raise ValueError("need at least 2 grid points per beamwidth")

    @property
    def circle(self) -> bool:
        return math.isclose(self.hi - self.lo, 2.0 * math.pi, rel_tol=1e-12)


@dataclass(frozen=True)
class KnownIntervals:
    """Grid policy: one global minimum per known disjoint interval."""

    intervals: tuple
    points_per_beamwidth: int = 16
    min_points: int = 33

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for a, b in ivs:
            if not b > a:
                raise ValueError(f"empty interval [{a}, {b}]")
        for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals must be disjoint and sorted")


def intervals_around(doas: Sequence[float], m: int, frac: float = 0.95) -> KnownIntervals:
    """Disjoint intervals centered on known DoAs.

    Half-width is frac/2 times the minimum source spacing (frac < 1 keeps
    the intervals disjoint); a lone source gets half a beamwidth.
    """
    doas = sorted(float(t) for t in doas)
    if not doas:
        raise ValueError("need at least one doa")
    if len(doas) == 1:
        half = math.pi / m
    else:
        spacing = min(b - a for a, b in zip(doas, doas[1:]))
        half = 0.5 * frac * spacing
    return KnownIntervals(intervals=tuple((t - half, t + half) for t in doas))


def sample_covariance_eig(smoothed: SmoothedMatrix, k: int) -> EigenSystem:
    """Eigendecomposition of W W* / (N L), eigenvalues descending.

    When k < N L < U, a thin SVD W = V S Z* gives the N L range eigenpairs
    (s^2 / (N L), V) at a fraction of the cost of a U x U eigensolve; the
    U - N L null eigenvalues are returned as exact zeros and their
    eigenvectors are not computed (see :class:`EigenSystem`).  With
    k >= N L the range holds no noise eigenvalue, so the full eigensolve is
    kept: its rounding-level null eigenvalues are what the noise estimate
    then averages.
    """
    w = smoothed.entries
    if not np.all(np.isfinite(w.view(float))):
        raise ValueError("smoothed matrix contains non-finite entries")
    u = smoothed.subarray_size
    if not 0 <= k < u:
        raise ValueError(f"need 0 <= k < subarray size {u}, got k={k}")
    nl = smoothed.virtual_snapshots
    if k < nl < u:
        vecs, sing, _ = np.linalg.svd(w, full_matrices=False)
        vals = np.zeros(u)
        vals[:nl] = sing**2 / nl
        return EigenSystem(eigenvalues=vals, eigenvectors=vecs, k=k, c_n=smoothed.c_n)
    cov = w @ w.conj().T / nl
    cov = 0.5 * (cov + cov.conj().T)
    vals, vecs = np.linalg.eigh(cov)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    # eigh can return tiny negative values for a PSD input
    np.clip(vals, 0.0, None, out=vals)
    return EigenSystem(eigenvalues=vals, eigenvectors=vecs, k=k, c_n=smoothed.c_n)


def noise_variance_estimate(eig: EigenSystem) -> float:
    """Mean of the noise eigenvalues (all but the top k)."""
    if eig.k >= eig.dim:
        raise ValueError("no noise subspace: k equals the dimension")
    return float(np.mean(eig.eigenvalues[eig.k :]))


def _signal_projections(eig: EigenSystem, theta) -> np.ndarray:
    """|u_i^* a(theta)|^2 for the k signal eigenvectors, shape (k, ...)."""
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    a = steering_matrix(eig.dim, thetas)  # (dim, g)
    proj = eig.eigenvectors[:, : eig.k].conj().T @ a  # (k, g)
    return np.abs(proj) ** 2


def _circle_projections(eig: EigenSystem, lo: float, p: int) -> np.ndarray:
    """|u_i^* a(lo + 2 pi j / p)|^2 for j = 0..p-1, shape (k, p), by FFT.

    u^* a(theta_j) = conj(sum_n u_n e^{-i n lo} e^{-2 pi i n j / p}) / sqrt(U),
    a length-p DFT of u_n e^{-i n lo}.  Terms with n >= p fold onto n mod p,
    so any p is exact, not only p >= U.
    """
    dim = eig.dim
    x = eig.eigenvectors[:, : eig.k] * np.exp(-1j * lo * np.arange(dim))[:, None]
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


def gmusic_weight(lambda_hat: float, sigma2: float, c: float) -> GMusicWeight:
    """Weight 1/h(lambda_hat) for one top eigenvalue, or a non-separated tag.

    At or below the bulk edge the weight is clamped to 1 (the traditional
    projection weight) and tagged separated=False; caller policy decides
    whether that is an error.
    """
    p = MpParams(sigma2, c)
    try:
        return GMusicWeight(1.0 / h_star(lambda_hat, p), True)
    except BelowEdgeError:
        return GMusicWeight(1.0, False)


def gmusic_weights(eig: EigenSystem, sigma2: float, c: float, strict: bool = False):
    """Vector of spike weights for the k top eigenvalues, plus separation mask.

    ``strict`` turns a top eigenvalue at or below the bulk edge into
    :class:`NotSeparatedError` instead of a clamped weight.
    """
    pairs = [gmusic_weight(lv, sigma2, c) for lv in eig.eigenvalues[: eig.k]]
    values = np.array([p.value for p in pairs])
    separated = np.array([p.separated for p in pairs], dtype=bool)
    if strict and not np.all(separated):
        bad = np.flatnonzero(~separated)
        raise NotSeparatedError(bad, eig.eigenvalues[: eig.k], MpParams(sigma2, c).edge_plus)
    return values, separated


def gmusic_pseudospectrum(
    eig: EigenSystem,
    sigma2: float,
    c: float,
    theta,
    weights: Optional[np.ndarray] = None,
    strict: bool = False,
):
    """G-MUSIC SS estimator a*(I - sum_k (1/h(lam_k)) u_k u_k*) a.

    May be negative at finite sizes.  ``weights`` overrides the spike
    weights (all ones reproduces the traditional estimator before
    clipping), and sigma2, c and strict are then unused; ``strict`` is
    passed to :func:`gmusic_weights`.
    """
    if weights is None:
        weights, _ = gmusic_weights(eig, sigma2, c, strict=strict)
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


def _grid(lo: float, hi: float, m: int, points_per_beamwidth: int, floor: int = 0) -> np.ndarray:
    beamwidth = 2.0 * math.pi / m
    npts = int(math.ceil((hi - lo) / beamwidth * points_per_beamwidth)) + 1
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
    absolute tolerance of 1e-4 beamwidths.  Returns angles in ascending
    order.

    A whole-circle window treats spectrum_fn as 2 pi-periodic: its grid
    counts the seam point once, minima wrap around it, refinement may step
    across it, and the angles returned are wrapped onto [-pi, pi).  A
    :class:`Pseudospectrum` is then scanned by FFT.
    """
    if k < 1:
        raise ValueError(f"need at least one source, got k={k}")
    xtol = 1e-4 * (2.0 * math.pi / m)
    scalar_fn = lambda t: float(spectrum_fn(np.array([t]))[0])

    if isinstance(policy, SearchWindow):
        grid = _grid(policy.lo, policy.hi, m, policy.points_per_beamwidth)
        if not policy.circle:
            vals = np.asarray(spectrum_fn(grid))
        elif isinstance(spectrum_fn, Pseudospectrum):
            vals = spectrum_fn.on_circle(policy.lo, grid.size - 1)
        else:
            vals = np.asarray(spectrum_fn(grid[:-1]))  # grid[-1] repeats grid[0]
        deepest = _deepest_minima(vals, k, periodic=policy.circle)
        if deepest.size < k:
            raise UnderResolvedError(needed=k, found=int(deepest.size))
        # grid[-1] is the right neighbour of the last circle point; the left
        # neighbour of the first lies one step before lo
        below = lambda i: grid[i - 1] if i else 2.0 * grid[0] - grid[1]
        refined = [_golden_min(scalar_fn, below(i), grid[i + 1], xtol) for i in deepest]
        if policy.circle:
            refined = wrap_angle(refined)
        return np.sort(np.asarray(refined))

    if isinstance(policy, KnownIntervals):
        if len(policy.intervals) != k:
            raise ValueError(
                f"need one interval per source, got {len(policy.intervals)} for k={k}"
            )
        out = []
        for lo, hi in policy.intervals:
            grid = _grid(lo, hi, m, policy.points_per_beamwidth, floor=policy.min_points)
            vals = np.asarray(spectrum_fn(grid))
            i = int(np.argmin(vals))
            a = grid[max(i - 1, 0)]
            b = grid[min(i + 1, grid.size - 1)]
            out.append(_golden_min(scalar_fn, a, b, xtol))
        return np.sort(np.asarray(out))

    raise TypeError(f"unknown grid policy {policy!r}")


def spectrum_trace(
    eig: EigenSystem, grid: np.ndarray, method: str, sigma2=None, c=None, strict: bool = False
) -> SpectrumTrace:
    """Evaluate one pseudo-spectrum on a grid and locate its k deepest minima.

    Values are reported signed; the bias-corrected spectrum may dip below
    zero at a source.  Minima are selected and refined on the signed values
    (see :func:`find_doas` for why refinement must not fold the sign).
    ``strict`` is passed to :func:`gmusic_weights` for the g-music method.
    """
    grid = np.asarray(grid, dtype=float)
    if method == "traditional":
        fn = Pseudospectrum(eig)
    elif method == "g-music":
        if sigma2 is None or c is None:
            raise ValueError("g-music trace needs sigma2 and c")
        fn = Pseudospectrum(eig, gmusic_weights(eig, sigma2, c, strict=strict)[0])
    else:
        raise ValueError(f"unknown method {method!r}")
    values = fn(grid)
    minima = ()
    if eig.k >= 1:
        take = _deepest_minima(values, eig.k)
        xtol = 1e-4 * (grid[1] - grid[0]) if grid.size > 1 else 1e-8
        scalar_fn = lambda t: float(fn(np.array([t]))[0])
        refined = []
        for i in sorted(take):
            t = _golden_min(scalar_fn, grid[i - 1], grid[i + 1], xtol)
            refined.append((t, scalar_fn(t)))
        minima = tuple(refined)
    return SpectrumTrace(grid=grid, values=values, minima=minima, method=method)


def separation_report(scenario: ArrayScenario, signal: np.ndarray) -> SeparationReport:
    """Finite-sample separation condition lambda_k > sigma2 sqrt(c_N).

    lambda_k are the k nonzero eigenvalues of
    (1/L) A^(L) (S S*/N kron I_L) A^(L)*, computed from the Kronecker
    construction and cross-checked against the Hadamard identity.  The
    minimum separation SNR is 10 log10(sqrt(c_N) / lambda_K).
    """
    if scenario.k == 0:
        raise ValueError("separation analysis needs at least one source")
    cov = signal_covariance(scenario, signal)
    cov_h = signal_covariance_hadamard(scenario, signal)
    scale = max(float(np.linalg.norm(cov)), 1e-300)
    if float(np.linalg.norm(cov - cov_h)) / scale > 1e-8:
        raise RuntimeError("Kronecker and Hadamard signal covariances disagree")
    vals = np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))[::-1]
    lam = np.clip(vals[: scenario.k], 0.0, None)
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


def separation_widely_spaced(a_set: np.ndarray, d: np.ndarray, sigma2: float, d_star: float, l: int) -> SeparationCheck:
    """Asymptotic condition for widely spaced sources.

    Checks lambda_K(A* A D) > sigma2 sqrt(d_star) / sqrt(l) with A the
    subarray steering set and D the diagonal source-power matrix (given as
    a vector).  The eigenvalues of A*A D are those of the Hermitian
    D^(1/2) A*A D^(1/2).
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("source powers must be positive")
    g = a_set.conj().T @ a_set
    ds = np.sqrt(d)
    h = ds[:, None] * g * ds[None, :]
    lam_k = float(np.linalg.eigvalsh(h)[0])
    threshold = sigma2 * math.sqrt(d_star) / math.sqrt(l)
    return SeparationCheck(lam_k > threshold, lam_k - threshold, lam_k, threshold)


def separation_closely_spaced(kappa: float, sigma2: float, c_star: float) -> SeparationCheck:
    """Asymptotic condition 1 - |sinc(kappa/2)| > sigma2 c_star.

    kappa is the scaled spacing M (theta_2 - theta_1); sinc x = sin(x)/x.
    """
    x = kappa / 2.0
    sinc = 1.0 if x == 0 else math.sin(x) / x
    statistic = 1.0 - abs(sinc)
    threshold = sigma2 * c_star
    return SeparationCheck(statistic > threshold, statistic - threshold, statistic, threshold)
