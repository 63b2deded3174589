"""Empirical checks of the random-matrix predictions on smoothed ensembles.

Each experiment generates block-Hankel noise (or planted low-rank plus
noise) matrices, measures eigenvalue / eigenvector statistics, and compares
them against the Marcenko-Pastur and spiked-model predictions from
:mod:`smoothmusic.rmt`.  The asymptotic statements become finite-sample
tolerance checks: every function fixes sizes, trial counts and thresholds
explicitly, and `run_verification_suite` bundles them into pass/fail rows
for the command-line front end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .array_model import Smoothing, block_hankel, complex_gaussian, haar_columns
from .rmt import (
    MpParams,
    h_star,
    mp_cdf,
    mp_stieltjes,
    mp_stieltjes_tilde,
    phi_star,
    spike_forward,
    w_star,
)

__all__ = [
    "EsdReport",
    "QuadraticFormResiduals",
    "SpikeExperiment",
    "VerifyRow",
    "determinant_root_check",
    "esd_vs_mp",
    "quadratic_form_check",
    "run_verification_suite",
    "spike_experiment",
]

# seed-stream tags so the suite's sub-experiments never share a stream
_TAG_ESD = 11
_TAG_SPIKE = 12
_TAG_QUAD = 13

EDGE_TOLERANCE = 0.05  # support confinement margin as a fraction of x+


@dataclass(frozen=True)
class EsdReport:
    """Pooled empirical spectrum of pure-noise smoothed matrices vs MP law."""

    eigenvalues: np.ndarray  # pooled over trials, ascending
    params: MpParams
    ks_distance: float
    exceed_counts: np.ndarray  # per-trial count above (1 + EDGE_TOLERANCE) x+

    def __post_init__(self) -> None:
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError(f"KS distance must lie in [0, 1], got {self.ks_distance}")

    @property
    def confinement_fraction(self) -> float:
        """Fraction of trials with every eigenvalue below the inflated edge."""
        return float(np.mean(self.exceed_counts == 0))


@dataclass(frozen=True)
class SpikeExperiment:
    """Planted-spike recovery statistics against the phi / h predictions.

    lambda_hat[t, k] is the k-th largest sample eigenvalue in trial t;
    projections[t, k] is |u_k^* u_hat_k|^2 for the planted left singular
    vector u_k.  rho and h hold the predicted eigenvalue location and
    squared projection (h is NaN for non-detached spikes).
    """

    planted: np.ndarray  # descending planted population eigenvalues
    params: MpParams
    rho: np.ndarray
    detached: np.ndarray
    h: np.ndarray
    lambda_hat: np.ndarray
    projections: np.ndarray


class QuadraticFormResiduals(NamedTuple):
    resolvent: float
    co_resolvent: float
    mixed: float


class VerifyRow(NamedTuple):
    check: str
    m: int
    n: int
    l: int
    statistic: float
    threshold: float
    passed: bool


def _smoothed_noise(g: Smoothing, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Z = V^(L) / sqrt(N L): normalized block-Hankel of an iid noise block."""
    v = complex_gaussian(rng, (g.m, g.n), math.sqrt(sigma2))
    return block_hankel(v, g.l) / math.sqrt(g.virtual_snapshots)


def _ks_distance(sample: np.ndarray, p: MpParams) -> float:
    """Kolmogorov-Smirnov distance of a sample to the MP distribution."""
    x = np.sort(np.asarray(sample, dtype=float))
    size = x.size
    cdf = np.asarray(mp_cdf(x, p))
    steps = np.arange(size + 1) / size
    d_plus = float(np.max(steps[1:] - cdf))
    d_minus = float(np.max(cdf - steps[:-1]))
    return max(d_plus, d_minus, 0.0)


def esd_vs_mp(m: int, n: int, l: int, sigma2: float, trials: int, seed: int) -> EsdReport:
    """Empirical spectral distribution of smoothed pure noise vs the MP law.

    Pools the eigenvalues of Z Z* over trials, reports the KS distance to
    the MP(sigma2, c_N) distribution (atom at zero included when c_N > 1),
    and counts per-trial eigenvalues beyond (1 + EDGE_TOLERANCE) x+.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    g = Smoothing(m=m, n=n, l=l)
    p = MpParams(sigma2, g.c_n)
    inflated = (1.0 + EDGE_TOLERANCE) * p.edge_plus
    pooled = []
    exceed = np.empty(trials, dtype=int)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_ESD, t]))
        z = _smoothed_noise(g, sigma2, rng)
        cov = z @ z.conj().T
        vals = np.linalg.eigvalsh(0.5 * (cov + cov.conj().T))
        np.clip(vals, 0.0, None, out=vals)
        pooled.append(vals)
        exceed[t] = int(np.sum(vals > inflated))
    eigenvalues = np.sort(np.concatenate(pooled))
    return EsdReport(
        eigenvalues=eigenvalues,
        params=p,
        ks_distance=_ks_distance(eigenvalues, p),
        exceed_counts=exceed,
    )


def quadratic_form_check(
    m: int, n: int, l: int, sigma2: float, z: complex, seed: int
) -> QuadraticFormResiduals:
    """Resolvent quadratic forms against their deterministic equivalents.

    For one smoothed noise draw Z and independent unit vectors a, b this
    returns |a*(Q - m(z) I) b|, |a~*(Q~ - m~(z) I) b~| and |a* Q Z b~|,
    where Q = (Z Z* - z I)^{-1} and Q~ = (Z* Z - z I)^{-1}.  All three
    shrink as the sizes grow at fixed c_N.  Real z inside the support is
    rejected by the Stieltjes-transform domain check.

    Only Z Z* - z I is factored, once for the two right-hand sides b and
    Z b~: the push-through identity Z* Q Z = I + z Q~ gives
    a~* Q~ b~ = ((Z a~)* Q Z b~ - a~* b~) / z, and z != 0 is part of the
    domain check.
    """
    g = Smoothing(m=m, n=n, l=l)
    p = MpParams(sigma2, g.c_n)
    mval = mp_stieltjes(z, p)
    mtval = mp_stieltjes_tilde(z, p)
    u_dim, v_dim = g.subarray_size, g.virtual_snapshots
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_QUAD]))
    zmat = _smoothed_noise(g, sigma2, rng)

    def unit(dim):
        v = complex_gaussian(rng, dim)
        return v / np.linalg.norm(v)

    a, b = unit(u_dim), unit(u_dim)
    at, bt = unit(v_dim), unit(v_dim)
    gram = zmat @ zmat.conj().T - z * np.eye(u_dim)
    q_b, q_zbt = np.linalg.solve(gram, np.column_stack([b, zmat @ bt])).T
    resolvent = abs(a.conj() @ q_b - mval * (a.conj() @ b))
    overlap = at.conj() @ bt
    co_resolvent = abs(((zmat @ at).conj() @ q_zbt - overlap) / z - mtval * overlap)
    mixed = abs(a.conj() @ q_zbt)
    return QuadraticFormResiduals(float(resolvent), float(co_resolvent), float(mixed))


def spike_experiment(
    m: int,
    n: int,
    l: int,
    sigma2: float,
    planted_lambdas: Sequence[float],
    trials: int,
    seed: int,
    noise: str = "hankel",
) -> SpikeExperiment:
    """Plant X = B + Z with B of fixed rank and measure spike statistics.

    B = sum_k sqrt(lambda_k) u_k v_k* with Haar orthonormal factors, so the
    nonzero eigenvalues of B B* are exactly the planted lambdas.  noise =
    "hankel" uses the normalized block-Hankel ensemble; "iid" uses an iid
    complex Gaussian matrix of matching entry variance, which the theory
    predicts to be statistically indistinguishable.
    """
    lams = np.sort(np.asarray(planted_lambdas, dtype=float))[::-1].copy()
    if lams.size == 0:
        raise ValueError("need at least one planted eigenvalue")
    if np.any(lams <= 0):
        raise ValueError("planted eigenvalues must be positive")
    if np.unique(lams).size != lams.size:
        raise ValueError("planted eigenvalues must be distinct (multiplicity-1 assumption)")
    if noise not in ("hankel", "iid"):
        raise ValueError(f"noise must be 'hankel' or 'iid', got {noise!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    g = Smoothing(m=m, n=n, l=l)
    p = MpParams(sigma2, g.c_n)
    u_dim, v_dim = g.subarray_size, g.virtual_snapshots
    k = lams.size
    if k >= u_dim or k > v_dim:
        raise ValueError(f"rank {k} too large for a {u_dim} x {v_dim} model")

    preds = [spike_forward(lam, p) for lam in lams]
    rho = np.array([pr.value for pr in preds])
    detached = np.array([pr.detached for pr in preds], dtype=bool)
    h = np.array([h_star(r, p) if d else math.nan for r, d in zip(rho, detached)])

    lambda_hat = np.empty((trials, k))
    projections = np.empty((trials, k))
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SPIKE, t]))
        u = haar_columns(u_dim, k, rng)
        vt = haar_columns(v_dim, k, rng)
        b = (u * np.sqrt(lams)) @ vt.conj().T
        if noise == "hankel":
            zmat = _smoothed_noise(g, sigma2, rng)
        else:
            zmat = complex_gaussian(rng, (u_dim, v_dim), math.sqrt(sigma2)) / math.sqrt(v_dim)
        x = b + zmat
        cov = x @ x.conj().T
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
        lambda_hat[t] = vals[::-1][:k]
        top = vecs[:, ::-1][:, :k]
        projections[t] = np.abs(np.sum(u.conj() * top, axis=0)) ** 2
    return SpikeExperiment(
        planted=lams,
        params=p,
        rho=rho,
        detached=detached,
        h=h,
        lambda_hat=lambda_hat,
        projections=projections,
    )


def determinant_root_check(p: MpParams, lambdas: Sequence[float]) -> np.ndarray:
    """Roots of the limiting determinant function above the bulk edge.

    s(x) = prod_k (1 - lambda_k / w(x)) vanishes exactly where w(x) equals
    a planted eigenvalue, i.e. at x = phi(lambda_k) for the detached ones.
    Roots are located by a dense sign scan, refined by bisecting every
    bracket at once down to adjacent floats (the end with the smaller |s|
    is kept), and returned in ascending order; eigenvalues at or below the
    detachability threshold contribute none.
    """
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if np.any(lams <= 0):
        raise ValueError("eigenvalues must be positive")
    detached = lams[lams > p.spike_threshold]
    lo = p.edge_plus * (1.0 + 1e-9) + 1e-300
    hi = 4.0 * (float(np.max(lams)) + p.edge_plus + p.sigma2 * (1.0 + p.c) + 1.0)

    def s(x: np.ndarray) -> np.ndarray:
        return np.prod(1.0 - lams / w_star(x, p)[:, None], axis=1)

    grid = np.linspace(lo, hi, 8193)
    vals = s(grid)
    cross = np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))
    a, b = grid[cross], grid[cross + 1]
    a_sign = np.signbit(vals[cross])
    while True:
        mid = 0.5 * (a + b)
        inside = (a < mid) & (mid < b)
        if not inside.any():
            break
        left = np.signbit(s(mid)) == a_sign
        a = np.where(inside & left, mid, a)
        b = np.where(inside & ~left, mid, b)
    ends = np.abs(s(np.concatenate([a, b]))).reshape(2, -1)
    roots = np.sort(np.concatenate([np.where(ends[0] <= ends[1], a, b), grid[vals == 0.0]]))
    if roots.size != detached.size:
        raise RuntimeError(
            f"found {roots.size} determinant roots, expected {detached.size}; "
            "planted eigenvalues may be too close for the scan resolution"
        )
    return roots


def run_verification_suite(
    m: int,
    n: int,
    l: int,
    sigma2: float,
    trials: int = 100,
    seed: int = 0,
) -> list:
    """All verification checks as pass/fail rows for the CLI.

    Thresholds follow the per-check tolerances documented in this module.
    The ESD rows pool ``trials // 2`` noise realizations (the pooled
    eigenvalue count is what drives the KS precision), and the
    quadratic-form decay row compares the configured size against a
    four-times-larger array (same c_N) with a similarly reduced internal
    trial count.
    """
    p = MpParams(sigma2, Smoothing(m=m, n=n, l=l).c_n)
    rows = []

    esd = esd_vs_mp(m, n, l, sigma2, trials=max(trials // 2, 2), seed=seed)
    rows.append(VerifyRow("mp-ks", m, n, l, esd.ks_distance, 0.05, esd.ks_distance < 0.05))
    frac = esd.confinement_fraction
    rows.append(VerifyRow("edge-confinement", m, n, l, frac, 0.95, frac >= 0.95))

    lam_hi = 4.0 * p.spike_threshold
    hi = spike_experiment(m, n, l, sigma2, (lam_hi,), trials=trials, seed=seed)
    rel = np.abs(hi.lambda_hat[:, 0] / hi.rho[0] - 1.0)
    stat = float(np.median(rel))
    rows.append(VerifyRow("spike-eigenvalue", m, n, l, stat, 0.05, stat < 0.05))
    perr = float(np.median(np.abs(hi.projections[:, 0] - hi.h[0])))
    rows.append(VerifyRow("spike-projection", m, n, l, perr, 0.05, perr < 0.05))

    lam_lo = 0.5 * p.spike_threshold
    lo = spike_experiment(m, n, l, sigma2, (lam_lo,), trials=trials, seed=seed)
    stick = float(np.median(np.abs(lo.lambda_hat[:, 0] - p.edge_plus))) / p.edge_plus
    rows.append(VerifyRow("edge-sticking", m, n, l, stick, 0.10, stick < 0.10))

    iid = spike_experiment(m, n, l, sigma2, (lam_hi,), trials=trials, seed=seed, noise="iid")
    rel_iid = np.abs(iid.lambda_hat[:, 0] / iid.rho[0] - 1.0)
    q1h, q3h = np.percentile(rel, [25.0, 75.0])
    q1i, q3i = np.percentile(rel_iid, [25.0, 75.0])
    overlap = float(min(q3h, q3i) - max(q1h, q1i))
    rows.append(VerifyRow("hankel-vs-iid-overlap", m, n, l, overlap, 0.0, overlap >= 0.0))

    lams = (2.0 * p.spike_threshold, 3.0 * p.spike_threshold)
    roots = determinant_root_check(p, lams)
    targets = np.sort([phi_star(lam, p) for lam in lams])
    root_err = float(np.max(np.abs(roots - targets)))
    rows.append(VerifyRow("determinant-roots", m, n, l, root_err, 1e-8, root_err < 1e-8))

    # residual decay against a four-times-larger array at matched c_N
    # (m, l scaled together so (m - l + 1)/(n l) moves by < 1%); the
    # statistic sums the three residual types per trial, which is much
    # less noisy than any single type's median
    z = 1.5 * p.edge_plus
    decay_trials = min(50, max(trials // 2, 2))
    res_lo = np.empty(decay_trials)
    res_hi = np.empty(decay_trials)
    for t in range(decay_trials):
        res_lo[t] = sum(quadratic_form_check(m, n, l, sigma2, z, seed=seed + 1000 + t))
        res_hi[t] = sum(quadratic_form_check(4 * m, n, 4 * l, sigma2, z, seed=seed + 2000 + t))
    ratio = float(np.median(res_hi) / np.median(res_lo))
    rows.append(VerifyRow("quadratic-form-decay", m, n, l, ratio, 0.6, ratio <= 0.6))
    return rows
