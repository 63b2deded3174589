"""Reference constructions of the smoothed signal model, for the tests only.

These build the smoothed steering blocks and the signal covariance through
the Kronecker form the paper writes, (1/L) A^(L) (S S*/N kron I_L) A^(L)*,
one rank-one block a_{M-L+1}(theta) a_L(theta)^T per source.  The package
forms the same matrix as the Gram of the noiseless snapshots' block-Hankel
matrix (``array_model.signal_covariance``) and through the Hadamard
identity (``array_model.signal_covariance_hadamard``); the tests hold both
against this independent construction.

``golden_min`` is the scalar golden-section search that the package's
lockstep refinement (``subspace._refine``) must reproduce bit for bit, one
call of f per angle.

``spike_dense`` is the planted-spike trial built the direct way: the noise
matrix Z as entries, X = B + Z, and a full eigh of X X*.  The package forms
X X* from Z's Gram and products and reads only the top pairs
(``verify.spike_experiment``); the tests hold it against this.
"""

import math
from typing import Callable

import numpy as np

from smoothmusic import verify
from smoothmusic.array_model import (
    ArrayScenario,
    Smoothing,
    _check_count,
    _check_smoothing,
    block_hankel,
    complex_gaussian,
    haar_columns,
)


def steering_vector(m: int, theta: float) -> np.ndarray:
    """Unit-norm steering vector of an m-sensor ULA at electrical angle theta."""
    _check_count("m", m, 1)
    return np.exp(1j * np.arange(m) * theta) / math.sqrt(m)


def smoothed_steering(theta: float, m: int, l: int) -> np.ndarray:
    """Rank-one smoothed steering block.

    Equals sqrt(l (m - l + 1) / m) * outer(a_{m-l+1}(theta), a_l(theta))
    (no conjugation), which is exactly block_hankel(a_m(theta), l).
    """
    _check_smoothing(m, l)
    scale = math.sqrt(l * (m - l + 1) / m)
    return scale * np.outer(steering_vector(m - l + 1, theta), steering_vector(l, theta))


def smoothed_steering_set(doas, m: int, l: int) -> np.ndarray:
    """Concatenated smoothed steering blocks, shape (m - l + 1, K l)."""
    _check_smoothing(m, l)
    doas = tuple(doas)
    if not doas:
        return np.zeros((m - l + 1, 0), dtype=complex)
    return np.hstack([smoothed_steering(t, m, l) for t in doas])


def smoothed_signal_part(scenario: ArrayScenario, signal: np.ndarray) -> np.ndarray:
    """Deterministic part B of the normalized smoothed matrix.

    B = A^(L) (S kron I_L) / sqrt(N L); the entries of
    SmoothedMatrix(snapshots=A_M S, l=L) equal B * sqrt(N L) exactly.
    """
    s = scenario.check_signal(signal)
    a_set = smoothed_steering_set(scenario.doas, scenario.m, scenario.l)
    if scenario.k == 0:
        return np.zeros((scenario.subarray_size, scenario.virtual_snapshots), dtype=complex)
    mixing = np.kron(s, np.eye(scenario.l))
    return a_set @ mixing / math.sqrt(scenario.virtual_snapshots)


def signal_covariance_kronecker(scenario: ArrayScenario, signal: np.ndarray) -> np.ndarray:
    """(1/L) A^(L) (S S*/N kron I_L) A^(L)*, via the Kronecker construction."""
    b = smoothed_signal_part(scenario, signal)
    return b @ b.conj().T


def golden_min(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
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


def spike_dense(
    m: int, n: int, l: int, sigma2: float, planted, trials: int, seed: int, noise: str
):
    """lambda_hat and projections of verify.spike_experiment's trials, from
    its draws (u, v, then the noise block) through X = B + W / sqrt(N L) and
    eigh(X X*), W the block-Hankel matrix of the M x N noise block (noise
    "hankel") or a U x N L iid draw (noise "iid")."""
    g = Smoothing(m=m, n=n, l=l)
    u_dim, v_dim = g.subarray_size, g.virtual_snapshots
    lams = np.sort(np.asarray(planted, dtype=float))[::-1]
    k = lams.size
    lambda_hat = np.empty((trials, k))
    projections = np.empty((trials, k))
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, verify._TAG_SPIKE, t]))
        u = haar_columns(u_dim, k, rng)
        vt = haar_columns(v_dim, k, rng)
        b = (u * np.sqrt(lams)) @ vt.conj().T
        if noise == "hankel":
            w = block_hankel(complex_gaussian(rng, (m, n), math.sqrt(sigma2)), l)
        else:
            w = complex_gaussian(rng, (u_dim, v_dim), math.sqrt(sigma2))
        x = b + w / math.sqrt(v_dim)
        vals, vecs = np.linalg.eigh(x @ x.conj().T)
        lambda_hat[t] = vals[::-1][:k]
        projections[t] = np.abs(np.sum(u.conj() * vecs[:, ::-1][:, :k], axis=0)) ** 2
    return lambda_hat, projections
