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
"""

import math
from typing import Callable

import numpy as np

from smoothmusic.array_model import ArrayScenario, _check_count, _check_smoothing


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
