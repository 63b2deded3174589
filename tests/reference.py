"""Reference constructions of the smoothed signal model, for the tests only.

These build the smoothed steering blocks and the signal covariance through
the Kronecker form the paper writes, (1/L) A^(L) (S S*/N kron I_L) A^(L)*,
one rank-one block a_{M-L+1}(theta) a_L(theta)^T per source.  The package
forms the same matrix as the Gram of the noiseless snapshots' block-Hankel
matrix (``array_model.signal_covariance``) and through the Hadamard
identity (``array_model.signal_covariance_hadamard``); the tests hold both
against this independent construction.
"""

import math

import numpy as np

from smoothmusic.array_model import ArrayScenario, _check_smoothing, _check_steering_dimension


def steering_vector(m: int, theta: float) -> np.ndarray:
    """Unit-norm steering vector of an m-sensor ULA at electrical angle theta."""
    _check_steering_dimension(m)
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
