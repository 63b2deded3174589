"""Uniform linear array signal model and spatial smoothing.

Angles are electrical phase increments in radians: the steering vector of an
m-sensor array is a_m(theta) = (1/sqrt(m)) [1, e^{i theta}, ...,
e^{i (m-1) theta}]^T, so a full beamwidth is 2 pi / m.  No wavelength or
element-spacing layer exists here.

Spatial smoothing turns the M x N snapshot matrix into the block-Hankel
matrix of size (M - L + 1) x (N L) whose column block n stacks the L
length-(M - L + 1) sliding subarray views of snapshot n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it lazily; import it here, not inside a command
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SIGNAL_POLICIES",
    "ArrayScenario",
    "SmoothedMatrix",
    "Smoothing",
    "block_hankel",
    "complex_gaussian",
    "draw_signal_matrix",
    "haar_columns",
    "min_spacing",
    "observe",
    "signal_covariance",
    "signal_covariance_hadamard",
    "smoothed_signal_part",
    "smoothed_steering",
    "smoothed_steering_set",
    "source_matrix",
    "steering_derivative",
    "steering_matrix",
    "steering_vector",
    "synthesize_snapshots",
    "wrap_angle",
]

SIGNAL_POLICIES = ("random-gaussian-normalized", "identity-covariance")


def _check_integer(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_smoothing(m: int, l: int) -> None:
    if not 1 <= l < m:
        raise ValueError(f"smoothing factor must satisfy 1 <= l < m, got l={l}, m={m}")


@dataclass(frozen=True)
class Smoothing:
    """Smoothing geometry: m sensors, n snapshots, smoothing factor l.

    The block-Hankel matrix has subarray_size = m - l + 1 rows and
    virtual_snapshots = n l columns; c_n is their ratio.  l = 1 is the
    unsmoothed array.
    """

    m: int
    n: int
    l: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "l"):
            _check_integer(name, getattr(self, name))
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        _check_smoothing(self.m, self.l)

    @property
    def subarray_size(self) -> int:
        return self.m - self.l + 1

    @property
    def virtual_snapshots(self) -> int:
        return self.n * self.l

    @property
    def c_n(self) -> float:
        return self.subarray_size / self.virtual_snapshots


@dataclass(frozen=True)
class ArrayScenario(Smoothing):
    """One synthetic-experiment configuration.

    Fields
    ------
    m, n, l : sensors, snapshots, smoothing factor (see :class:`Smoothing`).
    doas : tuple of source angles in [-pi, pi), pairwise distinct.
    snr_db : 10 log10(1 / sigma2) with sigma2 the per-entry noise power.
    signal_policy : one of SIGNAL_POLICIES, how a source matrix is drawn
        when the caller passes none.
    seed : master seed for snapshot synthesis.
    """

    doas: tuple
    snr_db: float
    signal_policy: str = "random-gaussian-normalized"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "doas", tuple(float(t) for t in self.doas))
        super().__post_init__()
        if self.signal_policy not in SIGNAL_POLICIES:
            raise ValueError(
                f"unknown signal_policy {self.signal_policy!r}; choose from {SIGNAL_POLICIES}"
            )
        k = len(self.doas)
        if k >= self.subarray_size:
            raise ValueError(
                f"need k < m - l + 1 for a noise subspace, got k={k}, m-l+1={self.subarray_size}"
            )
        if len(set(self.doas)) != k:
            raise ValueError("doas must be pairwise distinct")
        for t in self.doas:
            if not -math.pi <= t < math.pi:
                raise ValueError(f"doa {t} outside [-pi, pi)")
        if self.signal_policy == "identity-covariance" and k > self.n:
            raise ValueError(
                f"identity-covariance needs k <= n for rank k, got k={k}, n={self.n}"
            )
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        _check_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")

    @property
    def k(self) -> int:
        return len(self.doas)

    @property
    def sigma2(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def beamwidth(self) -> float:
        return 2.0 * math.pi / self.m

    def check_signal(self, signal) -> np.ndarray:
        """The source matrix as a complex K x N array; any other shape is rejected."""
        s = np.asarray(signal, dtype=complex)
        if s.shape != (self.k, self.n):
            raise ValueError(f"signal has shape {s.shape}, expected {(self.k, self.n)}")
        return s


@dataclass(frozen=True, kw_only=True)
class SmoothedMatrix(Smoothing):
    """Smoothed M x N snapshots Y: m, n = Y.shape, entries W = block_hankel(Y, l).
    Snapshots go by keyword, as the inherited field order puts l first."""

    m: int = field(init=False)
    n: int = field(init=False)
    snapshots: np.ndarray
    entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if np.ndim(self.snapshots) != 2:
            raise ValueError(f"snapshots must be 2-d, got shape {np.shape(self.snapshots)}")
        object.__setattr__(self, "m", self.snapshots.shape[0])
        object.__setattr__(self, "n", self.snapshots.shape[1])
        super().__post_init__()
        object.__setattr__(self, "entries", block_hankel(self.snapshots, self.l))


def steering_vector(m: int, theta: float) -> np.ndarray:
    """Unit-norm steering vector of an m-sensor ULA at electrical angle theta."""
    if m < 1:
        raise ValueError(f"steering dimension must be positive, got {m}")
    return np.exp(1j * np.arange(m) * theta) / math.sqrt(m)


def steering_matrix(m: int, doas) -> np.ndarray:
    """m x K matrix whose columns are steering vectors at the given angles."""
    doas = np.atleast_1d(np.asarray(doas, dtype=float))
    if m < 1:
        raise ValueError(f"steering dimension must be positive, got {m}")
    return np.exp(1j * np.outer(np.arange(m), doas)) / math.sqrt(m)


def wrap_angle(theta):
    """Angles wrapped onto [-pi, pi); an angle already there is returned as is."""
    t = np.asarray(theta, dtype=float)
    wrapped = np.mod(t + math.pi, 2.0 * math.pi) - math.pi
    # np.mod can round a tiny negative argument up to exactly 2 pi
    wrapped = np.where(wrapped >= math.pi, wrapped - 2.0 * math.pi, wrapped)
    return np.where((t >= -math.pi) & (t < math.pi), t, wrapped)


def min_spacing(doas) -> float:
    """Least distance on the circle between two of at least two angles.

    The gap across the seam, 2 pi minus the span of the wrapped angles,
    counts like any other.
    """
    t = np.sort(wrap_angle(doas))
    return float(min(np.min(np.diff(t)), 2.0 * math.pi - (t[-1] - t[0])))


def steering_derivative(m: int, theta: float) -> np.ndarray:
    """Derivative of steering_vector(m, theta) with respect to theta."""
    if m < 1:
        raise ValueError(f"steering dimension must be positive, got {m}")
    j = np.arange(m)
    return 1j * j * np.exp(1j * j * theta) / math.sqrt(m)


def complex_gaussian(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian entries with E|x|^2 = scale^2."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def haar_columns(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k Haar-distributed orthonormal columns in C^dim (QR with phase fix)."""
    q, r = np.linalg.qr(complex_gaussian(rng, (dim, k)))
    # fix the QR phase ambiguity so the draw is a deterministic function
    # of the generator state
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phase[None, :]


def draw_signal_matrix(k: int, n: int, policy: str, rng: np.random.Generator) -> np.ndarray:
    """Draw a K x N source matrix under one of SIGNAL_POLICIES."""
    if policy == "random-gaussian-normalized":
        s = complex_gaussian(rng, (k, n))
        if k:
            power = np.sum(np.abs(s) ** 2, axis=1) / n
            s = s / np.sqrt(power)[:, None]
        return s
    if policy == "identity-covariance":
        if k > n:
            raise ValueError(f"identity-covariance needs k <= n, got k={k}, n={n}")
        return math.sqrt(n) * haar_columns(n, k, rng).conj().T
    raise ValueError(f"unknown signal policy {policy!r}")


def source_matrix(
    scenario: ArrayScenario, signal: Optional[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """The K x N source matrix S of a scenario.

    A caller's ``signal`` is the fixed signal, under either policy; it must
    be finite and of full row rank K.  Without one, S is drawn from rng
    under the scenario's policy.
    """
    if signal is None:
        return draw_signal_matrix(scenario.k, scenario.n, scenario.signal_policy, rng)
    s = scenario.check_signal(signal)
    if not np.all(np.isfinite(s.view(float))):
        raise ValueError("signal matrix contains non-finite entries")
    if scenario.k and np.linalg.matrix_rank(s) != scenario.k:
        raise ValueError("signal matrix must have full row rank k")
    return s


def observe(scenario: ArrayScenario, signal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """M x N snapshots Y = A S + V, with the noise V drawn from rng."""
    m = scenario.m
    return steering_matrix(m, scenario.doas) @ signal + complex_gaussian(
        rng, (m, scenario.n), math.sqrt(scenario.sigma2)
    )


def synthesize_snapshots(scenario: ArrayScenario, signal: Optional[np.ndarray] = None) -> np.ndarray:
    """Generate the M x N snapshots Y = A S + V of the scenario.

    The source matrix is resolved first (see :func:`source_matrix`), then
    the noise is drawn, from a single stream seeded by scenario.seed, so
    equal scenarios give bitwise-equal output.  With a caller's ``signal``
    the stream is spent on noise only.
    """
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
    return observe(scenario, source_matrix(scenario, signal, rng), rng)


def block_hankel(y: np.ndarray, l: int) -> np.ndarray:
    """Block-Hankel (spatially smoothed) rearrangement of y.

    For y of shape (m, n) the result W has shape (m - l + 1, n * l) with
    W[i, t + j*l] = y[i + t, j]; a 1-d input of length m is treated as a
    single snapshot and yields shape (m - l + 1, l).  l = 1 returns a copy
    of y itself.
    """
    y = np.asarray(y)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got ndim={y.ndim}")
    m = y.shape[0]
    _check_smoothing(m, l)
    windows = sliding_window_view(y, l, axis=0)  # (m-l+1, n, l), [i, j, t] = y[i+t, j]
    out = np.ascontiguousarray(windows).reshape(m - l + 1, y.shape[1] * l)
    if np.shares_memory(out, y):
        # l = 1 keeps the window view contiguous, so no copy happened above;
        # materialize one so the result never aliases (or write-locks) the input
        out = out.copy()
    return out


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


def signal_covariance(scenario: ArrayScenario, signal: np.ndarray) -> np.ndarray:
    """(1/L) A^(L) (S S*/N kron I_L) A^(L)*, via the Kronecker construction."""
    b = smoothed_signal_part(scenario, signal)
    return b @ b.conj().T


def signal_covariance_hadamard(scenario: ArrayScenario, signal: np.ndarray) -> np.ndarray:
    """Same matrix through the Hadamard identity.

    ((M-L+1)/M) * A_{M-L+1} (S S*/N o A_L^T conj(A_L)) A_{M-L+1}^*, where o
    is the elementwise product.  Used as a cross-check of the Kronecker
    construction.
    """
    s = scenario.check_signal(signal)
    m, l, n = scenario.m, scenario.l, scenario.n
    u = scenario.subarray_size
    if scenario.k == 0:
        return np.zeros((u, u), dtype=complex)
    p = s @ s.conj().T / n
    a_l = steering_matrix(l, scenario.doas)
    a_u = steering_matrix(u, scenario.doas)
    c = a_l.T @ a_l.conj()
    return (u / m) * (a_u @ (p * c) @ a_u.conj().T)
