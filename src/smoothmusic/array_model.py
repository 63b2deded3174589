"""Uniform linear array signal model and spatial smoothing.

Angles are electrical phase increments in radians: the steering vector of an
m-sensor array is a_m(theta) = (1/sqrt(m)) [1, e^{i theta}, ...,
e^{i (m-1) theta}]^T, so a full beamwidth is 2 pi / m.  No wavelength or
element-spacing layer exists here.

Spatial smoothing turns the M x N snapshot matrix into the block-Hankel
matrix of size (M - L + 1) x (N L) whose column block n stacks the L
length-(M - L + 1) sliding subarray views of snapshot n.
:class:`SmoothedMatrix` is the one block-Hankel operator: it forms W W*,
W x and the residual of W off a subspace from the row slices of Y, and
builds W itself only when its entries are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "steering_derivative",
    "steering_matrix",
    "synthesize_snapshots",
    "wrap_angle",
]

SIGNAL_POLICIES = ("random-gaussian-normalized", "identity-covariance")


def _check_integer(name: str, value) -> None:
    # bool subclasses int, but True is no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    _check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_smoothing(m: int, l: int) -> None:
    _check_integer("l", l)
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
        _check_integer("m", self.m)
        _check_count("n", self.n, 1)
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
    snr_db : 10 log10(1 / sigma2) with sigma2 the per-entry noise power,
        which must be a positive finite float (|snr_db| up to ~3000 dB).
    signal_policy : one of SIGNAL_POLICIES, how the source matrix is drawn.
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
        try:
            sigma2 = self.sigma2
        except OverflowError:
            sigma2 = math.inf
        if not 0.0 < sigma2 < math.inf:
            raise ValueError(f"snr_db must give a positive finite sigma2, got {self.snr_db}")
        _check_count("seed", self.seed, 0)

    @property
    def k(self) -> int:
        return len(self.doas)

    @property
    def sigma2(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)

    def check_signal(self, signal) -> np.ndarray:
        """The source matrix as a finite complex K x N array, or a (..., K, N)
        stack of them; anything else is rejected."""
        s = np.asarray(signal, dtype=complex)
        if s.shape[-2:] != (self.k, self.n):
            raise ValueError(f"signal has shape {s.shape}, expected {(self.k, self.n)}")
        if not np.all(np.isfinite(s)):
            raise ValueError("signal matrix contains non-finite entries")
        return s


def _one_signal(scenario: ArrayScenario, signal) -> np.ndarray:
    """scenario.check_signal for the functions that take one draw, not a stack."""
    s = scenario.check_signal(signal)
    if s.ndim != 2:
        raise ValueError(
            f"signal has shape {s.shape}, expected one {(scenario.k, scenario.n)} draw"
        )
    return s


@dataclass(frozen=True, kw_only=True, eq=False)
class SmoothedMatrix(Smoothing):
    """Smoothed M x N snapshots Y: m, n = Y.shape, smoothing factor l.
    Snapshots go by keyword, as the inherited field order puts l first.
    The block-Hankel matrix W is not stored: ``entries`` builds it on each
    read, while ``gram``, ``matvec`` and ``residual`` work on the row slices
    Y_t = Y[t : t + U], t < l, whose columns are W's, grouped by t.
    A T x M x N stack of T trials' snapshots is smoothed alike: m and n are
    its last two axes, ``entries`` stacks the trials' W, and ``trials()``
    gives each trial's own matrix, on which ``gram``, ``matvec`` and
    ``residual`` work.
    Instances compare and hash by identity: arrays have no one truth value,
    and the inherited (m, n, l) comparison would call any two of one shape equal."""

    m: int = field(init=False)
    n: int = field(init=False)
    snapshots: np.ndarray

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self) -> None:
        object.__setattr__(self, "snapshots", np.asarray(self.snapshots))
        if self.snapshots.ndim not in (2, 3):
            raise ValueError(
                f"snapshots must be 2-d, or 3-d for a stack of trials, got shape {self.snapshots.shape}"
            )
        object.__setattr__(self, "m", self.snapshots.shape[-2])
        object.__setattr__(self, "n", self.snapshots.shape[-1])
        super().__post_init__()

    @property
    def entries(self) -> np.ndarray:
        """W = block_hankel(snapshots, l), built anew on every read; a
        stack's W, trial by trial."""
        if self.snapshots.ndim == 2:
            return block_hankel(self.snapshots, self.l)
        return np.stack([one.entries for one in self.trials()])

    def trials(self) -> list:
        """Each trial's own SmoothedMatrix: one per row of a stack, or self."""
        if self.snapshots.ndim == 2:
            return [self]
        return [SmoothedMatrix(snapshots=y, l=self.l) for y in self.snapshots]

    def gram(self) -> np.ndarray:
        """W W* = sum_t Y_t Y_t* (forward spatial smoothing), without W.

        R[i, j] = sum_{t < l} C[i + t, j + t] with C = Y Y*.  Prefix sums
        down each diagonal of C, subtracted l apart, give every entry in
        O(m^2) after the O(m^2 n) product, whatever l is.  l = 1 returns
        Y Y* itself.
        """
        y, l = self.snapshots, self.l
        gram = y @ y.conj().T
        if l == 1:
            return gram
        # in place, row by row: gram[i, j] becomes sum_{s <= min(i, j)} C[i - s, j - s]
        for i in range(1, self.m):
            gram[i, 1:] += gram[i - 1, :-1]
        u = self.subarray_size
        out = gram[l - 1 :, l - 1 :].copy()
        out[1:, 1:] -= gram[: u - 1, : u - 1]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """W x for a length-(n l) x or an (n l) x p block of them: the sum of
        Y_t x_t, where x_t = x[t::l] holds the entries of x that meet
        column t of each block."""
        y, l, u = self.snapshots, self.l, self.subarray_size
        xs = x.reshape(self.n, l, *x.shape[1:])  # xs[j, t] = x[t + j l]
        out = y[:u] @ xs[:, 0]
        for t in range(1, l):
            out += y[t : t + u] @ xs[:, t]
        return out

    def residual(self, vecs: np.ndarray) -> float:
        """||W - V V* W||_F^2 for orthonormal columns V: the sum of
        ||Y_t - V (V* Y_t)||_F^2."""
        y, u = self.snapshots, self.subarray_size
        total = 0.0
        for t in range(self.l):
            resid = vecs @ (vecs.conj().T @ y[t : t + u])
            resid -= y[t : t + u]
            total += np.vdot(resid, resid).real
        return total


def steering_matrix(m: int, doas) -> np.ndarray:
    """m x K matrix whose columns are steering vectors at the given angles."""
    doas = np.atleast_1d(np.asarray(doas, dtype=float))
    _check_count("m", m, 1)
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
    """Derivative of the steering vector a_m(theta) with respect to theta."""
    _check_count("m", m, 1)
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


def observe(scenario: ArrayScenario, signal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """M x N snapshots Y = A S + V, with the noise V drawn from rng."""
    m = scenario.m
    return steering_matrix(m, scenario.doas) @ signal + complex_gaussian(
        rng, (m, scenario.n), math.sqrt(scenario.sigma2)
    )


def synthesize_snapshots(scenario: ArrayScenario) -> np.ndarray:
    """Generate the M x N snapshots Y = A S + V of the scenario.

    The source matrix is drawn under the scenario's policy, then the noise,
    from a single stream seeded by scenario.seed, so equal scenarios give
    bitwise-equal output.
    """
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
    signal = draw_signal_matrix(scenario.k, scenario.n, scenario.signal_policy, rng)
    return observe(scenario, signal, rng)


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


def signal_covariance(scenario: ArrayScenario, signal: np.ndarray) -> np.ndarray:
    """(1/L) A^(L) (S S*/N kron I_L) A^(L)*, which is W W* / (N L) for the
    block-Hankel matrix W of the noiseless snapshots A S."""
    noiseless = steering_matrix(scenario.m, scenario.doas) @ _one_signal(scenario, signal)
    return SmoothedMatrix(snapshots=noiseless, l=scenario.l).gram() / scenario.virtual_snapshots


def signal_covariance_hadamard(scenario: ArrayScenario, signal: np.ndarray) -> np.ndarray:
    """Same matrix through the Hadamard identity.

    ((M-L+1)/M) * A_{M-L+1} (S S*/N o A_L^T conj(A_L)) A_{M-L+1}^*, where o
    is the elementwise product.  Used as a cross-check of
    :func:`signal_covariance`.
    """
    s = _one_signal(scenario, signal)
    m, l, n = scenario.m, scenario.l, scenario.n
    u = scenario.subarray_size
    p = s @ s.conj().T / n
    a_l = steering_matrix(l, scenario.doas)
    a_u = steering_matrix(u, scenario.doas)
    c = a_l.T @ a_l.conj()
    return (u / m) * (a_u @ (p * c) @ a_u.conj().T)
