"""Closed-form Marcenko-Pastur and spiked-model quantities.

Everything here is parameterized by :class:`MpParams`, the pair
``(sigma2, c)``: per-entry noise power and row/column aspect ratio of the
underlying rectangular noise matrix.  ``c`` may be the asymptotic ratio or
the finite-sample ratio of an actual matrix; callers decide which to plug in.

The spiked-model functions describe where an isolated population eigenvalue
``lam`` of a low-rank additive perturbation reappears in the sample spectrum
(``spike_forward``) and how much of the corresponding population eigenvector
survives in the sample eigenvector (``h_star``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BelowEdgeError",
    "DomainError",
    "MpParams",
    "SpikePrediction",
    "h_star",
    "mp_atom",
    "mp_cdf",
    "mp_density",
    "mp_stieltjes",
    "mp_stieltjes_tilde",
    "phi_inverse",
    "phi_star",
    "spike_forward",
    "w_star",
]


class DomainError(ValueError):
    """Argument lies outside the spectral domain of the requested quantity."""


class BelowEdgeError(DomainError):
    """A spike-dependent quantity was requested at or below the bulk edge."""


@dataclass(frozen=True)
class MpParams:
    """Noise power and aspect ratio selecting one Marcenko-Pastur law."""

    sigma2: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c!r}")

    @property
    def edge_minus(self) -> float:
        """Lower edge of the bulk, sigma2 * (1 - sqrt(c))^2."""
        return self.sigma2 * (1.0 - math.sqrt(self.c)) ** 2

    @property
    def edge_plus(self) -> float:
        """Upper edge of the bulk, sigma2 * (1 + sqrt(c))^2."""
        return self.sigma2 * (1.0 + math.sqrt(self.c)) ** 2

    @property
    def spike_threshold(self) -> float:
        """Detachment threshold sigma2 * sqrt(c) for population spikes."""
        return self.sigma2 * math.sqrt(self.c)


class SpikePrediction(NamedTuple):
    """Predicted sample location of one population spike.

    ``detached`` is False when the spike does not separate, in which case
    ``value`` is the bulk upper edge (the spike sticks to the bulk).
    """

    value: float
    detached: bool


def mp_atom(p: MpParams) -> float:
    """Mass of the atom at zero, max(0, 1 - 1/c)."""
    return max(0.0, 1.0 - 1.0 / p.c)


def mp_density(x, p: MpParams):
    """Density of the absolutely continuous part of the MP law.

    Vanishes outside [edge_minus, edge_plus]; the atom at zero (present for
    c > 1) is reported separately by :func:`mp_atom`.
    """
    x_arr = np.asarray(x, dtype=float)
    lo, hi = p.edge_minus, p.edge_plus
    out = np.zeros_like(x_arr)
    inside = (x_arr > 0) & (x_arr >= lo) & (x_arr <= hi)
    xi = x_arr[inside]
    out[inside] = np.sqrt((xi - lo) * (hi - xi)) / (2.0 * math.pi * p.sigma2 * p.c * xi)
    if np.ndim(x) == 0:
        return float(out)
    return out


def mp_cdf(x, p: MpParams):
    """CDF of the full MP law (atom at zero included), in closed form.

    In y = x / sigma2 the bulk density is sqrt((b - y)(y - a)) / (2 pi c y)
    with edges a, b = (1 -+ sqrt(c))^2.  Substituting
    y = 1 + c - 2 sqrt(c) cos(t), t in [0, pi], the bulk mass up to y is

        (2 sqrt(c) sin t + (1 + c) t - |1 - c| atan2(|1 - c| sin t,
        (1 + c) cos t - 2 sqrt(c))) / (2 pi c),

    0 at a and min(1, 1/c) at b.  Every term is smooth in t, so rounding near
    an edge costs no more than rounding elsewhere, where terms in
    sqrt(b - y) would lose half the digits; at c = 1 (a = 0) the last term
    is exactly 0.
    """
    c = p.c
    root_c = math.sqrt(c)
    x_arr = np.asarray(x, dtype=float)
    y = x_arr / p.sigma2
    t = np.arccos(np.clip((1.0 + c - y) / (2.0 * root_c), -1.0, 1.0))
    sin_t = np.sin(t)
    gap = abs(1.0 - c)
    bulk = (
        2.0 * root_c * sin_t
        + (1.0 + c) * t
        - gap * np.arctan2(gap * sin_t, (1.0 + c) * np.cos(t) - 2.0 * root_c)
    ) / (2.0 * math.pi * c)
    out = np.where(x_arr >= 0.0, mp_atom(p), 0.0) + np.where(x_arr > p.edge_minus, bulk, 0.0)
    out = np.where(x_arr >= p.edge_plus, 1.0, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _check_off_support(z: complex, p: MpParams) -> complex:
    z = complex(z)
    if z == 0:
        raise DomainError("z = 0 is excluded (atom of the MP law)")
    if z.imag == 0.0 and p.edge_minus <= z.real <= p.edge_plus:
        raise DomainError(
            f"z = {z.real} lies inside the bulk support "
            f"[{p.edge_minus}, {p.edge_plus}]"
        )
    return z


def _stieltjes(z, p: MpParams, sqrt):
    """m(z) for z off the support, with ``sqrt`` the principal square root of
    z's arithmetic (cmath for complex z, numpy for real z > edge_plus)."""
    s2, c = p.sigma2, p.c
    # discriminant factors through the bulk edges; the product of principal
    # square roots below is the branch with sqrt ~ z at infinity
    g = sqrt(z - p.edge_minus) * sqrt(z - p.edge_plus)
    return (-(z - s2 * (1.0 - c)) + g) / (2.0 * s2 * c * z)


def _stieltjes_tilde(z, m, p: MpParams):
    """Companion transform from m = m(z)."""
    return p.c * m + (p.c - 1.0) / z


def mp_stieltjes(z, p: MpParams) -> complex:
    """Stieltjes transform m(z) of the MP law, closed-form quadratic branch.

    The branch is fixed by m(z) ~ -1/z at infinity and Im m(z) > 0 for
    Im z > 0; it satisfies m = 1 / (-z + sigma2 / (1 + sigma2 c m)).
    """
    return _stieltjes(_check_off_support(z, p), p, cmath.sqrt)


def mp_stieltjes_tilde(z, p: MpParams) -> complex:
    """Stieltjes transform of the companion law c * mu + (1 - c) * delta_0."""
    z = _check_off_support(z, p)
    return _stieltjes_tilde(z, _stieltjes(z, p, cmath.sqrt), p)


def w_star(z, p: MpParams):
    """w(z) = 1 / (z m(z) mtilde(z)) for real z above the bulk edge.

    Takes a scalar or an array; every entry must be real and above
    edge_plus.  There m(z) is real, so it is computed in real arithmetic.
    Increasing on (edge_plus, inf) with w(edge_plus) = sigma2 sqrt(c).
    """
    z_arr = np.asarray(z)
    if not (np.all(np.isreal(z_arr)) and np.all(np.real(z_arr) > p.edge_plus)):
        raise DomainError(f"w_star requires real z > edge_plus = {p.edge_plus}, got {z!r}")
    x = np.real(z_arr).astype(float)
    m = _stieltjes(x, p, np.sqrt)
    w = 1.0 / (x * m * _stieltjes_tilde(x, m, p))
    if np.ndim(z) == 0:
        return float(w)
    return w


def phi_star(w: float, p: MpParams) -> float:
    """phi(w) = (w + sigma2)(w + sigma2 c) / w."""
    if w == 0:
        raise DomainError("phi_star is undefined at w = 0")
    s2, c = p.sigma2, p.c
    return (w + s2) * (w + s2 * c) / w


def phi_inverse(rho: float, p: MpParams) -> float:
    """Unique w > sigma2 sqrt(c) with phi(w) = rho, for rho > edge_plus.

    Computed as the larger root of w^2 - (rho - sigma2 - sigma2 c) w
    + sigma2^2 c = 0.
    """
    if not rho > p.edge_plus:
        raise BelowEdgeError(
            f"phi_inverse requires rho > edge_plus = {p.edge_plus}, got {rho}"
        )
    s2, c = p.sigma2, p.c
    b = rho - s2 - s2 * c
    disc = b * b - 4.0 * s2 * s2 * c
    return 0.5 * (b + math.sqrt(max(disc, 0.0)))


def h_star(rho: float, p: MpParams) -> float:
    """Eigenvector attenuation h(rho) = (w^2 - sigma2^2 c) / (w (w + sigma2 c)).

    Here w = phi_inverse(rho).  Values lie in (0, 1): the squared overlap
    between a detached sample eigenvector and its population counterpart.
    """
    w = phi_inverse(rho, p)
    s2, c = p.sigma2, p.c
    return (w * w - s2 * s2 * c) / (w * (w + s2 * c))


def spike_forward(lam: float, p: MpParams) -> SpikePrediction:
    """Sample location of a population spike lam >= 0.

    Returns phi(lam) tagged detached for lam above the threshold
    sigma2 sqrt(c); otherwise the bulk upper edge tagged not detached.
    """
    if lam < 0:
        raise ValueError(f"population spike must be nonnegative, got {lam}")
    if lam > p.spike_threshold:
        return SpikePrediction(phi_star(lam, p), True)
    return SpikePrediction(p.edge_plus, False)
