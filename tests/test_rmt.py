"""Tests for the Marcenko-Pastur / spiked-covariance machinery.

Every closed form is checked against an independent oracle rather than
against itself: adaptive quadrature of the density for masses, moments,
the CDF and the Stieltjes transform; the defining fixed-point equation of
the Stieltjes transform; two independent routes to the same w (resolvent
product vs quadratic-formula inverse); and a central-difference derivative
for the eigenvector-attenuation identity.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from smoothmusic.rmt import (
    BelowEdgeError,
    DomainError,
    MpParams,
    h_star,
    mp_atom,
    mp_cdf,
    mp_stieltjes,
    mp_stieltjes_tilde,
    phi_inverse,
    phi_star,
    spike_forward,
    w_star,
)


def mp_density(x, p: MpParams):
    """Density of the absolutely continuous part of the MP law, the oracle of
    :func:`mp_cdf`.

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


# parameter grid spanning c < 1, c = 1 and c > 1 at different noise scales
PARAM_GRID = [(1.0, 0.5), (2.0, 0.25), (1.0, 1.0), (0.5, 2.0), (3.0, 0.04)]


def _bulk_integral(p, f, tol=1e-10):
    """Adaptive quadrature of f(x) * density(x) over the bulk support."""
    val, err = quad(
        lambda x: f(x) * mp_density(x, p),
        p.edge_minus,
        p.edge_plus,
        limit=400,
        epsabs=tol,
        epsrel=tol,
    )
    return val, err


def test_edge_and_threshold_formulas():
    """Edges and detachment threshold follow their closed forms."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        root = math.sqrt(c)
        assert p.edge_minus == pytest.approx(sigma2 * (1 - root) ** 2, abs=1e-15)
        assert p.edge_plus == pytest.approx(sigma2 * (1 + root) ** 2, rel=1e-15)
        assert p.spike_threshold == pytest.approx(sigma2 * root, rel=1e-15)
        assert p.edge_minus < p.edge_plus
        assert p.spike_threshold < p.edge_plus


def test_params_validation():
    """Non-positive or non-finite parameters are rejected."""
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MpParams(bad, 0.5)
        with pytest.raises(ValueError):
            MpParams(1.0, bad)


def test_atom_mass():
    """The atom at zero carries max(0, 1 - 1/c)."""
    assert mp_atom(MpParams(1.0, 0.5)) == 0.0
    assert mp_atom(MpParams(2.0, 1.0)) == 0.0
    assert mp_atom(MpParams(1.0, 2.0)) == pytest.approx(0.5, abs=1e-15)
    assert mp_atom(MpParams(0.3, 4.0)) == pytest.approx(0.75, abs=1e-15)


def test_density_mass_matches_atom():
    """The continuous part integrates to 1 - atom (quadrature oracle)."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        mass, err = _bulk_integral(p, lambda x: 1.0)
        assert err < 1e-7, f"quadrature failed to converge for {(sigma2, c)}"
        expected = 1.0 - mp_atom(p)
        assert mass == pytest.approx(expected, abs=2e-8), (
            f"bulk mass {mass} != 1 - atom = {expected} at (sigma2, c) = {(sigma2, c)}"
        )


def test_density_support_and_shapes():
    """Density vanishes off the bulk and is polymorphic in its argument."""
    p = MpParams(1.0, 0.5)
    assert mp_density(p.edge_minus - 1e-6, p) == 0.0
    assert mp_density(p.edge_plus + 1e-6, p) == 0.0
    assert mp_density(-1.0, p) == 0.0
    mid = 0.5 * (p.edge_minus + p.edge_plus)
    assert mp_density(mid, p) > 0.0
    assert isinstance(mp_density(mid, p), float)
    grid = np.linspace(-1.0, p.edge_plus + 1.0, 101)
    vals = mp_density(grid, p)
    assert vals.shape == grid.shape
    assert np.all(vals >= 0.0)


def test_cdf_matches_quadrature():
    """CDF equals atom + integral of the density (quadrature oracle).

    c = 1 puts the lower edge at 0, where the density has a 1/sqrt(x)
    singularity; the fractions 1e-6 and 1e-3 probe the lower edge.
    """
    for sigma2, c in [(1.0, 0.5), (0.5, 2.0), (2.0, 0.25), (1.0, 1.0), (2.0, 1.0), (0.5, 4.0)]:
        p = MpParams(sigma2, c)
        atom = mp_atom(p)
        for frac in (1e-6, 1e-3, 0.1, 0.37, 0.5, 0.82):
            x = p.edge_minus + frac * (p.edge_plus - p.edge_minus)
            partial, err = quad(
                lambda t: mp_density(t, p), p.edge_minus, x, limit=400,
                epsabs=1e-11, epsrel=1e-11,
            )
            assert err < 1e-8
            got = mp_cdf(x, p)
            assert got == pytest.approx(atom + partial, abs=1e-10), (
                f"cdf({x}) = {got} != {atom + partial} at (sigma2, c) = {(sigma2, c)}"
            )


def test_cdf_limits_and_monotonicity():
    """CDF is 0 below zero, atom-valued below the bulk, monotone, 1 at the top."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        assert mp_cdf(-1.0, p) == 0.0
        assert mp_cdf(p.edge_plus, p) == 1.0
        assert mp_cdf(p.edge_plus + 5.0, p) == 1.0
        grid = np.linspace(-0.5, p.edge_plus + 0.5, 401)
        vals = mp_cdf(grid, p)
        assert np.all(np.diff(vals) >= -1e-12), "CDF must be nondecreasing"
        assert np.all((vals >= 0.0) & (vals <= 1.0))
    # with an atom, the mass below the bulk is exactly the atom
    p = MpParams(1.0, 2.0)
    assert p.edge_minus > 0
    assert mp_cdf(0.5 * p.edge_minus, p) == pytest.approx(0.5, abs=1e-12)


def test_stieltjes_matches_quadrature():
    """m(z) equals -atom/z + integral of density/(x - z) (quadrature oracle)."""
    cases = [
        (1.0, 0.5, 4.0 + 0.0j),
        (1.0, 0.5, 0.04 + 0.0j),
        (1.0, 0.5, -1.0 + 0.0j),
        (1.0, 0.5, 1.0 + 1.0j),
        (2.0, 0.25, 0.5 - 2.0j),
        (0.5, 2.0, -0.7 + 0.0j),
        (0.5, 2.0, 2.0 + 0.3j),
    ]
    for sigma2, c, z in cases:
        p = MpParams(sigma2, c)
        re, re_err = _bulk_integral(p, lambda x: ((x - z) ** -1).real)
        im, im_err = _bulk_integral(p, lambda x: ((x - z) ** -1).imag)
        assert max(re_err, im_err) < 1e-7
        oracle = complex(re, im) - mp_atom(p) / z
        got = mp_stieltjes(z, p)
        assert abs(got - oracle) < 1e-7, (
            f"m({z}) = {got} != quadrature oracle {oracle} at (sigma2, c) = {(sigma2, c)}"
        )


def test_stieltjes_fixed_point():
    """m satisfies its defining equation m = 1/(-z + sigma2/(1 + sigma2 c m))."""
    rng = np.random.default_rng(20260818)
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        zs = [
            complex(rng.uniform(-3, 3) * p.edge_plus, rng.uniform(0.1, 2.0)),
            complex(rng.uniform(-3, 3) * p.edge_plus, -rng.uniform(0.1, 2.0)),
            complex(p.edge_plus * rng.uniform(1.01, 4.0), 0.0),
            complex(-rng.uniform(0.1, 2.0) * p.edge_plus, 0.0),
        ]
        if p.edge_minus > 0:
            zs.append(complex(0.5 * p.edge_minus, 0.0))
        for z in zs:
            m = mp_stieltjes(z, p)
            rhs = 1.0 / (-z + sigma2 / (1.0 + sigma2 * c * m))
            assert abs(m - rhs) <= 1e-10 * abs(m), (
                f"fixed point violated at z = {z}, (sigma2, c) = {(sigma2, c)}"
            )


def test_stieltjes_branch():
    """Branch choice: Herglotz in the upper half-plane, m ~ -1/z at infinity."""
    p = MpParams(1.0, 0.5)
    for z in (1.0 + 0.5j, -2.0 + 0.01j, 5.0 + 3.0j, 0.2 + 1e-6j):
        assert mp_stieltjes(z, p).imag > 0.0, f"Im m must be positive at {z}"
        conj = mp_stieltjes(z.conjugate(), p)
        assert conj == pytest.approx(mp_stieltjes(z, p).conjugate(), rel=1e-12)
    for big in (1e6, 1e8):
        assert abs(big * mp_stieltjes(big, p) + 1.0) < 5.0 / big
        assert abs(complex(0, big) * mp_stieltjes(complex(0, big), p) + 1.0) < 5.0 / big
    # real z above the edge: m is real and negative
    m = mp_stieltjes(2.0 * p.edge_plus, p)
    assert m.imag == 0.0 and m.real < 0.0


def test_stieltjes_domain_errors():
    """z = 0 and real z inside the closed bulk support are rejected."""
    p = MpParams(1.0, 0.5)
    for z in (0.0, p.edge_minus, p.edge_plus, 0.5 * (p.edge_minus + p.edge_plus)):
        with pytest.raises(DomainError):
            mp_stieltjes(z, p)
        if z != 0.0:
            with pytest.raises(DomainError):
                mp_stieltjes_tilde(z, p)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, 1.0)])
def test_stieltjes_refuses_non_finite_z(z):
    """A NaN or infinite z is off every support only nominally: it is refused,
    never passed on as a NaN transform."""
    p = MpParams(1.0, 0.5)
    for transform in (mp_stieltjes, mp_stieltjes_tilde):
        with pytest.raises(DomainError, match="not finite"):
            transform(z, p)


def test_tilde_transform_is_companion_law():
    """The co-resolvent transform equals the MP transform of the companion law.

    The companion distribution of MP(sigma2, c) is MP(sigma2 * c, 1/c): both
    describe the nonzero singular values, so the transforms must agree at
    every z off the common support.
    """
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        q = MpParams(sigma2 * c, 1.0 / c)
        assert p.edge_plus == pytest.approx(q.edge_plus, rel=1e-12)
        for z in (2.0 * p.edge_plus + 0.0j, 1.0 + 1.0j, -0.3 + 0.0j, 0.7 - 0.4j):
            got = mp_stieltjes_tilde(z, p)
            expected = mp_stieltjes(z, q)
            assert abs(got - expected) <= 1e-12 * max(abs(expected), 1.0), (
                f"tilde transform mismatch at z = {z}, (sigma2, c) = {(sigma2, c)}"
            )


def test_w_star_two_routes_agree():
    """w from the resolvent product equals w from the quadratic inverse."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        for factor in (1.0 + 1e-6, 1.1, 1.5, 2.0, 5.0, 25.0):
            z = factor * p.edge_plus
            w_resolvent = w_star(z, p)
            w_quadratic = phi_inverse(z, p)
            assert w_resolvent == pytest.approx(w_quadratic, rel=1e-10), (
                f"w routes disagree at z = {z}, (sigma2, c) = {(sigma2, c)}"
            )
            # and phi maps it back onto z
            assert phi_star(w_resolvent, p) == pytest.approx(z, rel=1e-10)


def test_w_star_edge_behavior_and_domain():
    """w is increasing, tends to the threshold at the edge, and checks z."""
    p = MpParams(1.0, 0.5)
    zs = p.edge_plus * np.array([1.0 + 1e-9, 1.01, 1.1, 1.5, 3.0, 10.0])
    ws = [w_star(z, p) for z in zs]
    assert all(b > a for a, b in zip(ws, ws[1:])), "w must increase above the edge"
    assert ws[0] == pytest.approx(p.spike_threshold, rel=1e-3)
    for bad in (p.edge_plus, 0.5 * p.edge_plus, complex(3.0, 1.0)):
        with pytest.raises(DomainError):
            w_star(bad, p)


def test_w_star_on_arrays():
    """An array of z gives the scalar calls' values bit for bit, and the
    complex resolvent product to 1e-14; a scalar gives a float; one entry at
    or below the edge refuses the whole array."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        zs = p.edge_plus * np.array([1.0 + 1e-9, 1.0 + 1e-6, 1.01, 1.5, 3.0, 10.0, 1e4])
        ws = w_star(zs, p)
        assert isinstance(ws, np.ndarray) and ws.shape == zs.shape
        scalars = [w_star(z, p) for z in zs]
        assert all(type(w) is float for w in scalars)
        np.testing.assert_array_equal(ws, scalars)
        resolvent = [(1.0 / (z * mp_stieltjes(z, p) * mp_stieltjes_tilde(z, p))).real for z in zs]
        np.testing.assert_allclose(ws, resolvent, rtol=1e-14, atol=0)
        assert w_star(zs[:0], p).shape == (0,)
        for bad in (p.edge_plus, 0.5 * p.edge_plus, math.nan):
            with pytest.raises(DomainError):
                w_star(np.append(zs, bad), p)
        with pytest.raises(DomainError):
            w_star(zs + 1e-3j, p)


def _h_in_floats(rho: float, s2: float, c: float) -> float:
    """h(rho) in Python floats and math.sqrt, the scalar closed form."""
    b = rho - s2 - s2 * c
    w = 0.5 * (b + math.sqrt(max(b * b - 4.0 * s2 * s2 * c, 0.0)))
    return (w * w - s2 * s2 * c) / (w * (w + s2 * c))


def test_phi_inverse_and_h_star_on_arrays():
    """An array of rho, with one sigma2 per entry or one for all, gives the
    scalar closed form's values bit for bit, as np.sqrt and math.sqrt both
    round correctly; a scalar gives a float; one entry at or below its edge
    refuses the whole array."""
    rng = np.random.default_rng(0)
    for c in (0.25, 1.0, 3.0):
        s2 = 10.0 ** rng.uniform(-30.0, 5.0, (4, 3))
        rho = MpParams(s2, c).edge_plus * (1.0 + 10.0 ** rng.uniform(-9.0, 12.0, (4, 3)))
        h = h_star(rho, MpParams(s2, c))
        assert isinstance(h, np.ndarray) and h.shape == (4, 3)
        want = [_h_in_floats(float(r), float(v), c) for r, v in zip(rho.flat, s2.flat)]
        np.testing.assert_array_equal(h.ravel(), want)
        assert isinstance(phi_inverse(rho, MpParams(s2, c)), np.ndarray)
        one = MpParams(float(s2[0, 0]), c)
        assert type(h_star(float(rho[0, 0]), one)) is float
        assert type(phi_inverse(float(rho[0, 0]), one)) is float
        row = one.edge_plus * np.array([1.0 + 1e-9, 1.5, 1e6])
        np.testing.assert_array_equal(h_star(row, one), [_h_in_floats(r, one.sigma2, c) for r in row])
        with pytest.raises(BelowEdgeError):
            h_star(np.append(row, one.edge_plus), one)
    with pytest.raises(ValueError):
        MpParams(np.array([1.0, 0.0]), 0.5)


def test_phi_round_trips():
    """phi and its inverse are mutually inverse on their stated domains."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        for factor in (1.001, 1.1, 2.0, 10.0):
            lam = factor * p.spike_threshold
            assert phi_inverse(phi_star(lam, p), p) == pytest.approx(lam, rel=1e-12)
            rho = factor * p.edge_plus
            assert phi_star(phi_inverse(rho, p), p) == pytest.approx(rho, rel=1e-12)
    p = MpParams(1.0, 0.5)
    with pytest.raises(DomainError):
        phi_star(0.0, p)
    for rho in (p.edge_plus, 0.9 * p.edge_plus, 0.0, -1.0):
        with pytest.raises(BelowEdgeError):
            phi_inverse(rho, p)


def test_h_star_derivative_form():
    """h(rho) = phi'(w) (w + sigma2) / phi(w) with a central-difference phi'."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        for factor in (1.1, 1.5, 2.0, 5.0):
            rho = factor * p.edge_plus
            w = phi_inverse(rho, p)
            step = 1e-6 * w
            dphi = (phi_star(w + step, p) - phi_star(w - step, p)) / (2.0 * step)
            oracle = dphi * (w + sigma2) / phi_star(w, p)
            assert h_star(rho, p) == pytest.approx(oracle, rel=1e-6), (
                f"attenuation mismatch at rho = {rho}, (sigma2, c) = {(sigma2, c)}"
            )


def test_h_star_range_and_limits():
    """h lies in (0, 1), increases with rho, vanishes at the edge, tends to 1."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        rhos = p.edge_plus * np.array([1.0 + 1e-6, 1.01, 1.1, 1.5, 3.0, 20.0])
        hs = [h_star(r, p) for r in rhos]
        assert all(0.0 < h < 1.0 for h in hs)
        assert all(b > a for a, b in zip(hs, hs[1:])), "h must increase with rho"
        assert hs[0] < 0.02, "h must vanish approaching the bulk edge"
        assert h_star(1e8 * p.edge_plus, p) > 0.999
        with pytest.raises(BelowEdgeError):
            h_star(p.edge_plus, p)


def test_spike_forward_map():
    """Detached spikes map through phi; others stick to the bulk edge."""
    for sigma2, c in PARAM_GRID:
        p = MpParams(sigma2, c)
        thr = p.spike_threshold
        pred = spike_forward(2.0 * thr, p)
        assert pred.detached
        assert pred.value == pytest.approx(phi_star(2.0 * thr, p), rel=1e-15)
        assert pred.value > p.edge_plus
        for lam in (thr, 0.5 * thr, 0.0):
            pred = spike_forward(lam, p)
            assert not pred.detached
            assert pred.value == p.edge_plus
        # continuity across the threshold: phi(thr) is the bulk edge
        just_above = spike_forward(thr * (1.0 + 1e-9), p)
        assert just_above.detached
        assert just_above.value == pytest.approx(p.edge_plus, rel=1e-12)
        # monotone above the threshold
        vals = [spike_forward(f * thr, p).value for f in (1.5, 2.0, 3.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        spike_forward(-0.1, MpParams(1.0, 0.5))


def test_mp_moments():
    """First two moments are sigma2 and sigma2^2 (1 + c) (quadrature oracle)."""
    for sigma2, c in [(1.0, 0.5), (2.0, 0.25), (0.5, 2.0)]:
        p = MpParams(sigma2, c)
        m1, err1 = _bulk_integral(p, lambda x: x)
        m2, err2 = _bulk_integral(p, lambda x: x * x)
        assert max(err1, err2) < 1e-7
        assert m1 == pytest.approx(sigma2, rel=1e-8), (
            f"first moment {m1} != sigma2 = {sigma2} at c = {c}"
        )
        assert m2 == pytest.approx(sigma2**2 * (1.0 + c), rel=1e-8), (
            f"second moment {m2} != sigma2^2 (1 + c) at c = {c}"
        )
