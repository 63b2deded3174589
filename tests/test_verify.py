"""Tests for the empirical random-matrix verification experiments.

The planted-spike and pure-noise ensembles are exercised at reduced trial
counts with fixed seeds; deterministic outputs (determinant roots, report
bookkeeping) are checked exactly, and stochastic statistics are asserted
against thresholds measured with headroom at these exact seeds.
"""

import math
import re

import numpy as np
import pytest

from smoothmusic import subspace, verify
from smoothmusic.array_model import Smoothing, block_hankel, complex_gaussian
from smoothmusic.rmt import DomainError, MpParams, mp_cdf, mp_stieltjes, mp_stieltjes_tilde, phi_star
from smoothmusic.verify import (
    determinant_root_check,
    esd_vs_mp,
    quadratic_form_check,
    run_verification_suite,
    spike_experiment,
)

from reference import spike_dense


def test_esd_report_structure_and_ks():
    """Pooled noise spectrum at (160, 20, 16) stays close to the limit law."""
    rep = esd_vs_mp(160, 20, 16, 1.0, trials=10, seed=0)
    assert rep.eigenvalues.shape == (10 * 145,)
    assert np.all(np.diff(rep.eigenvalues) >= 0)
    assert rep.params.sigma2 == 1.0
    assert rep.params.c == pytest.approx(145 / 320, rel=1e-15)
    assert rep.exceed_counts.shape == (10,)
    assert 0.0 <= rep.confinement_fraction <= 1.0
    assert rep.ks_distance < 0.03, (
        f"KS distance {rep.ks_distance} too large for a matched law"
    )
    # the reported distance is reproducible from the pooled sample
    x = rep.eigenvalues
    cdf = np.asarray(mp_cdf(x, rep.params))
    steps = np.arange(x.size + 1) / x.size
    manual = max(float(np.max(steps[1:] - cdf)), float(np.max(cdf - steps[:-1])), 0.0)
    assert rep.ks_distance == pytest.approx(manual, abs=1e-15)
    with pytest.raises(ValueError):
        esd_vs_mp(160, 20, 16, 1.0, trials=0, seed=0)


def test_esd_is_seeded_and_law_sensitive():
    """Same seed reproduces the spectrum; a mismatched law blows the distance up."""
    a = esd_vs_mp(40, 10, 4, 1.0, trials=5, seed=3)
    b = esd_vs_mp(40, 10, 4, 1.0, trials=5, seed=3)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    c = esd_vs_mp(40, 10, 4, 1.0, trials=5, seed=4)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues)
    # distance of the sigma2 = 1 sample to a sigma2 = 2 law is macroscopic
    wrong = MpParams(2.0, a.params.c)
    cdf = np.asarray(mp_cdf(a.eigenvalues, wrong))
    steps = np.arange(a.eigenvalues.size + 1) / a.eigenvalues.size
    dist = max(float(np.max(steps[1:] - cdf)), float(np.max(cdf - steps[:-1])))
    assert dist > 0.2, f"mismatched law should be far from the sample, got {dist}"


def test_spike_experiment_detached_predictions():
    """A strong planted spike lands on phi(lambda) with overlap h (both to 5%)."""
    m, n, l = 160, 20, 16
    p = MpParams(1.0, 145 / 320)
    lam = 4.0 * p.spike_threshold
    exp = spike_experiment(m, n, l, 1.0, (lam,), trials=20, seed=0)
    assert exp.planted.shape == (1,)
    assert exp.detached[0]
    assert exp.rho[0] == pytest.approx(phi_star(lam, p), rel=1e-12)
    assert exp.lambda_hat.shape == (20, 1)
    assert exp.projections.shape == (20, 1)
    rel = np.abs(exp.lambda_hat[:, 0] / exp.rho[0] - 1.0)
    assert float(np.median(rel)) < 0.05, f"eigenvalue relocation error {np.median(rel)}"
    perr = np.abs(exp.projections[:, 0] - exp.h[0])
    assert float(np.median(perr)) < 0.05, f"projection error {np.median(perr)}"
    assert 0.0 < exp.h[0] < 1.0


def test_spike_experiment_subcritical_sticks_to_edge():
    """A weak spike stays at the bulk edge and gets no overlap prediction."""
    m, n, l = 160, 20, 16
    p = MpParams(1.0, 145 / 320)
    lam = 0.5 * p.spike_threshold
    exp = spike_experiment(m, n, l, 1.0, (lam,), trials=20, seed=0)
    assert not exp.detached[0]
    assert exp.rho[0] == p.edge_plus
    assert math.isnan(exp.h[0])
    stick = float(np.median(np.abs(exp.lambda_hat[:, 0] - p.edge_plus))) / p.edge_plus
    assert stick < 0.10, f"largest eigenvalue strays {stick:.3f} from the edge"


def test_spike_experiment_iid_control():
    """The iid-noise control shows the same detached-spike statistics."""
    m, n, l = 160, 20, 16
    p = MpParams(1.0, 145 / 320)
    lam = 4.0 * p.spike_threshold
    iid = spike_experiment(m, n, l, 1.0, (lam,), trials=20, seed=0, noise="iid")
    rel = np.abs(iid.lambda_hat[:, 0] / iid.rho[0] - 1.0)
    assert float(np.median(rel)) < 0.05
    perr = np.abs(iid.projections[:, 0] - iid.h[0])
    assert float(np.median(perr)) < 0.05


@pytest.mark.parametrize("noise", ["hankel", "iid"])
@pytest.mark.parametrize("scale", [4.0, 0.5], ids=["detached", "sub-threshold"])
@pytest.mark.parametrize(
    "m, n, l, trials",
    [(40, 10, 4, 6), (160, 20, 16, 4)],
    ids=["dense", "lanczos"],  # U = 37 and 145, on either side of LANCZOS_MIN_DIM
)
def test_spike_experiment_matches_dense_eigh(m, n, l, trials, scale, noise):
    """The top eigenpairs of X X*, formed from Z's Gram and products, equal
    those of a full eigh of the X built from Z's entries."""
    g = Smoothing(m=m, n=n, l=l)
    lam = scale * MpParams(1.0, g.c_n).spike_threshold
    got = spike_experiment(m, n, l, 1.0, (lam,), trials=trials, seed=3, noise=noise)
    lambda_hat, projections = spike_dense(m, n, l, 1.0, (lam,), trials, 3, noise)
    np.testing.assert_allclose(got.lambda_hat, lambda_hat, rtol=1e-10)
    np.testing.assert_allclose(got.projections, projections, rtol=0, atol=1e-10)


def test_sub_threshold_spike_converges_without_dense_fallback(monkeypatch):
    """At (160, 20, 16), seed 0, the edge-sticking experiment's top-k search
    converges in every trial: no trial falls back to a full eigh."""
    lanczos_top = subspace._lanczos_top
    found = []

    def spy(apply, data, u, k):
        top = lanczos_top(apply, data, u, k)
        found.extend(one is not None for one in top)
        return top

    monkeypatch.setattr(subspace, "_lanczos_top", spy)
    lam = 0.5 * MpParams(1.0, 145 / 320).spike_threshold
    spike_experiment(160, 20, 16, 1.0, (lam,), trials=12, seed=0)
    assert found == [True] * 12


def test_spike_experiment_multiple_ordered_spikes():
    """Two detached spikes are tracked in descending order with valid overlaps."""
    m, n, l = 160, 20, 16
    p = MpParams(1.0, 145 / 320)
    lams = (2.0 * p.spike_threshold, 4.0 * p.spike_threshold)
    exp = spike_experiment(m, n, l, 1.0, lams, trials=5, seed=1)
    np.testing.assert_allclose(exp.planted, sorted(lams, reverse=True), atol=1e-15)
    np.testing.assert_allclose(
        exp.rho, [phi_star(lam, p) for lam in exp.planted], rtol=1e-12
    )
    assert np.all(np.diff(exp.lambda_hat, axis=1) <= 0), "per-trial eigenvalues descend"
    assert np.all((exp.projections >= 0) & (exp.projections <= 1 + 1e-12))


def test_spike_experiment_validation():
    """Planted-spectrum and ensemble arguments are validated."""
    with pytest.raises(ValueError):
        spike_experiment(40, 10, 4, 1.0, (), trials=2, seed=0)
    with pytest.raises(ValueError):
        spike_experiment(40, 10, 4, 1.0, (-1.0,), trials=2, seed=0)
    with pytest.raises(ValueError):
        spike_experiment(40, 10, 4, 1.0, (2.0, 2.0), trials=2, seed=0)
    with pytest.raises(ValueError):
        spike_experiment(40, 10, 4, 1.0, (2.0,), trials=2, seed=0, noise="gaussian")
    with pytest.raises(ValueError):
        spike_experiment(40, 10, 4, 1.0, (2.0,), trials=0, seed=0)
    with pytest.raises(ValueError):
        spike_experiment(4, 2, 2, 1.0, tuple(range(1, 5)), trials=2, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_planted_eigenvalues_are_refused_by_name(bad):
    """A NaN or infinite planted eigenvalue is a ValueError that lists it,
    before any draw or scan: not all-NaN rows, not a bulk-edge error."""
    p = MpParams(1.0, 0.5)
    shown = re.escape(str([bad]))
    with pytest.raises(ValueError, match=rf"planted eigenvalues must be positive and finite, got {shown}"):
        spike_experiment(40, 10, 4, 1.0, (2.0, bad), trials=2, seed=0)
    with pytest.raises(ValueError, match=rf"eigenvalues must be positive and finite, got {shown}"):
        determinant_root_check(p, (2.0, bad))
    with pytest.raises(ValueError, match=r"got \[0\.0\]"):
        determinant_root_check(p, (0.0, 2.0))


def test_determinant_roots_exact_values():
    """Roots of the limiting determinant sit at phi of the planted eigenvalues.

    At sigma2 = 1, c = 0.5 the planted pair (1.5, 2.0) maps to exactly
    (10/3, 3.75).
    """
    p = MpParams(1.0, 0.5)
    roots = determinant_root_check(p, (1.5, 2.0))
    np.testing.assert_allclose(roots, [10.0 / 3.0, 3.75], atol=1e-8)
    # refined down to adjacent floats, not just to a tolerance
    exact = np.array([10.0 / 3.0, 3.75])
    assert np.all(np.abs(roots - exact) <= 2.0 * np.spacing(exact)), roots - exact
    # input order is immaterial
    np.testing.assert_allclose(determinant_root_check(p, (2.0, 1.5)), roots, atol=1e-12)
    # a sub-threshold eigenvalue contributes no root
    sub = 0.5 * p.spike_threshold
    assert determinant_root_check(p, (sub,)).size == 0
    mixed = determinant_root_check(p, (sub, 2.0))
    np.testing.assert_allclose(mixed, [3.75], atol=1e-8)
    with pytest.raises(ValueError):
        determinant_root_check(p, (0.0, 2.0))


def test_quadratic_form_residuals_shrink_with_size():
    """Resolvent quadratic-form residuals decay when the sizes quadruple."""
    p = MpParams(1.0, 73 / 200)
    z = 1.5 * p.edge_plus
    lo, hi = [], []
    for t in range(20):
        lo.append(sum(quadratic_form_check(80, 25, 8, 1.0, z, seed=100 + t)))
        hi.append(sum(quadratic_form_check(320, 25, 32, 1.0, z, seed=200 + t)))
    ratio = float(np.median(hi)) / float(np.median(lo))
    assert ratio < 0.7, f"residuals failed to decay: ratio {ratio:.3f}"
    assert float(np.median(hi)) < 0.05, "large-size residuals must be small in absolute terms"
    r = quadratic_form_check(80, 25, 8, 1.0, z, seed=0)
    assert all(v >= 0 for v in r)
    assert set(r._fields) == {"resolvent", "co_resolvent", "mixed"}


def _direct_residuals(m, n, l, sigma2, z, seed):
    """quadratic_form_check's draws with Q~ = (Z* Z - z I)^{-1} solved directly."""
    g = Smoothing(m=m, n=n, l=l)
    p = MpParams(sigma2, g.c_n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, verify._TAG_QUAD]))
    v = complex_gaussian(rng, (m, n), math.sqrt(sigma2))
    zmat = block_hankel(v, l) / math.sqrt(g.virtual_snapshots)

    def unit(dim):
        x = complex_gaussian(rng, dim)
        return x / np.linalg.norm(x)

    a, b = unit(g.subarray_size), unit(g.subarray_size)
    at, bt = unit(g.virtual_snapshots), unit(g.virtual_snapshots)
    gram = zmat @ zmat.conj().T - z * np.eye(g.subarray_size)
    gram_t = zmat.conj().T @ zmat - z * np.eye(g.virtual_snapshots)
    return (
        abs(a.conj() @ np.linalg.solve(gram, b) - mp_stieltjes(z, p) * (a.conj() @ b)),
        abs(at.conj() @ np.linalg.solve(gram_t, bt) - mp_stieltjes_tilde(z, p) * (at.conj() @ bt)),
        abs(a.conj() @ np.linalg.solve(gram, zmat @ bt)),
    )


@pytest.mark.parametrize(
    "m, n, l, sigma2, z",
    [
        (80, 25, 8, 1.0, 1.5 * MpParams(1.0, 73 / 200).edge_plus),  # real, above the edge
        (80, 25, 8, 1.0, 0.8 + 0.3j),  # complex, over the bulk
        (80, 25, 8, 1.0, -0.7),  # negative real
        (60, 4, 3, 0.5, 1.5 * MpParams(0.5, 58 / 12).edge_plus),  # c_N > 1
        (60, 4, 3, 0.5, 2.0 - 1.0j),  # c_N > 1, complex
    ],
)
def test_quadratic_form_check_matches_direct_co_resolvent(m, n, l, sigma2, z):
    """The push-through co-resolvent form equals the direct N L x N L solve."""
    for seed in range(3):
        got = quadratic_form_check(m, n, l, sigma2, z, seed=seed)
        np.testing.assert_allclose(got, _direct_residuals(m, n, l, sigma2, z, seed), rtol=1e-10, atol=0)


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(0, math.nan)])
def test_quadratic_form_check_refuses_non_finite_z(z):
    """A non-finite z is a DomainError, not NaN residuals after a warning."""
    with pytest.raises(DomainError, match="not finite"):
        quadratic_form_check(40, 10, 4, 1.0, z, seed=0)


@pytest.mark.usefixtures("forbid_block_hankel")
def test_verify_gram_paths_never_build_the_smoothed_matrix():
    """quadratic_form_check's Z Z*, Z a~ and Z b~, esd_vs_mp's Z Z*, and
    spike_experiment's Z Z* and Z V, for both noise kinds, come from the raw
    noise block: block_hankel, the U x N L copy, is never called."""
    p = MpParams(1.0, Smoothing(m=160, n=20, l=16).c_n)
    assert all(r >= 0 for r in quadratic_form_check(160, 20, 16, 1.0, 1.5 * p.edge_plus, seed=0))
    esd_vs_mp(40, 10, 4, 1.0, trials=2, seed=0)
    lam = 2.0 * p.spike_threshold
    for noise in ("hankel", "iid"):
        spike_experiment(160, 20, 16, 1.0, (lam,), trials=2, seed=0, noise=noise)


def test_run_verification_suite_refuses_fewer_than_two_trials(monkeypatch):
    """trials < 2 is a ValueError before the first draw, as the CLI's exit 2 is."""
    monkeypatch.setattr(verify, "esd_vs_mp", lambda *a, **kw: pytest.fail("drew before checking"))
    for trials in (0, 1):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            run_verification_suite(32, 8, 4, 1.0, trials=trials)


@pytest.mark.parametrize("seed", [True, 2.5, -1])
@pytest.mark.parametrize(
    "check, args",
    [
        ("esd_vs_mp", (8, 4, 2, 1.0, 2)),
        ("quadratic_form_check", (8, 4, 2, 1.0, 5 + 1j)),
        ("run_verification_suite", (8, 4, 2, 1.0, 2)),
    ],
    ids=["esd_vs_mp", "quadratic_form_check", "run_verification_suite"],
)
def test_a_seed_that_is_no_count_is_refused_by_name_before_any_draw(monkeypatch, check, args, seed):
    """True, 2.5 or -1 as a seed is a ValueError that names the seed, before
    the first noise draw, not seed 1 or numpy's TypeError inside a trial."""
    monkeypatch.setattr(verify, "_noise_block", lambda *a: pytest.fail("drew before checking the seed"))
    with pytest.raises(ValueError, match="seed must be"):
        getattr(verify, check)(*args, seed=seed)


def test_run_verification_suite_all_rows_pass():
    """At (80, 25, 8) with the default budget every bundled check passes."""
    rows = run_verification_suite(80, 25, 8, 1.0, trials=100, seed=0)
    names = [r.check for r in rows]
    assert names == [
        "mp-ks",
        "edge-confinement",
        "spike-eigenvalue",
        "spike-projection",
        "edge-sticking",
        "hankel-vs-iid-overlap",
        "determinant-roots",
        "quadratic-form-decay",
    ]
    for r in rows:
        assert math.isfinite(r.statistic)
        assert (r.m, r.n, r.l) == (80, 25, 8)
        assert r.passed, f"check {r.check} failed: {r.statistic} vs {r.threshold}"
