"""Tests for the ULA signal model and spatial smoothing.

The block-Hankel rearrangement is pinned down entry-by-entry against its
index definition on seeded random inputs; the rank-one smoothed steering
factorization, the deterministic-part identity and the elementwise-product
form of the signal covariance are each checked against an independently
assembled construction.
"""

import dataclasses
import math

import numpy as np
import pytest

from smoothmusic.array_model import (
    SIGNAL_POLICIES,
    ArrayScenario,
    SmoothedMatrix,
    Smoothing,
    block_hankel,
    complex_gaussian,
    draw_signal_matrix,
    signal_covariance,
    signal_covariance_hadamard,
    steering_derivative,
    steering_matrix,
    synthesize_snapshots,
)
from smoothmusic.montecarlo import crb
from reference import smoothed_signal_part, smoothed_steering, smoothed_steering_set, steering_vector


def test_steering_vector_entries_and_norm():
    """a_m(theta) has entries e^{i j theta} / sqrt(m) and unit norm."""
    for m in (1, 2, 7, 64):
        for theta in (-3.0, -0.5, 0.0, 1.25):
            a = steering_vector(m, theta)
            assert a.shape == (m,)
            j = np.arange(m)
            expected = np.exp(1j * j * theta) / math.sqrt(m)
            np.testing.assert_allclose(a, expected, atol=1e-15)
            assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        steering_vector(0, 0.3)
    # a non-integer size would silently round up to a longer, non-unit vector
    with pytest.raises(ValueError, match="m must be an integer"):
        steering_vector(2.5, 0.3)


def test_steering_matrix_columns():
    """Columns of the steering matrix are the individual steering vectors."""
    doas = (-1.0, 0.2, 2.5)
    a = steering_matrix(10, doas)
    assert a.shape == (10, 3)
    for i, theta in enumerate(doas):
        np.testing.assert_allclose(a[:, i], steering_vector(10, theta), atol=1e-15)
    # scalar argument produces one column
    assert steering_matrix(10, 0.4).shape == (10, 1)
    with pytest.raises(ValueError):
        steering_matrix(0, doas)
    with pytest.raises(ValueError, match="m must be an integer"):
        steering_matrix(2.5, doas)


def test_steering_derivative_central_difference():
    """The analytic derivative matches a central difference oracle."""
    h = 1e-6
    for m in (2, 9, 33):
        for theta in (-2.0, 0.0, 0.7):
            d = steering_derivative(m, theta)
            oracle = (steering_vector(m, theta + h) - steering_vector(m, theta - h)) / (2 * h)
            np.testing.assert_allclose(d, oracle, atol=1e-6 * m)
    with pytest.raises(ValueError):
        steering_derivative(0, 0.0)
    with pytest.raises(ValueError, match="m must be an integer"):
        steering_derivative(2.5, 0.0)


def test_block_hankel_index_definition():
    """W[i, t + j l] == Y[i + t, j] on seeded random matrices."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(3, 24))
        n = int(rng.integers(1, 9))
        l = int(rng.integers(1, m))
        y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        w = block_hankel(y, l)
        assert w.shape == (m - l + 1, n * l)
        for i in range(m - l + 1):
            for j in range(n):
                for t in range(l):
                    assert w[i, t + j * l] == y[i + t, j], (
                        f"index mismatch at (i={i}, j={j}, t={t}) for m={m}, n={n}, l={l}"
                    )


def test_block_hankel_degenerate_and_errors():
    """l = 1 copies the input; vectors act as single snapshots; a stack of
    matrices gives the stack of their W; a scalar and a bad l are rejected."""
    rng = np.random.default_rng(11)
    y = rng.standard_normal((6, 4))
    w = block_hankel(y, 1)
    np.testing.assert_array_equal(w, y)
    w[0, 0] = 123.0
    assert y[0, 0] != 123.0, "l = 1 must return a copy, not a view"

    v = rng.standard_normal(8)
    wv = block_hankel(v, 3)
    assert wv.shape == (6, 3)
    for i in range(6):
        for t in range(3):
            assert wv[i, t] == v[i + t]

    for bad_l in (0, 6, 7, -1):
        with pytest.raises(ValueError):
            block_hankel(y, bad_l)
    # Smoothing's integer rule, not numpy's TypeError from the window view
    with pytest.raises(ValueError, match="^l must be an integer, got 2.5"):
        block_hankel(np.ones((4, 2)), 2.5)
    stack = rng.standard_normal((3, 6, 4))
    for l in (1, 3):
        got = block_hankel(stack, l)
        assert got.shape == (3, 7 - l, 4 * l)
        for i in range(3):
            np.testing.assert_array_equal(got[i], block_hankel(stack[i], l))
    assert not np.shares_memory(block_hankel(stack, 1), stack)
    with pytest.raises(ValueError, match="scalar"):
        block_hankel(np.float64(1.0), 1)


def test_smoothed_steering_dual_construction():
    """The rank-one factorization equals the block-Hankel of the steering vector."""
    for m, l in [(8, 3), (16, 1), (16, 15), (33, 8)]:
        for theta in (-2.2, 0.0, 0.9):
            direct = block_hankel(steering_vector(m, theta), l)
            factored = smoothed_steering(theta, m, l)
            np.testing.assert_allclose(factored, direct, atol=1e-12)
            # explicit outer-product form with the stated scale
            scale = math.sqrt(l * (m - l + 1) / m)
            outer = scale * np.outer(
                steering_vector(m - l + 1, theta), steering_vector(l, theta)
            )
            np.testing.assert_allclose(factored, outer, atol=1e-15)
    with pytest.raises(ValueError):
        smoothed_steering(0.3, 8, 8)


def test_smoothed_steering_set_shape():
    """Blocks concatenate horizontally; the empty set keeps the row count."""
    doas = (-0.4, 0.1, 1.7)
    out = smoothed_steering_set(doas, 12, 4)
    assert out.shape == (9, 12)
    for i, theta in enumerate(doas):
        np.testing.assert_allclose(
            out[:, 4 * i : 4 * (i + 1)], smoothed_steering(theta, 12, 4), atol=1e-15
        )
    empty = smoothed_steering_set((), 12, 4)
    assert empty.shape == (9, 0)


def test_smoothed_signal_part_identity():
    """The smoothed A S equals sqrt(N L) times the deterministic part, exactly."""
    rng = np.random.default_rng(3)
    for m, n, l, doas in [
        (16, 6, 4, (0.0, 0.8)),
        (24, 5, 9, (-1.0, -0.2, 1.4)),
        (10, 3, 2, (0.5,)),
    ]:
        sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=10.0)
        k = len(doas)
        s = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        noiseless = steering_matrix(m, doas) @ s
        direct = block_hankel(noiseless, l)
        b = smoothed_signal_part(sc, s)
        np.testing.assert_allclose(
            b * math.sqrt(n * l), direct, atol=1e-12,
            err_msg=f"deterministic-part identity failed for m={m}, n={n}, l={l}",
        )
    with pytest.raises(ValueError):
        smoothed_signal_part(sc, s[:, :-1])
    with pytest.raises(ValueError, match="signal has shape"):
        signal_covariance_hadamard(sc, s[:, :-1])


def test_one_draw_functions_refuse_a_stack():
    """check_signal takes a (..., K, N) stack of source matrices, while the
    covariance builders and the bound take one draw and refuse a stack by
    name: at D = K = N a stack would broadcast into a wrong answer."""
    sc = ArrayScenario(m=8, n=2, l=2, doas=(0.0, 1.0), snr_db=10.0)
    stack = np.ones((2, 2, 2), dtype=complex) + np.eye(2)
    assert sc.check_signal(stack).shape == (2, 2, 2)
    for one_draw in (signal_covariance, signal_covariance_hadamard, crb):
        with pytest.raises(ValueError, match=r"expected one \(2, 2\) draw"):
            one_draw(sc, stack)


def test_signal_covariance_elementwise_form():
    """The Gram and elementwise-product constructions agree to 1e-10."""
    rng = np.random.default_rng(5)
    for m, n, l, doas in [
        (16, 6, 4, (0.0, 0.8)),
        (40, 10, 16, (-0.9, -0.85, 1.2)),
        (12, 4, 2, (0.25,)),
        (160, 20, 16, (0.0, math.pi / 320)),
    ]:
        sc = ArrayScenario(m=m, n=n, l=l, doas=doas, snr_db=20.0)
        k = len(doas)
        s = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        gram = signal_covariance(sc, s)
        hadamard = signal_covariance_hadamard(sc, s)
        scale = np.linalg.norm(gram)
        assert np.linalg.norm(gram - hadamard) <= 1e-10 * scale, (
            f"covariance constructions disagree for m={m}, n={n}, l={l}"
        )
        # both are Hermitian PSD
        np.testing.assert_allclose(gram, gram.conj().T, atol=1e-12 * scale)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        assert eigs.min() > -1e-10 * scale


def _replay(sc):
    """Y = A S + V rebuilt from the scenario's stream: S first, then V."""
    rng = np.random.default_rng(np.random.SeedSequence(sc.seed))
    signal = draw_signal_matrix(sc.k, sc.n, sc.signal_policy, rng)
    noise = complex_gaussian(rng, (sc.m, sc.n), math.sqrt(sc.sigma2))
    return steering_matrix(sc.m, sc.doas) @ signal + noise, noise


def test_synthesize_snapshots_deterministic_and_additive():
    """Equal scenarios give bitwise-equal draws: the signal, then the noise,
    from the scenario's stream, added to A S."""
    sc = ArrayScenario(m=12, n=8, l=4, doas=(0.2, 1.0), snr_db=5.0, seed=42)
    y1 = synthesize_snapshots(sc)
    y2 = synthesize_snapshots(ArrayScenario(m=12, n=8, l=4, doas=(0.2, 1.0), snr_db=5.0, seed=42))
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(y1, _replay(sc)[0])
    assert y1.shape == (12, 8)
    sc_id = dataclasses.replace(sc, signal_policy="identity-covariance")
    np.testing.assert_array_equal(synthesize_snapshots(sc_id), _replay(sc_id)[0])
    # a different seed moves the noise
    y3 = synthesize_snapshots(ArrayScenario(m=12, n=8, l=4, doas=(0.2, 1.0), snr_db=5.0, seed=43))
    assert not np.array_equal(y1, y3)


def test_noise_power_matches_snr():
    """Empirical noise power per entry approaches 10^(-snr/10)."""
    sc = ArrayScenario(m=64, n=256, l=4, doas=(0.3,), snr_db=7.0, seed=9)
    y, noise = _replay(sc)
    np.testing.assert_array_equal(synthesize_snapshots(sc), y)
    power = float(np.mean(np.abs(noise) ** 2))
    assert power == pytest.approx(sc.sigma2, rel=0.03), (
        f"noise power {power} deviates from sigma2 = {sc.sigma2}"
    )


def test_signal_policies():
    """Each policy draws a K x N matrix and realizes its advertised
    second-order structure."""
    for policy in SIGNAL_POLICIES:
        s = draw_signal_matrix(3, 12, policy, np.random.default_rng(16))
        assert s.shape == (3, 12), policy
    rng = np.random.default_rng(17)
    s = draw_signal_matrix(3, 40, "random-gaussian-normalized", rng)
    assert s.shape == (3, 40)
    powers = np.sum(np.abs(s) ** 2, axis=1) / 40
    np.testing.assert_allclose(powers, 1.0, atol=1e-12)

    rng = np.random.default_rng(18)
    s = draw_signal_matrix(3, 12, "identity-covariance", rng)
    np.testing.assert_allclose(s @ s.conj().T / 12, np.eye(3), atol=1e-12)

    with pytest.raises(ValueError):
        draw_signal_matrix(5, 3, "identity-covariance", rng)  # needs k <= n
    with pytest.raises(ValueError):
        draw_signal_matrix(2, 8, "no-such-policy", rng)

    # identical generator state gives identical draws (QR phase is fixed)
    a = draw_signal_matrix(2, 10, "identity-covariance", np.random.default_rng(5))
    b = draw_signal_matrix(2, 10, "identity-covariance", np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_scenario_validation_and_properties():
    """Scenario invariants are enforced; derived quantities follow the sizes."""
    sc = ArrayScenario(m=160, n=20, l=16, doas=(0.0, 0.5), snr_db=10.0)
    assert sc.k == 2
    assert sc.subarray_size == 145
    assert sc.virtual_snapshots == 320
    assert sc.c_n == pytest.approx(145 / 320, rel=1e-15)
    assert sc.sigma2 == pytest.approx(0.1, rel=1e-12)

    base = dict(m=16, n=8, l=4, doas=(0.1, 0.9), snr_db=0.0)
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "m": 0})
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "n": 0})
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "l": 16})  # l must stay below m
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "doas": (0.1, 0.1)})  # duplicates
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "doas": (0.1, math.pi)})  # out of range
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "doas": tuple(np.linspace(-1, 1, 13))})  # k >= m - l + 1
    # sigma2 = 10**(-snr_db/10) must be a positive finite float: nan, an
    # overflow and an underflow to 0 are all refused
    for snr_db in (math.nan, -4000.0, 4000.0):
        with pytest.raises(ValueError, match="snr_db"):
            ArrayScenario(**{**base, "snr_db": snr_db})
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "seed": -1})
    # sizes and seeds are integers, checked rather than truncated
    for name, value in (("m", 16.5), ("n", 8.0), ("l", 2.5), ("seed", 1.5), ("seed", False)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ArrayScenario(**{**base, name: value})
    with pytest.raises(ValueError, match="^m must be an integer"):
        Smoothing(m=16.5, n=10, l=2)
    # bool subclasses int, but would read as a count of 1
    with pytest.raises(ValueError, match="^n must be an integer, got True"):
        Smoothing(m=4, n=True, l=True)
    with pytest.raises(ValueError, match="^l must be an integer, got True"):
        Smoothing(m=4, n=1, l=True)
    numpy_ints = ArrayScenario(**{**base, "m": np.int64(16), "l": np.int32(4), "seed": np.uint8(1)})
    assert numpy_ints.subarray_size == 13
    with pytest.raises(ValueError):
        ArrayScenario(**{**base, "signal_policy": "bogus"})
    with pytest.raises(ValueError):
        ArrayScenario(m=16, n=1, l=4, doas=(0.1, 0.9), snr_db=0.0, signal_policy="identity-covariance")


def test_smoothed_matrix_from_snapshots():
    """SmoothedMatrix takes l and, by keyword only, the snapshots; m and n
    are the snapshots' shape and the entries their block-Hankel matrix."""
    sc = ArrayScenario(m=12, n=5, l=3, doas=(0.4,), snr_db=10.0, seed=2)
    y = synthesize_snapshots(sc)
    sm = SmoothedMatrix(snapshots=y, l=3)
    assert sm.snapshots is y
    assert (sm.m, sm.n, sm.l) == (12, 5, 3)
    assert sm.subarray_size == 10
    assert sm.virtual_snapshots == 15
    assert sm.c_n == pytest.approx(10 / 15, rel=1e-15)
    np.testing.assert_array_equal(sm.entries, block_hankel(y, 3))
    assert [f.name for f in dataclasses.fields(SmoothedMatrix) if f.init] == ["l", "snapshots"]
    with pytest.raises(TypeError):
        SmoothedMatrix(y, 3)  # the field order would bind y to l
    with pytest.raises(TypeError):
        SmoothedMatrix(snapshots=y, l=3, m=12)
    with pytest.raises(ValueError, match=r"shape \(12,\)"):
        SmoothedMatrix(snapshots=y[:, 0], l=3)
    # nested lists are read as arrays
    from_list = SmoothedMatrix(snapshots=[[1, 2], [3, 4], [5, 6]], l=1)
    assert (from_list.m, from_list.n) == (3, 2)
    np.testing.assert_array_equal(from_list.gram(), [[5, 11, 17], [11, 25, 39], [17, 39, 61]])
    with pytest.raises(ValueError, match="1 <= l < m"):
        SmoothedMatrix(snapshots=y, l=12)


def test_smoothed_matrix_compares_and_hashes_by_identity():
    """Two matrices built from equal snapshots are distinct objects: they
    compare unequal without raising on their array fields, each equals
    itself, and both hash."""
    y = synthesize_snapshots(ArrayScenario(m=12, n=5, l=3, doas=(0.4,), snr_db=10.0, seed=2))
    a, b = SmoothedMatrix(snapshots=y, l=3), SmoothedMatrix(snapshots=y.copy(), l=3)
    assert a != b and not a == b
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) == 2
