import numpy as np
import pytest

from stoclaw.quadrature import QuadratureError, batch_simpson, inward_offset


def test_orientation_sign():
    fwd = batch_simpson(np.exp, [0.0], [1.0])
    bwd = batch_simpson(np.exp, [1.0], [0.0])
    np.testing.assert_allclose(fwd, [np.e - 1.0], atol=1e-10)
    np.testing.assert_allclose(fwd, -bwd, atol=1e-14)


def test_breakpoint_handles_jump():
    f = lambda x: np.where(x > 1.0, 1.0, 0.0)
    val = batch_simpson(f, [0.0], [2.0], breakpoints=(1.0,))
    np.testing.assert_allclose(val, [1.0], atol=1e-10)


def test_tiny_segment_next_to_large_abscissa():
    # one-sided sampling must survive segments much smaller than the
    # endpoint magnitude
    f = lambda x: np.where(np.abs(x) > 1.0, 1.0, 0.0)
    val = batch_simpson(f, [1.0 - 1e-4], [1.0 + 1e-4], breakpoints=(1.0,))
    np.testing.assert_allclose(val, [1e-4], rtol=1e-9)


def test_depth_cap_raises():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(np.shape(x))

    with pytest.raises(QuadratureError):
        batch_simpson(noisy, [0.0], [1.0], tol=1e-12, max_doublings=6)


def test_batch_rows_with_distinct_intervals():
    lo = np.array([0.0, 1.0, -1.0])
    hi = np.array([1.0, 3.0, 1.0])
    vals = batch_simpson(lambda x: x ** 3, lo, hi)
    np.testing.assert_allclose(vals, (hi ** 4 - lo ** 4) / 4.0, atol=1e-10)


def test_batch_reversed_interval_sign():
    vals = batch_simpson(lambda x: np.ones_like(x), np.array([2.0]),
                         np.array([0.5]))
    np.testing.assert_allclose(vals, [-1.5], atol=1e-12)


def test_batch_zero_width_rows():
    vals = batch_simpson(lambda x: np.exp(x), np.array([1.0, 0.0]),
                         np.array([1.0, 1.0]))
    np.testing.assert_allclose(vals, [0.0, np.e - 1.0], atol=1e-9)


def test_inward_offset_representable():
    a = np.array([1.0 - 1e-4])
    b = np.array([1.0])
    d = inward_offset(a, b)
    assert np.all(b - d < b)
    assert np.all(a + d > a)
    assert np.all(d <= 0.5 * (b - a))
