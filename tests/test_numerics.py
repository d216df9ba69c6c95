import numpy as np
import numpy.testing as npt
import pytest

from mpsl.numerics import kaiming_uniform_init, make_rng, normalize_simplex


def test_normalize_simplex_proportional():
    out, degenerate = normalize_simplex(np.array([1.0, 3.0]))
    npt.assert_allclose(out, [0.25, 0.75], rtol=0, atol=1e-15)
    assert not degenerate

    out, degenerate = normalize_simplex(np.array([2.0, 2.0]))
    npt.assert_allclose(out, [0.5, 0.5], rtol=0, atol=1e-15)
    assert not degenerate


def test_normalize_simplex_zero_sum_degenerates():
    out, degenerate = normalize_simplex(np.array([1.0, -1.0]))
    npt.assert_array_equal(out, [0.0, 0.0])
    assert degenerate


def test_normalize_simplex_sums_to_one():
    rng = make_rng(7)
    for _ in range(200):
        x = rng.uniform(0.1, 2.0, size=rng.integers(1, 12))
        out, degenerate = normalize_simplex(x)
        assert not degenerate
        assert abs(out.sum() - 1.0) <= 1e-12


def test_kaiming_bounds():
    rng = make_rng(0)
    w = kaiming_uniform_init(rng, fan_in=6, rows=50, cols=6)
    assert np.all(np.abs(w) <= 1.0)


def test_kaiming_determinism():
    a = kaiming_uniform_init(make_rng(123), 10, 8, 10)
    b = kaiming_uniform_init(make_rng(123), 10, 8, 10)
    npt.assert_array_equal(a, b)


def test_kaiming_empirical_mean():
    rng = make_rng(42)
    w = kaiming_uniform_init(rng, fan_in=600, rows=1, cols=1000)
    assert abs(w.mean()) < 0.05


def test_kaiming_rejects_bad_fan_in():
    with pytest.raises(ValueError):
        kaiming_uniform_init(make_rng(0), 0, 2, 2)


def test_rng_reproducibility_long_stream():
    n = 1_000_000
    draws_a = make_rng(2024).uniform(size=n)
    draws_b = make_rng(2024).uniform(size=n)
    npt.assert_array_equal(draws_a, draws_b)
