"""Primitive tests: frozen oracle values plus stability properties, for
scalar arguments and for whole arrays. sigmoid and log_sigmoid are the p
and log_p of logistic, the powers are the loss zoo's _pow, and the base
check is the open-interval check modulating_factor applies to its p."""

import math

import numpy as np
import pytest

from focalpo.losses import PROB_EPS, _open_unit, _pow, clamp_probability, logistic


def sigmoid(x):
    return logistic(x)[0]


def log_sigmoid(x):
    return logistic(x)[2]


class TestLogistic:
    def test_s_is_p_at_minus_x_bit_for_bit(self):
        xs = np.concatenate([np.linspace(-50, 50, 2001), [0.0, -0.0, 5e-324, -5e-324, 1e6, -1e6]])
        s = logistic(xs)[1]
        assert s.tobytes() == logistic(-xs)[0].tobytes()
        for x, expected in zip(xs, s):
            assert logistic(float(x))[1] == expected

    def test_halves_at_zero(self):
        for zero in (0.0, -0.0):
            assert logistic(zero)[:2] == (0.5, 0.5)

    def test_rejection_names_the_argument(self):
        with pytest.raises(ValueError, match=r"^logistic argument must be finite, got nan$"):
            logistic(np.array([0.0, math.nan]))


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    @pytest.mark.parametrize("x", [-3.0, 1.0, 7.0])
    def test_reflection_identity(self, x):
        assert sigmoid(x) == pytest.approx(1.0 - sigmoid(-x), abs=1e-12)

    def test_reference_value(self):
        # high-precision evaluation: 1 / (1 + exp(-2))
        assert sigmoid(2.0) == pytest.approx(0.8807970779778824, abs=1e-12)
        values = sigmoid(np.array([2.0, 0.0, -2.0]))
        expected = np.array([0.8807970779778824, 0.5, 1.0 - 0.8807970779778824])
        assert values == pytest.approx(expected, abs=1e-12)

    def test_no_overflow_at_extremes(self):
        assert sigmoid(750.0) == 1.0 - PROB_EPS
        assert sigmoid(-750.0) == PROB_EPS

    def test_clamped_into_open_interval(self):
        for x in (-40.0, -30.0, 30.0, 40.0):
            p = sigmoid(x)
            assert 0.0 < p < 1.0
            assert PROB_EPS <= p <= 1.0 - PROB_EPS

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            sigmoid(x)

    def test_symmetry_sum_grid(self):
        xs = np.linspace(-50, 50, 2001)
        for x in xs:
            assert abs(sigmoid(float(x)) + sigmoid(float(-x)) - 1.0) <= 1e-12
        assert (np.abs(sigmoid(xs) + sigmoid(-xs) - 1.0) <= 1e-12).all()


class TestLogSigmoid:
    def test_at_zero(self):
        assert log_sigmoid(0.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_negative_asymptote(self):
        assert log_sigmoid(-50.0) == pytest.approx(-50.0, abs=1e-9)

    def test_reference_value(self):
        assert log_sigmoid(2.0) == pytest.approx(-0.1269280110429725, abs=1e-12)
        values = log_sigmoid(np.array([2.0, 0.0, -50.0]))
        assert values[0] == pytest.approx(-0.1269280110429725, abs=1e-12)
        assert values[1] == pytest.approx(-math.log(2.0), abs=1e-15)
        assert values[2] == pytest.approx(-50.0, abs=1e-9)

    def test_never_positive_and_no_overflow(self):
        for x in (-750.0, -100.0, 0.0, 100.0, 750.0):
            assert log_sigmoid(x) <= 0.0

    def test_consistent_with_sigmoid(self):
        # exp(log_sigmoid) == sigmoid within 1e-10 relative for |x| <= 30
        xs = np.linspace(-30, 30, 601)
        for x in xs:
            x = float(x)
            assert math.exp(log_sigmoid(x)) == pytest.approx(sigmoid(x), rel=1e-10)
        assert np.exp(log_sigmoid(xs)) == pytest.approx(sigmoid(xs), rel=1e-10)

    def test_monotone_increasing(self):
        xs = np.linspace(-40, 40, 801)
        values = [log_sigmoid(float(x)) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert (np.diff(log_sigmoid(xs)) > 0).all()

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            log_sigmoid(x)


class TestPowViaExp:
    def test_zero_exponent_is_exact_one(self):
        assert _pow(0.5, 0.0) == 1.0
        assert _pow(1e-9, 0.0) == 1.0

    def test_unit_exponent(self):
        assert _pow(0.5, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_reference_value(self):
        # high-precision evaluation: 0.5 ** 0.05
        assert _pow(0.5, 0.05) == pytest.approx(0.9659363289248456, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_rejects_out_of_range_base(self, p):
        with pytest.raises(ValueError):
            _open_unit("base", p)

    @pytest.mark.parametrize("g", [0.05, 1.0, 2.5, -0.05, -1.0])
    def test_monotone_in_base(self, g):
        ps = np.linspace(0.01, 0.99, 99)
        values = [_pow(float(p), g) for p in ps]
        diffs = [b - a for a, b in zip(values, values[1:])]
        if g > 0:
            assert all(d > 0 for d in diffs)
        else:
            assert all(d < 0 for d in diffs)

    def test_negative_power_finite_near_endpoint(self):
        # the clamp keeps (1-p)**(-gamma) finite at saturated probabilities
        assert math.isfinite(_pow(1.0 - 1e-12, -1.0))


class TestClamp:
    def test_interior_untouched(self):
        assert clamp_probability(0.3) == 0.3

    def test_endpoints(self):
        assert clamp_probability(0.0) == PROB_EPS
        assert clamp_probability(1.0) == 1.0 - PROB_EPS


class TestElementwise:
    def test_scalar_in_scalar_out(self):
        values = (*logistic(0.3), _pow(0.3, 0.5), clamp_probability(0.3))
        for value in values:
            assert np.ndim(value) == 0
            assert isinstance(value, float)

    def test_shape_preserved(self):
        xs = np.linspace(-3, 3, 12).reshape(3, 4)
        for value in logistic(xs):
            assert value.shape == (3, 4)
        assert _pow(sigmoid(xs), 0.5).shape == (3, 4)

    @pytest.mark.parametrize("fn", [sigmoid, log_sigmoid])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_one_non_finite_element_rejected(self, fn, bad, position):
        xs = np.linspace(-2.0, 2.0, 7)
        xs[position] = bad
        with pytest.raises(ValueError, match=repr(bad)):
            fn(xs)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, math.nan])
    @pytest.mark.parametrize("position", [0, 4])
    def test_one_out_of_range_base_rejected(self, bad, position):
        ps = np.linspace(0.1, 0.9, 5)
        ps[position] = bad
        with pytest.raises(ValueError, match="open interval"):
            _open_unit("base", ps)
