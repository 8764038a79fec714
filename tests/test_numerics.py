"""log p of logistic, by frozen oracle values and stability properties, for
scalar arguments and for whole arrays. These ids still carry the module name
of the deleted numerics.py; the rest of its primitive tests are in
test_losses.py, and this class follows them in a change of its own."""

import math

import numpy as np
import pytest

from _oracles import log_preference_probability, preference_probability


class TestLogSigmoid:
    def test_at_zero(self):
        assert log_preference_probability(0.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_negative_asymptote(self):
        assert log_preference_probability(-50.0) == pytest.approx(-50.0, abs=1e-9)

    def test_reference_value(self):
        assert log_preference_probability(2.0) == pytest.approx(-0.1269280110429725, abs=1e-12)
        values = log_preference_probability(np.array([2.0, 0.0, -50.0]))
        assert values[0] == pytest.approx(-0.1269280110429725, abs=1e-12)
        assert values[1] == pytest.approx(-math.log(2.0), abs=1e-15)
        assert values[2] == pytest.approx(-50.0, abs=1e-9)

    def test_never_positive_and_no_overflow(self):
        for x in (-750.0, -100.0, 0.0, 100.0, 750.0):
            assert log_preference_probability(x) <= 0.0

    def test_consistent_with_sigmoid(self):
        # exp(log_sigmoid) == sigmoid within 1e-10 relative for |x| <= 30
        xs = np.linspace(-30, 30, 601)
        for x in xs:
            x = float(x)
            assert math.exp(log_preference_probability(x)) == pytest.approx(
                preference_probability(x), rel=1e-10
            )
        assert np.exp(log_preference_probability(xs)) == pytest.approx(
            preference_probability(xs), rel=1e-10
        )

    def test_monotone_increasing(self):
        xs = np.linspace(-40, 40, 801)
        values = [log_preference_probability(float(x)) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert (np.diff(log_preference_probability(xs)) > 0).all()

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            log_preference_probability(x)
