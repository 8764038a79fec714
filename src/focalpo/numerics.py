"""Numerically stable elementwise primitives underlying every loss computation.

Each function takes a float or a float64 array and works element by
element: a scalar argument gives a scalar, an array gives an array of the
same shape, and one bad element anywhere raises ValueError. Probabilities
are clamped into [PROB_EPS, 1 - PROB_EPS] before any log or negative-power
operation, which keeps the exact focal factor (1-p)**(-gamma) finite even
at saturated margins where a naive implementation produces NaN gradients.
"""

import numpy as np

PROB_EPS = 1e-12

__all__ = ["PROB_EPS", "clamp_probability", "sigmoid", "log_sigmoid", "pow_via_exp"]


def _checked(x, ok, message: str) -> np.ndarray:
    """x as a float64 array; raises ValueError naming the first element
    where ok(x) is False."""
    x = np.asarray(x, dtype=np.float64)
    good = ok(x)
    if not good.all():
        raise ValueError(f"{message}, got {float(x[~good][0])!r}")
    return x


def _finite(name: str, x) -> np.ndarray:
    return _checked(x, np.isfinite, f"{name} must be finite")


def clamp_probability(p):
    """Clamp a probability into [PROB_EPS, 1 - PROB_EPS]."""
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), clamped into the open unit interval.

    Branches on the sign of x so the exponential argument is never positive;
    large |x| therefore cannot overflow.
    """
    x = _finite("sigmoid argument", x)
    e = np.exp(-np.abs(x))
    return clamp_probability(np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)))[()]


def log_sigmoid(x):
    """log(sigmoid(x)) computed as -softplus(-x).

    Accurate for |x| up to at least 700: no intermediate overflow, and the
    log1p form avoids the cancellation of log(1 - small) near saturation.
    Always <= 0.
    """
    x = _finite("log_sigmoid argument", x)
    tail = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0.0, -tail, x - tail)[()]


def pow_via_exp(p, g):
    """p**g for p in (0, 1), computed as exp(g * log(p)).

    Exactly 1.0 when g == 0. The base is clamped before the log, so callers
    may pass probabilities arbitrarily close to the endpoints, but values at
    or beyond 0 and 1 are rejected.
    """
    g = _finite("exponent", g)
    p = _checked(p, lambda p: (0.0 < p) & (p < 1.0), "base must lie in the open interval (0, 1)")
    # The clamped log is finite, so g == 0 gives exp(0) == 1.0 exactly.
    return np.exp(g * np.log(clamp_probability(p)))[()]
