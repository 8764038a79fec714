"""The one numerically stable primitive underlying every loss computation.

logistic takes a float or a float64 array and works element by element: a
scalar argument gives scalars, an array gives arrays of the same shape, and
one non-finite element anywhere raises ValueError. Its two probabilities
are clamped into [PROB_EPS, 1 - PROB_EPS], which keeps every power of them,
the exact focal factor (1-p)**(-gamma) included, finite even at saturated
margins where a naive implementation produces NaN gradients.
"""

import numpy as np

PROB_EPS = 1e-12

__all__ = ["PROB_EPS", "clamp_probability", "logistic"]


def _checked(x, ok, message: str) -> np.ndarray:
    """x as a float64 array; raises ValueError naming the first element
    where ok(x) is False."""
    x = np.asarray(x, dtype=np.float64)
    good = ok(x)
    if not good.all():
        raise ValueError(f"{message}, got {float(x[~good][0])!r}")
    return x


def _open_unit(name: str, x) -> np.ndarray:
    return _checked(
        x, lambda x: (0.0 < x) & (x < 1.0), f"{name} must lie in the open interval (0, 1)"
    )


def clamp_probability(p):
    """Clamp a probability into [PROB_EPS, 1 - PROB_EPS]."""
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)


def logistic(x):
    """(p, s, log_p): p = sigmoid(x) = 1 / (1 + exp(-x)) and s = sigmoid(-x),
    both clamped, and log_p = log sigmoid(x) = -softplus(-x), unclamped.

    All three come from one finiteness check and one e = exp(-|x|), whose
    argument is never positive, so large |x| cannot overflow. On the sign of
    x the pair (p, s) is (1/(1+e), e/(1+e)) or its mirror image, both 0.5 at
    x = 0, and the log1p form of log_p avoids the cancellation of
    log(1 - small) near saturation; log_p <= 0 always.
    """
    x = _checked(x, np.isfinite, "logistic argument must be finite")
    e = np.exp(-np.abs(x))
    tail = np.log1p(e)
    non_negative = x >= 0.0
    high, low = 1.0 / (1.0 + e), e / (1.0 + e)
    p = clamp_probability(np.where(non_negative, high, low))
    s = clamp_probability(np.where(non_negative, low, high))
    return p[()], s[()], np.where(non_negative, -tail, x - tail)[()]
