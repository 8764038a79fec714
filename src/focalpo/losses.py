"""The loss zoo: per-pair loss values, modulating factors, gradient weights.

Every function here is a pure, elementwise function of the implicit-reward
margin Delta = r_chosen - r_rejected: it takes one margin as a float or a
batch of margins as a float64 array. With p = sigmoid(Delta) the variants are

    dpo              L = -log p
    focal            L = p**g * (-log p)         down-weights misranked pairs
    focal-exact      L = (1-p)**(-g) * (-log p)  same intent, exact focal form
    focus-incorrect  L = (1-p)**g * (-log p)     up-weights misranked pairs

so each variant's factor is one probability, p or s = 1 - p, raised to one
exponent, g, -g or 0: one entry of _POWERS. p, s and log p all come from
one logistic pass over the margins, which takes s as sigmoid(-Delta):
accurate where 1 - p would cancel. The gradient weight w(Delta) =
-dL/dDelta is the scalar that multiplies the gradient of the
chosen/rejected log-probability difference during descent.
beta never enters here: the trainer owns it, forms the beta-scaled margins
and applies the policy-gradient term.

logistic, the one stable primitive under every variant, works element by
element: scalars give scalars, arrays give arrays of their shape, and one
non-finite element anywhere raises ValueError. It clamps p and s into
[PROB_EPS, 1 - PROB_EPS], so every power of them, the exact focal factor
(1-p)**(-gamma) included, stays finite at saturated margins, where a naive
implementation produces NaN gradients.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

PROB_EPS = 1e-12
GAMMA_MAX = 5.0

# Focusing-parameter window the focal variant was tuned in, both ends
# included; values outside it are accepted but flagged by the CLI.
TUNED_GAMMA_RANGE = (0.05, 0.07)

__all__ = [
    "PROB_EPS",
    "GAMMA_MAX",
    "TUNED_GAMMA_RANGE",
    "LossVariant",
    "LossConfig",
    "LossOutput",
    "clamp_probability",
    "logistic",
    "modulating_factor",
    "pair_loss",
    "gradient_weight",
]


def _checked(x, ok, message: str) -> np.ndarray:
    """x as a float64 array; raises ValueError naming the first element
    where ok(x) is False."""
    x = np.asarray(x, dtype=np.float64)
    good = ok(x)
    if not good.all():
        raise ValueError(f"{message}, got {float(x[~good][0])!r}")
    return x


def _open_unit(name: str, x) -> np.ndarray:
    message = f"{name} must lie in the open interval (0, 1)"
    return _checked(x, lambda x: (0.0 < x) & (x < 1.0), message)


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


class LossVariant(Enum):
    """Which modulating factor scales the base cross-entropy loss."""

    DPO = "dpo"
    FOCAL = "focal"
    FOCAL_EXACT = "focal-exact"
    FOCUS_INCORRECT = "focus-incorrect"


@dataclass(frozen=True)
class LossConfig:
    """Loss variant plus its focusing exponent gamma, ignored by dpo."""

    variant: LossVariant
    gamma: float = 0.05

    def __post_init__(self) -> None:
        if not isinstance(self.variant, LossVariant):
            raise ValueError(f"variant must be a LossVariant, got {self.variant!r}")
        if not 0.0 <= self.gamma <= GAMMA_MAX:
            raise ValueError(f"gamma must lie in [0, {GAMMA_MAX}], got {self.gamma!r}")
        if self.variant is not LossVariant.DPO and self.gamma == 0.0:
            raise ValueError(f"gamma must be > 0 for {self.variant.value}")


@dataclass(frozen=True)
class LossOutput:
    """Per-pair loss and gradient weight at the given margins: floats for a
    float margin, arrays of the margins' shape for an array."""

    loss: float | np.ndarray
    weight: float | np.ndarray


# Each variant's factor as base**(sign * gamma): whether its base is p
# (else s = 1 - p), and the sign of its exponent.
_POWERS = {
    LossVariant.DPO: (False, 0.0),
    LossVariant.FOCAL: (True, 1.0),
    LossVariant.FOCAL_EXACT: (False, -1.0),
    LossVariant.FOCUS_INCORRECT: (False, 1.0),
}


def modulating_factor(config: LossConfig, p):
    """The factor applied to the base loss -log p, at exact probabilities p
    in the open interval (0, 1): here 1 - p is formed by subtraction, and
    the base is clamped like logistic's."""
    p = _open_unit("p", p)
    on_p, sign = _POWERS[config.variant]
    return _pow(clamp_probability(p if on_p else 1.0 - p), sign * config.gamma)


def pair_loss(config: LossConfig, margin) -> LossOutput:
    """Loss and gradient weight of each pair at the given margins.

    The base term -log p is logistic's log_p; sigmoid(margin) is never
    logged directly. A loss or weight too large for a float, at margins of
    order -1e308, is left as +-inf, without a warning, for the caller to
    check.
    """
    p, s, log_p = logistic(margin)
    on_p, sign = _POWERS[config.variant]
    k = sign * config.gamma
    factor = _pow(p if on_p else s, k)
    with np.errstate(over="ignore"):
        loss = factor * -log_p
        weight = s * factor * (1.0 + k * log_p) if on_p else factor * (s - k * p * log_p)
    return LossOutput(loss=loss, weight=weight)


def gradient_weight(config: LossConfig, margin):
    """w(Delta) = -d(pair_loss)/dDelta; positive values push the margin up.

    Closed forms, with p = sigmoid(Delta), s = sigmoid(-Delta), g = gamma:

        dpo              s
        focal            s * p**g * (1 + g*log p)
        focal-exact      s**(-g) * (s + g*p*log p)
        focus-incorrect  s**g  * (s - g*p*log p)

    Each is the derivative of the corresponding factored loss; all four are
    certified against finite differences of pair_loss in the test suite.
    """
    return pair_loss(config, margin).weight


def _pow(base, k):
    """base**k as exp(k * log base), for a base already clamped into
    [PROB_EPS, 1 - PROB_EPS]: its log is finite, so k == 0 gives exactly 1.0."""
    return np.exp(k * np.log(base))[()]
