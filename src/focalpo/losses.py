"""The loss zoo: per-pair loss values, modulating factors, gradient weights.

Every function here is a pure, elementwise function of the implicit-reward
margin Delta = r_chosen - r_rejected: it takes one margin as a float or a
batch of margins as a float64 array. With p = sigmoid(Delta) the variants are

    dpo              L = -log p
    focal            L = p**g * (-log p)         down-weights misranked pairs
    focal-exact      L = (1-p)**(-g) * (-log p)  same intent, exact focal form
    focus-incorrect  L = (1-p)**g * (-log p)     up-weights misranked pairs

Each variant's factor is one branch of _factor in p and s = 1 - p, shared by
the loss and its gradient weight, which take s as sigmoid(-Delta): accurate
where 1 - p would cancel. The gradient weight w(Delta) = -dL/dDelta is the
scalar that multiplies the gradient of the chosen/rejected log-probability
difference during descent.
beta never enters here: the trainer owns it, forms the beta-scaled margins
and applies the policy-gradient term.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import _open_unit, log_sigmoid, pow_via_exp, sigmoid

GAMMA_MAX = 5.0

# Focusing-parameter window the focal variant was tuned in, both ends
# included; values outside it are accepted but flagged by the CLI.
TUNED_GAMMA_RANGE = (0.05, 0.07)

__all__ = [
    "GAMMA_MAX",
    "TUNED_GAMMA_RANGE",
    "LossVariant",
    "LossConfig",
    "LossOutput",
    "modulating_factor",
    "pair_loss",
    "gradient_weight",
]


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


def modulating_factor(config: LossConfig, p):
    """The factor applied to the base loss -log p, at exact probabilities p
    in the open interval (0, 1): here 1 - p is formed by subtraction."""
    p = _open_unit("p", p)
    return _factor(config, p, 1.0 - p)


def pair_loss(config: LossConfig, margin) -> LossOutput:
    """Loss and gradient weight of each pair at the given margins.

    The base term -log p goes through log_sigmoid and the factor through
    pow_via_exp; sigmoid(margin) is never logged directly.
    """
    p, s, log_p = sigmoid(margin), sigmoid(-margin), log_sigmoid(margin)
    factor = _factor(config, p, s)
    return LossOutput(loss=factor * -log_p, weight=_weight(config, factor, p, s, log_p))


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
    p, s, log_p = sigmoid(margin), sigmoid(-margin), log_sigmoid(margin)
    return _weight(config, _factor(config, p, s), p, s, log_p)


def _factor(config: LossConfig, p, s):
    """The variant's modulating factor at probabilities p, given s = 1 - p."""
    g = config.gamma
    variant = config.variant
    if variant is LossVariant.DPO:
        return np.full(np.shape(p), 1.0)[()]
    if variant is LossVariant.FOCAL:
        return pow_via_exp(p, g)
    if variant is LossVariant.FOCAL_EXACT:
        return pow_via_exp(s, -g)
    return pow_via_exp(s, g)  # focus-incorrect


def _weight(config: LossConfig, factor, p, s, log_p):
    g = config.gamma
    variant = config.variant
    if variant is LossVariant.DPO:
        return s
    if variant is LossVariant.FOCAL:
        return s * factor * (1.0 + g * log_p)
    if variant is LossVariant.FOCAL_EXACT:
        return factor * (s + g * p * log_p)
    return factor * (s - g * p * log_p)  # focus-incorrect
