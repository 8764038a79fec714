"""Preference-optimization laboratory for DPO and focal-weighted variants.

Implements per-pair losses and their analytic gradient weights, a tabular
autoregressive policy with exact log-probabilities and gradients, synthetic
Bradley-Terry preference data with label noise, a deterministic trainer with
per-subgroup diagnostics, and a CLI that emits the factor/weight curve data.
"""

__version__ = "0.1.0"

from .losses import LossConfig, LossOutput, LossVariant
from .policy import PolicyTable

__all__ = [
    "__version__",
    "LossConfig",
    "LossOutput",
    "LossVariant",
    "PolicyTable",
]
