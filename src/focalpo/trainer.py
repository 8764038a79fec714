"""Deterministic mini-batch preference-optimization loop.

Each step assembles the parameter gradient from closed-form pieces: the
gradient weights of the configured loss (one array call per batch), times
beta, times the analytic gradient of the chosen/rejected log-probability
difference. The dataset is encoded once (see data.encode_pairs), both
sides of every pair in one array, so one gather scores both and the
frozen reference is scored once per dataset; every step, snapshot and
evaluation reads its log-probabilities and subgroup labels from that
encoding. Each evaluated policy state is scored once (see evaluate), and
its step record, metrics and orderings all read those margins. The
reference table is never modified; all randomness comes from the shuffle
seed, so identical configurations reproduce identical reports. beta is a
TrainConfig field, since margins are formed here; this module writes no files.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import Dataset, EncodedPairs, encode_pairs
from .losses import LossConfig, LossVariant, gradient_weight, pair_loss
from .policy import PolicyTable, _check_same_shape, log_prob_grad, log_probs, log_softmax

OPTIMIZERS = ("sgd", "adam")
# Whether the frozen reference ranks a pair correctly at initialization.
CORRECT, INCORRECT = "correct_at_init", "incorrect_at_init"

__all__ = [
    "OPTIMIZERS",
    "TrainConfig",
    "OptimizerState",
    "StepRecord",
    "TrainReport",
    "Evaluation",
    "init_optimizer_state",
    "assemble_gradient",
    "train_step",
    "train",
    "evaluate",
    "PROFILE_LOSSES",
]

# The comparison trio of every weight profile: dpo, focal(0.05), focus-incorrect(1).
PROFILE_LOSSES = (
    LossConfig(LossVariant.DPO),
    LossConfig(LossVariant.FOCAL, gamma=0.05),
    LossConfig(LossVariant.FOCUS_INCORRECT, gamma=1.0),
)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    beta: float = 0.01  # implicit-reward temperature of the margins
    learning_rate: float = 3e-3
    batch_size: int = 128
    num_epochs: int = 1
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    shuffle_seed: int = 0
    eval_every: int = 10

    def __post_init__(self) -> None:
        if not isinstance(self.loss, LossConfig):
            raise ValueError("loss must be a LossConfig")
        _check_beta(self.beta)
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.num_epochs < 0:
            raise ValueError(f"num_epochs must be >= 0, got {self.num_epochs}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not 0.0 < self.adam_epsilon < math.inf:
            raise ValueError(f"adam_epsilon must be finite and > 0, got {self.adam_epsilon!r}")

    def echo(self) -> dict:
        """JSON-ready configuration record for reports and manifests: loss
        variant, beta and gamma first, then the other fields in order."""
        record = {"loss": self.loss.variant.value, "beta": self.beta, "gamma": self.loss.gamma}
        record.update((f.name, getattr(self, f.name)) for f in fields(self)[2:])
        return record


@dataclass
class OptimizerState:
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


@dataclass(frozen=True)
class StepRecord:
    """Full-dataset snapshot at one eval point; subgroup means are None when
    the subgroup is empty."""

    step: int
    mean_loss: float
    mean_abs_weight: float
    mean_weight_correct: float | None
    mean_weight_incorrect: float | None
    accuracy_overall: float
    accuracy_correct: float | None
    accuracy_incorrect: float | None


@dataclass
class TrainReport:
    config: dict
    steps: list[StepRecord]
    final: dict
    wall_clock_seconds: float

    def to_json_dict(self) -> dict:
        """Deterministic serializable form; wall-clock time is excluded so
        identical runs serialize byte-identically."""
        return {"config": self.config, "steps": list(map(asdict, self.steps)), "final": self.final}


def init_optimizer_state(config: TrainConfig, policy: PolicyTable) -> OptimizerState:
    if config.optimizer == "sgd":
        return OptimizerState()
    shape = policy.logits.shape
    return OptimizerState(0, np.zeros(shape), np.zeros(shape))


def _margins(log_table: np.ndarray, pairs: EncodedPairs, beta: float):
    """Per-pair margins, plus the policy's log-probabilities of the chosen
    and rejected rows, for the policy whose log_softmax is log_table."""
    chosen, rejected = log_probs(log_table, pairs.rows).T
    ref_chosen, ref_rejected = pairs.ref_log_probs.T
    margins = beta * (chosen - ref_chosen) - beta * (rejected - ref_rejected)
    return margins, chosen, rejected


def assemble_gradient(policy: PolicyTable, batch: EncodedPairs, config: TrainConfig) -> np.ndarray:
    """Mean-loss parameter gradient over a batch, as a new table-shaped array.

    G = -(1/B) * sum_i weight_i * beta * (grad log pi(chosen_i) - grad log pi(rejected_i))
    which equals d(mean pair_loss)/d(logits) by the chain rule.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    _check_same_shape(policy, batch.reference)
    log_table = log_softmax(policy.logits)
    margins, _, _ = _margins(log_table, batch, config.beta)
    finite = np.isfinite(margins)
    weights = gradient_weight(config.loss, np.where(finite, margins, 0.0))
    bad = ~(finite & np.isfinite(weights))
    if bad.any():
        i = int(np.argmax(bad))
        what = "gradient weight" if finite[i] else "margin"
        raise FloatingPointError(f"non-finite {what} for pair_id {batch.pair_ids[i]}")
    coeffs = -weights * config.beta * (1.0 / len(batch))
    # The (B, 2, L) rows flatten to every pair's chosen row and then its
    # rejected row, which take opposite signs, so the two add up next to
    # each other in a shared context.
    grad = log_prob_grad(log_table, batch.rows, np.stack((coeffs, -coeffs), 1))
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite entry in the assembled batch gradient")
    return grad


def _apply_update(
    policy: PolicyTable, grad: np.ndarray, config: TrainConfig, state: OptimizerState
) -> None:
    """Apply one optimizer step. The step is computed in place in grad,
    which is overwritten, so no table-sized array is allocated beyond one
    scratch table for adam."""
    lr = config.learning_rate
    if config.optimizer == "sgd":
        grad *= lr
        policy.logits -= grad
        return
    state.step_count += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    m, v = state.first_moment, state.second_moment
    scratch = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += scratch
    np.multiply(grad, 1.0 - b2, out=scratch)
    scratch *= grad
    v *= b2
    v += scratch
    np.divide(m, 1.0 - b1**state.step_count, out=grad)  # bias-corrected m
    np.divide(v, 1.0 - b2**state.step_count, out=scratch)  # bias-corrected v
    np.sqrt(scratch, out=scratch)
    scratch += config.adam_epsilon
    grad *= lr
    grad /= scratch
    policy.logits -= grad


def train_step(
    policy: PolicyTable,
    batch: EncodedPairs,
    config: TrainConfig,
    optimizer_state: OptimizerState,
) -> None:
    """One optimizer update on a batch, in place: the policy's logits and
    the optimizer state change; the reference is never touched."""
    _apply_update(policy, assemble_gradient(policy, batch, config), config, optimizer_state)


def _below(by_group: dict):
    """Whether the incorrect-at-init value is below the correct-at-init
    one; None when either is missing."""
    incorrect = by_group[INCORRECT]
    correct = by_group[CORRECT]
    return None if incorrect is None or correct is None else incorrect < correct


@dataclass(frozen=True)
class Evaluation:
    """One policy state scored on an encoded dataset. The margins are
    computed once (see evaluate); the step record, the metrics and the
    orderings of that state all read them. The subgroups come from the
    dataset's correct_at_init mask."""

    pairs: EncodedPairs
    margins: np.ndarray
    policy_correct: np.ndarray  # the policy's own log-likelihood ranking

    def groups(self) -> dict[str, np.ndarray]:
        """Maps each subgroup name to the mask of its pairs."""
        correct = self.pairs.correct_at_init
        return {CORRECT: correct, INCORRECT: ~correct}

    def by_group(self, values: np.ndarray) -> dict:
        """Maps each subgroup name to the mean of values over its pairs,
        None when it has none."""
        means = {}
        for name, mask in self.groups().items():
            count = int(mask.sum())
            means[name] = float(values[mask].sum() / count) if count else None
        return means

    def record(self, step: int, loss: LossConfig) -> StepRecord:
        """Full-dataset snapshot under the loss's variant and gamma."""
        out = pair_loss(loss, self.margins)
        positive = self.margins > 0.0
        weights = self.by_group(out.weight)
        accuracies = self.by_group(positive)
        return StepRecord(
            step=step,
            mean_loss=float(out.loss.mean()),
            mean_abs_weight=float(np.abs(out.weight).mean()),
            mean_weight_correct=weights[CORRECT],
            mean_weight_incorrect=weights[INCORRECT],
            accuracy_overall=float(positive.mean()),
            accuracy_correct=accuracies[CORRECT],
            accuracy_incorrect=accuracies[INCORRECT],
        )

    def metrics(self) -> dict:
        """Ranking accuracy (margin > 0, strict), flip rates, and subgroup margins.

        Flip rates compare the policy's own log-likelihood ranking of each
        pair against the at-init subgroup label, so a policy equal to the
        reference has flip rates of exactly zero. Empty-subgroup entries are
        None.
        """
        positive = self.margins > 0.0
        return {
            "num_pairs": len(self.pairs),
            "subgroup_counts": {name: int(mask.sum()) for name, mask in self.groups().items()},
            "overall_accuracy": float(positive.mean()),
            "accuracy_by_subgroup": self.by_group(positive),
            "mean_margin_by_subgroup": self.by_group(self.margins),
            "flip_incorrect_to_correct": self.by_group(self.policy_correct)[INCORRECT],
            "flip_correct_to_incorrect": self.by_group(~self.policy_correct)[CORRECT],
        }

    def orderings(self) -> dict:
        """The orderings that the focal down-weighting mechanism predicts:
        whether the incorrect-at-init subgroup sits at the lower mean margin
        and at the lower focal-to-dpo weight ratio, with the subgroup weight
        profile of the PROFILE_LOSSES trio the ratios come from. Empty subgroups
        are absent from the profile; an ordering is None when a subgroup is
        empty."""
        profile, mean_weights = {}, {}
        for config in PROFILE_LOSSES:
            weights = gradient_weight(config, self.margins)
            means = mean_weights[config.variant] = self.by_group(weights)
            abs_means = self.by_group(np.abs(weights))
            profile[config.variant.value] = {
                name: {
                    "gamma": config.gamma,
                    "count": int(mask.sum()),
                    "mean_weight": means[name],
                    "mean_abs_weight": abs_means[name],
                }
                for name, mask in self.groups().items()
                if mask.any()
            }
        focal, dpo = mean_weights[LossVariant.FOCAL], mean_weights[LossVariant.DPO]
        ratios = {
            name: None if dpo[name] in (None, 0.0) else focal[name] / dpo[name] for name in dpo
        }
        return {
            "margin_ordering_incorrect_below_correct": _below(self.by_group(self.margins)),
            "weight_profile": profile,
            "focal_to_dpo_weight_ratio": ratios,
            "ratio_ordering_incorrect_below_correct": _below(ratios),
        }


def evaluate(policy: PolicyTable, pairs: EncodedPairs, beta: float) -> Evaluation:
    """Score the policy on the dataset: its margins at this beta and its own
    chosen-over-rejected ranking, from one log-softmax of its table. No
    parameter updates happen here."""
    _check_beta(beta)
    _check_same_shape(policy, pairs.reference)
    margins, chosen, rejected = _margins(log_softmax(policy.logits), pairs, beta)
    return Evaluation(pairs, margins, chosen > rejected)


def train(
    config: TrainConfig,
    dataset: Dataset,
    policy: PolicyTable,
    reference: PolicyTable,
) -> TrainReport:
    """Shuffled mini-batch training; deterministic given config seeds.

    Records a full-dataset StepRecord at step 0, every eval_every steps, and
    at the final step. The final block carries the metrics of the trained
    state plus its subgroup weight profile and ordering flags, read from
    the same evaluation as the last StepRecord.
    """
    _check_same_shape(policy, reference)
    start = time.perf_counter()
    pairs = encode_pairs(reference, dataset)
    optimizer_state = init_optimizer_state(config, policy)
    records: list[StepRecord] = []
    step = 0

    def snapshot() -> Evaluation:
        evaluation = evaluate(policy, pairs, config.beta)
        records.append(evaluation.record(step, config.loss))
        return evaluation

    latest = snapshot()
    rng = np.random.default_rng(config.shuffle_seed)
    for _ in range(config.num_epochs):
        order = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), config.batch_size):
            batch = pairs.take(order[lo : lo + config.batch_size])
            train_step(policy, batch, config, optimizer_state)
            step += 1
            if step % config.eval_every == 0:
                latest = snapshot()
    if records[-1].step != step:
        latest = snapshot()

    final = latest.metrics()
    final["initial_mean_loss"] = records[0].mean_loss
    final["final_mean_loss"] = records[-1].mean_loss
    final.update(latest.orderings())
    return TrainReport(
        config=config.echo(),
        steps=records,
        final=final,
        wall_clock_seconds=time.perf_counter() - start,
    )

