"""Deterministic mini-batch preference-optimization loop.

Each step assembles the parameter gradient from closed-form pieces: the
scalar gradient weight of the configured loss, times beta, times the
analytic gradient of the chosen/rejected log-probability difference. The
dataset is encoded once (see data.encode_pairs), so the frozen reference is
scored once per dataset and every step, snapshot and evaluation reads its
log-probabilities and subgroup labels from that encoding. The reference
table is never modified; all randomness comes from the shuffle seed, so
identical configurations reproduce identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import EncodedPairs, PreferencePair, Subgroup, encode_pairs
from .losses import LossConfig, LossVariant, gradient_weight, pair_loss
from .policy import PolicyTable, _check_same_shape, log_prob_grad, log_probs, log_softmax

OPTIMIZERS = ("sgd", "adam")

__all__ = [
    "OPTIMIZERS",
    "TrainConfig",
    "OptimizerState",
    "PairDiagnostics",
    "StepRecord",
    "TrainReport",
    "ProfileRow",
    "init_optimizer_state",
    "assemble_gradient",
    "train_step",
    "train",
    "evaluate",
    "subgroup_weight_profile",
    "standard_profile_variants",
    "profile_as_dict",
    "ordering_summary",
    "write_report_csv",
    "write_report_json",
]


@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
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
        """JSON-ready configuration record for reports and manifests."""
        return {
            "loss": self.loss.variant.value,
            "beta": self.loss.beta,
            "gamma": self.loss.gamma,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "num_epochs": self.num_epochs,
            "optimizer": self.optimizer,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_epsilon": self.adam_epsilon,
            "shuffle_seed": self.shuffle_seed,
            "eval_every": self.eval_every,
        }


@dataclass
class OptimizerState:
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None


@dataclass(frozen=True)
class PairDiagnostics:
    pair_id: int
    margin: float
    probability: float
    loss: float
    weight: float
    subgroup: Subgroup


@dataclass(frozen=True)
class StepRecord:
    """Full-dataset snapshot at one eval point; subgroup means are NaN when
    the subgroup is empty."""

    step: int
    mean_loss: float
    mean_abs_weight: float
    mean_weight_correct: float
    mean_weight_incorrect: float
    accuracy_overall: float
    accuracy_correct: float
    accuracy_incorrect: float


@dataclass
class TrainReport:
    config: dict
    steps: list[StepRecord]
    final: dict
    wall_clock_seconds: float

    def to_json_dict(self) -> dict:
        """Deterministic serializable form; wall-clock time is excluded so
        identical runs serialize byte-identically."""
        return {
            "config": self.config,
            "steps": [_none_for_nan(asdict(rec)) for rec in self.steps],
            "final": self.final,
        }


@dataclass(frozen=True)
class ProfileRow:
    variant: str
    gamma: float
    subgroup: Subgroup
    count: int
    mean_weight: float
    mean_abs_weight: float


def _none_for_nan(record: dict) -> dict:
    return {
        k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in record.items()
    }


def init_optimizer_state(config: TrainConfig, policy: PolicyTable) -> OptimizerState:
    if config.optimizer == "sgd":
        return OptimizerState()
    shape = policy.logits.shape
    return OptimizerState(0, np.zeros(shape), np.zeros(shape))


def _margins(log_table: np.ndarray, pairs: EncodedPairs, beta: float):
    """Per-pair margins, plus the policy's log-probabilities of the chosen
    and rejected rows, for the policy whose log_softmax is log_table."""
    chosen = log_probs(log_table, pairs.chosen)
    rejected = log_probs(log_table, pairs.rejected)
    margins = beta * (chosen - pairs.ref_chosen) - beta * (rejected - pairs.ref_rejected)
    return margins, chosen, rejected


def assemble_gradient(
    policy: PolicyTable,
    batch: EncodedPairs,
    loss_config: LossConfig,
) -> tuple[np.ndarray, list[PairDiagnostics]]:
    """Mean-loss parameter gradient over a batch, plus per-pair diagnostics.

    G = -(1/B) * sum_i weight_i * beta * (grad log pi(chosen_i) - grad log pi(rejected_i))
    which equals d(mean pair_loss)/d(logits) by the chain rule.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    _check_same_shape(policy, batch.reference)
    log_table = log_softmax(policy.logits)
    margins, _, _ = _margins(log_table, batch, loss_config.beta)
    diagnostics = []
    for pair_id, margin, subgroup in zip(
        batch.pair_ids.tolist(), margins.tolist(), batch.subgroups()
    ):
        if not math.isfinite(margin):
            raise FloatingPointError(f"non-finite margin for pair_id {pair_id}")
        out = pair_loss(loss_config, margin)
        if not math.isfinite(out.weight):
            raise FloatingPointError(f"non-finite gradient weight for pair_id {pair_id}")
        diagnostics.append(
            PairDiagnostics(
                pair_id=pair_id,
                margin=margin,
                probability=out.probability,
                loss=out.loss,
                weight=out.weight,
                subgroup=subgroup,
            )
        )
    weights = np.array([diag.weight for diag in diagnostics])
    coeffs = -weights * loss_config.beta * (1.0 / len(batch))
    grad = log_prob_grad(log_table, batch.chosen, coeffs) + log_prob_grad(
        log_table, batch.rejected, -coeffs
    )
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite entry in the assembled batch gradient")
    return grad, diagnostics


def _apply_update(
    policy: PolicyTable, grad: np.ndarray, config: TrainConfig, state: OptimizerState
) -> None:
    lr = config.learning_rate
    if config.optimizer == "sgd":
        policy.logits -= lr * grad
        return
    state.step_count += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    state.first_moment *= b1
    state.first_moment += (1.0 - b1) * grad
    state.second_moment *= b2
    state.second_moment += (1.0 - b2) * grad * grad
    m_hat = state.first_moment / (1.0 - b1**state.step_count)
    v_hat = state.second_moment / (1.0 - b2**state.step_count)
    policy.logits -= lr * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)


def train_step(
    policy: PolicyTable,
    batch: EncodedPairs,
    config: TrainConfig,
    optimizer_state: OptimizerState,
) -> tuple[PolicyTable, OptimizerState, list[PairDiagnostics]]:
    """One optimizer update on a batch; the reference is never touched."""
    grad, diagnostics = assemble_gradient(policy, batch, config.loss)
    _apply_update(policy, grad, config, optimizer_state)
    return policy, optimizer_state, diagnostics


def _snapshot(
    step: int,
    policy: PolicyTable,
    pairs: EncodedPairs,
    loss_config: LossConfig,
) -> StepRecord:
    margins, _, _ = _margins(log_softmax(policy.logits), pairs, loss_config.beta)
    margins = margins.tolist()
    losses, abs_weights = [], []
    by_group = {Subgroup.CORRECT_AT_INIT: [], Subgroup.INCORRECT_AT_INIT: []}
    for margin, subgroup in zip(margins, pairs.subgroups()):
        out = pair_loss(loss_config, margin)
        losses.append(out.loss)
        abs_weights.append(abs(out.weight))
        by_group[subgroup].append((out.weight, margin))

    def group_mean_weight(group):
        rows = by_group[group]
        return sum(w for w, _ in rows) / len(rows) if rows else math.nan

    def group_accuracy(group):
        rows = by_group[group]
        return sum(1 for _, m in rows if m > 0.0) / len(rows) if rows else math.nan

    return StepRecord(
        step=step,
        mean_loss=sum(losses) / len(losses),
        mean_abs_weight=sum(abs_weights) / len(abs_weights),
        mean_weight_correct=group_mean_weight(Subgroup.CORRECT_AT_INIT),
        mean_weight_incorrect=group_mean_weight(Subgroup.INCORRECT_AT_INIT),
        accuracy_overall=sum(1 for m in margins if m > 0.0) / len(margins),
        accuracy_correct=group_accuracy(Subgroup.CORRECT_AT_INIT),
        accuracy_incorrect=group_accuracy(Subgroup.INCORRECT_AT_INIT),
    )


def evaluate(policy: PolicyTable, pairs: EncodedPairs, beta: float) -> dict:
    """Ranking accuracy (margin > 0, strict), flip rates, and subgroup margins.

    Flip rates compare the policy's own log-likelihood ranking of each pair
    against the at-init subgroup label, so a policy equal to the reference
    has flip rates of exactly zero. Empty-subgroup entries are None.
    """
    _check_same_shape(policy, pairs.reference)
    margins, chosen, rejected = _margins(log_softmax(policy.logits), pairs, beta)
    margins = margins.tolist()
    groups = pairs.subgroups()
    policy_correct = (chosen > rejected).tolist()

    def subgroup_indices(group):
        return [i for i, g in enumerate(groups) if g is group]

    correct_idx = subgroup_indices(Subgroup.CORRECT_AT_INIT)
    incorrect_idx = subgroup_indices(Subgroup.INCORRECT_AT_INIT)

    def accuracy(indices):
        return sum(1 for i in indices if margins[i] > 0.0) / len(indices) if indices else None

    def mean_margin(indices):
        return sum(margins[i] for i in indices) / len(indices) if indices else None

    flip_to_correct = (
        sum(1 for i in incorrect_idx if policy_correct[i]) / len(incorrect_idx)
        if incorrect_idx
        else None
    )
    flip_to_incorrect = (
        sum(1 for i in correct_idx if not policy_correct[i]) / len(correct_idx)
        if correct_idx
        else None
    )
    return {
        "num_pairs": len(pairs),
        "subgroup_counts": {
            Subgroup.CORRECT_AT_INIT.value: len(correct_idx),
            Subgroup.INCORRECT_AT_INIT.value: len(incorrect_idx),
        },
        "overall_accuracy": sum(1 for m in margins if m > 0.0) / len(margins),
        "accuracy_by_subgroup": {
            Subgroup.CORRECT_AT_INIT.value: accuracy(correct_idx),
            Subgroup.INCORRECT_AT_INIT.value: accuracy(incorrect_idx),
        },
        "mean_margin_by_subgroup": {
            Subgroup.CORRECT_AT_INIT.value: mean_margin(correct_idx),
            Subgroup.INCORRECT_AT_INIT.value: mean_margin(incorrect_idx),
        },
        "flip_incorrect_to_correct": flip_to_correct,
        "flip_correct_to_incorrect": flip_to_incorrect,
    }


def subgroup_weight_profile(
    policy: PolicyTable,
    pairs: EncodedPairs,
    variants: list[LossConfig],
) -> list[ProfileRow]:
    """Mean gradient weight per (variant, subgroup) at the frozen policy state.

    No parameter updates happen here. Empty subgroups are simply absent from
    the returned rows.
    """
    _check_same_shape(policy, pairs.reference)
    log_table = log_softmax(policy.logits)
    groups = pairs.subgroups()
    rows = []
    for variant_config in variants:
        margins = _margins(log_table, pairs, variant_config.beta)[0].tolist()
        weights = [gradient_weight(variant_config, m) for m in margins]
        for group in (Subgroup.CORRECT_AT_INIT, Subgroup.INCORRECT_AT_INIT):
            selected = [w for w, g in zip(weights, groups) if g is group]
            if not selected:
                continue
            rows.append(
                ProfileRow(
                    variant=variant_config.variant.value,
                    gamma=variant_config.gamma,
                    subgroup=group,
                    count=len(selected),
                    mean_weight=sum(selected) / len(selected),
                    mean_abs_weight=sum(abs(w) for w in selected) / len(selected),
                )
            )
    return rows


def standard_profile_variants(beta: float) -> list[LossConfig]:
    """The comparison trio reported everywhere: dpo, focal(0.05), focus-incorrect(1)."""
    return [
        LossConfig(LossVariant.DPO, beta=beta),
        LossConfig(LossVariant.FOCAL, beta=beta, gamma=0.05),
        LossConfig(LossVariant.FOCUS_INCORRECT, beta=beta, gamma=1.0),
    ]


def profile_as_dict(rows: list[ProfileRow]) -> dict:
    out: dict = {}
    for row in rows:
        variant_entry = out.setdefault(row.variant, {})
        variant_entry[row.subgroup.value] = {
            "gamma": row.gamma,
            "count": row.count,
            "mean_weight": row.mean_weight,
            "mean_abs_weight": row.mean_abs_weight,
        }
    return out


def ordering_summary(policy: PolicyTable, pairs: EncodedPairs, beta: float, metrics: dict) -> dict:
    """The orderings that the focal down-weighting mechanism predicts:
    whether the incorrect-at-init subgroup sits at the lower mean margin
    (read from `metrics`, evaluate()'s output for the same policy, pairs and
    beta) and at the lower focal-to-dpo weight ratio, with the subgroup
    weight profile of the standard trio the ratios come from. An ordering
    is None when a subgroup is empty."""
    margins = metrics["mean_margin_by_subgroup"]
    margin_ordering = None
    if margins[Subgroup.INCORRECT_AT_INIT.value] is not None and margins[Subgroup.CORRECT_AT_INIT.value] is not None:
        margin_ordering = (
            margins[Subgroup.INCORRECT_AT_INIT.value] < margins[Subgroup.CORRECT_AT_INIT.value]
        )
    rows = subgroup_weight_profile(policy, pairs, standard_profile_variants(beta))
    profile = profile_as_dict(rows)

    def mean_weight(variant, group):
        entry = profile.get(variant, {}).get(group.value)
        return None if entry is None else entry["mean_weight"]

    ratios = {}
    for group in (Subgroup.CORRECT_AT_INIT, Subgroup.INCORRECT_AT_INIT):
        focal = mean_weight(LossVariant.FOCAL.value, group)
        dpo = mean_weight(LossVariant.DPO.value, group)
        ratios[group.value] = None if focal is None or dpo is None or dpo == 0.0 else focal / dpo
    ratio_ordering = None
    if ratios[Subgroup.INCORRECT_AT_INIT.value] is not None and ratios[Subgroup.CORRECT_AT_INIT.value] is not None:
        ratio_ordering = (
            ratios[Subgroup.INCORRECT_AT_INIT.value] < ratios[Subgroup.CORRECT_AT_INIT.value]
        )
    return {
        "margin_ordering_incorrect_below_correct": margin_ordering,
        "weight_profile": profile,
        "focal_to_dpo_weight_ratio": ratios,
        "ratio_ordering_incorrect_below_correct": ratio_ordering,
    }


def train(
    config: TrainConfig,
    dataset: list[PreferencePair],
    policy: PolicyTable,
    reference: PolicyTable,
) -> TrainReport:
    """Shuffled mini-batch training; deterministic given config seeds.

    Records a full-dataset StepRecord at step 0, every eval_every steps, and
    at the final step. The final block carries evaluate() metrics plus the
    subgroup weight profile and ordering flags at the trained state.
    """
    _check_same_shape(policy, reference)
    start = time.perf_counter()
    pairs = encode_pairs(reference, dataset)
    optimizer_state = init_optimizer_state(config, policy)
    records = [_snapshot(0, policy, pairs, config.loss)]
    rng = np.random.default_rng(config.shuffle_seed)
    step = 0
    for _ in range(config.num_epochs):
        order = rng.permutation(len(pairs))
        for lo in range(0, len(pairs), config.batch_size):
            batch = pairs.take(order[lo : lo + config.batch_size])
            train_step(policy, batch, config, optimizer_state)
            step += 1
            if step % config.eval_every == 0:
                records.append(_snapshot(step, policy, pairs, config.loss))
    if step > 0 and records[-1].step != step:
        records.append(_snapshot(step, policy, pairs, config.loss))

    final = evaluate(policy, pairs, config.loss.beta)
    final["initial_mean_loss"] = records[0].mean_loss
    final["final_mean_loss"] = records[-1].mean_loss
    final.update(ordering_summary(policy, pairs, config.loss.beta, final))
    return TrainReport(
        config=config.echo(),
        steps=records,
        final=final,
        wall_clock_seconds=time.perf_counter() - start,
    )


_CSV_HEADER = (
    "step,mean_loss,mean_abs_weight,mean_weight_correct,mean_weight_incorrect,"
    "accuracy_overall,accuracy_correct,accuracy_incorrect"
)


def write_report_csv(path, report: TrainReport) -> None:
    """One row per eval point; 9 significant digits, '.' decimal separator,
    LF endings; empty-subgroup means render as 'nan'."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for rec in report.steps:
            fh.write(
                f"{rec.step},{rec.mean_loss:.9g},{rec.mean_abs_weight:.9g},"
                f"{rec.mean_weight_correct:.9g},{rec.mean_weight_incorrect:.9g},"
                f"{rec.accuracy_overall:.9g},{rec.accuracy_correct:.9g},"
                f"{rec.accuracy_incorrect:.9g}\n"
            )


def write_report_json(path, report: TrainReport) -> None:
    import json

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")
