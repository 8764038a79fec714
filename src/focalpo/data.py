"""Synthetic Bradley-Terry preference datasets with controllable label noise.

Sequences are drawn from a sampler policy (by default the frozen reference
itself), scored by a bag-of-tokens true-reward model, and labeled either
deterministically (higher reward wins) or stochastically via the
Bradley-Terry probability sigmoid(reward gap). A noise rate then swaps a
random subset of labels, with the flip recorded per pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .files import atomic_write
from .numerics import sigmoid
from .policy import (
    PolicyTable,
    TokenRows,
    TokenSequence,
    _next_token_cdf,
    _sample_tokens,
    encode_sequences,
    log_probs,
    log_softmax,
)

LABELING_MODES = ("deterministic", "bradley_terry")
DISTINCT_DRAW_RETRIES = 100

_DATASET_FIELDS = (
    "pair_id",
    "prompt_class",
    "chosen",
    "rejected",
    "true_reward_chosen",
    "true_reward_rejected",
    "label_flipped",
)

__all__ = [
    "LABELING_MODES",
    "Subgroup",
    "DatasetFormatError",
    "PreferencePair",
    "TrueRewardModel",
    "SynthConfig",
    "random_reward_model",
    "true_reward",
    "synthesize_dataset",
    "EncodedPairs",
    "encode_pairs",
    "save_dataset",
    "load_dataset",
    "holdout_size",
    "split_holdout",
]


class Subgroup(Enum):
    """Whether the frozen reference ranks the pair correctly at initialization."""

    CORRECT_AT_INIT = "correct_at_init"
    INCORRECT_AT_INIT = "incorrect_at_init"


class DatasetFormatError(ValueError):
    """Malformed or out-of-range dataset content, tagged with the line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class PreferencePair:
    pair_id: int
    prompt_class: int
    chosen: TokenSequence
    rejected: TokenSequence
    true_reward_chosen: float
    true_reward_rejected: float
    label_flipped: bool

    def __post_init__(self) -> None:
        if self.pair_id < 0:
            raise ValueError(f"pair_id must be >= 0, got {self.pair_id}")
        if not (self.chosen.prompt_class == self.rejected.prompt_class == self.prompt_class):
            raise ValueError(f"pair {self.pair_id}: prompt_class mismatch across sequences")
        if len(self.chosen.tokens) != len(self.rejected.tokens):
            raise ValueError(f"pair {self.pair_id}: chosen/rejected lengths differ")
        if self.chosen.tokens == self.rejected.tokens:
            raise ValueError(f"pair {self.pair_id}: chosen and rejected are identical")


@dataclass(frozen=True)
class TrueRewardModel:
    """Bag-of-tokens linear reward: weights indexed by (prompt_class, token)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D (C, V), got shape {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValueError("reward weights must be finite")
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class SynthConfig:
    num_pairs: int
    num_prompt_classes: int = 4
    vocab_size: int = 8
    seq_length: int = 4
    labeling_mode: str = "deterministic"
    noise_rate: float = 0.0
    generator_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {self.num_pairs}")
        if self.num_prompt_classes < 1 or self.vocab_size < 2 or self.seq_length < 1:
            raise ValueError("need num_prompt_classes >= 1, vocab_size >= 2, seq_length >= 1")
        if self.labeling_mode not in LABELING_MODES:
            raise ValueError(
                f"labeling_mode must be one of {LABELING_MODES}, got {self.labeling_mode!r}"
            )
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must lie in [0, 1), got {self.noise_rate!r}")


def random_reward_model(num_prompt_classes: int, vocab_size: int, seed: int) -> TrueRewardModel:
    rng = np.random.default_rng(seed)
    return TrueRewardModel(rng.standard_normal((num_prompt_classes, vocab_size)))


def true_reward(model: TrueRewardModel, seq: TokenSequence) -> float:
    """Sum of per-token weights; invariant under token reordering."""
    num_classes, vocab = model.weights.shape
    if seq.prompt_class >= num_classes:
        raise ValueError(f"prompt_class {seq.prompt_class} out of range for reward model")
    total = 0.0
    for t in seq.tokens:
        if t >= vocab:
            raise ValueError(f"token {t} out of range for reward model vocab {vocab}")
        total += float(model.weights[seq.prompt_class, t])
    return total


def synthesize_dataset(
    config: SynthConfig, reward: TrueRewardModel, sampler: PolicyTable
) -> list[PreferencePair]:
    """Generate preference pairs; a pure function of (config, reward, sampler).

    Per pair: draw a prompt class uniformly, two distinct sequences from the
    sampler, label by true reward (deterministic mode) or by a Bernoulli
    draw with probability sigmoid(reward_a - reward_b) (bradley_terry mode),
    then swap the label with probability noise_rate, recording the flip.
    """
    if (sampler.num_prompt_classes, sampler.vocab_size) != (
        config.num_prompt_classes,
        config.vocab_size,
    ):
        raise ValueError(
            f"sampler shape ({sampler.num_prompt_classes}, {sampler.vocab_size}) does not "
            f"match config ({config.num_prompt_classes}, {config.vocab_size})"
        )
    if reward.weights.shape != (config.num_prompt_classes, config.vocab_size):
        raise ValueError(
            f"reward model shape {reward.weights.shape} does not match config "
            f"({config.num_prompt_classes}, {config.vocab_size})"
        )
    rng = np.random.default_rng(config.generator_seed)
    cdf = _next_token_cdf(sampler.logits)
    pairs = []
    for pair_id in range(config.num_pairs):
        prompt_class = int(rng.integers(config.num_prompt_classes))
        tokens_a = _sample_tokens(cdf[prompt_class], config.seq_length, rng)
        tokens_b = tokens_a
        for _ in range(DISTINCT_DRAW_RETRIES):
            tokens_b = _sample_tokens(cdf[prompt_class], config.seq_length, rng)
            if tokens_b != tokens_a:
                break
        else:
            raise RuntimeError(
                f"pair {pair_id}: failed to draw distinct sequences after "
                f"{DISTINCT_DRAW_RETRIES} retries (sampler too concentrated)"
            )
        seq_a = TokenSequence(prompt_class, tokens_a)
        seq_b = TokenSequence(prompt_class, tokens_b)
        reward_a = true_reward(reward, seq_a)
        reward_b = true_reward(reward, seq_b)
        if config.labeling_mode == "deterministic":
            a_chosen = reward_a >= reward_b
        else:
            a_chosen = rng.random() < sigmoid(reward_a - reward_b)
        if a_chosen:
            chosen, rejected, reward_c, reward_r = seq_a, seq_b, reward_a, reward_b
        else:
            chosen, rejected, reward_c, reward_r = seq_b, seq_a, reward_b, reward_a
        label_flipped = bool(config.noise_rate > 0.0 and rng.random() < config.noise_rate)
        if label_flipped:
            chosen, rejected, reward_c, reward_r = rejected, chosen, reward_r, reward_c
        pairs.append(
            PreferencePair(
                pair_id=pair_id,
                prompt_class=prompt_class,
                chosen=chosen,
                rejected=rejected,
                true_reward_chosen=reward_c,
                true_reward_rejected=reward_r,
                label_flipped=label_flipped,
            )
        )
    return pairs


@dataclass(frozen=True)
class EncodedPairs:
    """A preference dataset as arrays, scored once against the frozen
    reference: its log-probabilities of every chosen and rejected row, and
    the subgroup label that follows from them."""

    reference: PolicyTable
    pair_ids: np.ndarray
    chosen: TokenRows
    rejected: TokenRows
    ref_chosen: np.ndarray
    ref_rejected: np.ndarray
    correct_at_init: np.ndarray

    def __len__(self) -> int:
        return len(self.pair_ids)

    def take(self, idx) -> "EncodedPairs":
        """The pairs at the given indices, in that order."""
        return EncodedPairs(
            self.reference,
            self.pair_ids[idx],
            self.chosen.take(idx),
            self.rejected.take(idx),
            self.ref_chosen[idx],
            self.ref_rejected[idx],
            self.correct_at_init[idx],
        )


def encode_pairs(reference: PolicyTable, pairs: list[PreferencePair]) -> EncodedPairs:
    """Encode a non-empty, fixed-length dataset and score it against the
    reference. Subgroups follow the reference's raw log-likelihood ranking;
    ties count as incorrect (matching the strict margin rule used for
    accuracy)."""
    if not pairs:
        raise ValueError("dataset must be non-empty")
    chosen = encode_sequences(reference, [pair.chosen for pair in pairs])
    rejected = encode_sequences(reference, [pair.rejected for pair in pairs])
    log_table = log_softmax(reference.logits)
    ref_chosen = log_probs(log_table, chosen)
    ref_rejected = log_probs(log_table, rejected)
    return EncodedPairs(
        reference,
        np.array([pair.pair_id for pair in pairs], dtype=np.int64),
        chosen,
        rejected,
        ref_chosen,
        ref_rejected,
        ref_chosen > ref_rejected,
    )


def save_dataset(path, pairs: list[PreferencePair]) -> None:
    """Write pure JSONL (UTF-8, LF): one object per pair, fields exactly
    pair_id, prompt_class, chosen, rejected, true_reward_chosen,
    true_reward_rejected, label_flipped."""
    with atomic_write(path) as fh:
        for pair in pairs:
            row = {
                "pair_id": pair.pair_id,
                "prompt_class": pair.prompt_class,
                "chosen": list(pair.chosen.tokens),
                "rejected": list(pair.rejected.tokens),
                "true_reward_chosen": pair.true_reward_chosen,
                "true_reward_rejected": pair.true_reward_rejected,
                "label_flipped": pair.label_flipped,
            }
            fh.write(json.dumps(row, separators=(",", ":"), allow_nan=False) + "\n")


def _parse_tokens(line_number: int, name: str, value, vocab_size) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise DatasetFormatError(line_number, f"{name} must be a non-empty token array")
    tokens = []
    for t in value:
        if isinstance(t, bool) or not isinstance(t, int):
            raise DatasetFormatError(line_number, f"{name} contains a non-integer token {t!r}")
        if t < 0:
            raise DatasetFormatError(line_number, f"{name} contains a negative token {t}")
        if vocab_size is not None and t >= vocab_size:
            raise DatasetFormatError(
                line_number, f"{name} token {t} out of range for vocab size {vocab_size}"
            )
        tokens.append(t)
    return tuple(tokens)


def _reject_nan(token: str):
    raise ValueError(f"non-finite literal {token!r}")


def load_dataset(path, num_prompt_classes=None, vocab_size=None) -> list[PreferencePair]:
    """Read and validate a JSONL dataset written by save_dataset.

    When num_prompt_classes / vocab_size are given (e.g. from a loaded policy
    table), class and token indices are range-checked against them. All
    errors carry 1-based line numbers.
    """
    pairs = []
    seq_length = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                raise DatasetFormatError(line_number, "blank line in JSONL dataset")
            try:
                row = json.loads(line, parse_constant=_reject_nan)
            except ValueError as exc:
                raise DatasetFormatError(line_number, f"invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise DatasetFormatError(line_number, "expected a JSON object")
            if set(row) != set(_DATASET_FIELDS):
                raise DatasetFormatError(
                    line_number,
                    f"fields must be exactly {list(_DATASET_FIELDS)}, got {sorted(row)}",
                )
            if isinstance(row["pair_id"], bool) or not isinstance(row["pair_id"], int) or row["pair_id"] < 0:
                raise DatasetFormatError(line_number, f"pair_id must be a non-negative integer")
            if isinstance(row["prompt_class"], bool) or not isinstance(row["prompt_class"], int):
                raise DatasetFormatError(line_number, "prompt_class must be an integer")
            prompt_class = row["prompt_class"]
            if prompt_class < 0 or (
                num_prompt_classes is not None and prompt_class >= num_prompt_classes
            ):
                raise DatasetFormatError(
                    line_number, f"prompt_class {prompt_class} out of range"
                )
            chosen = _parse_tokens(line_number, "chosen", row["chosen"], vocab_size)
            rejected = _parse_tokens(line_number, "rejected", row["rejected"], vocab_size)
            for name in ("true_reward_chosen", "true_reward_rejected"):
                if isinstance(row[name], bool) or not isinstance(row[name], (int, float)):
                    raise DatasetFormatError(line_number, f"{name} must be a number")
                if not math.isfinite(row[name]):
                    raise DatasetFormatError(line_number, f"{name} must be finite")
            if not isinstance(row["label_flipped"], bool):
                raise DatasetFormatError(line_number, "label_flipped must be a boolean")
            try:
                pair = PreferencePair(
                    pair_id=row["pair_id"],
                    prompt_class=prompt_class,
                    chosen=TokenSequence(prompt_class, chosen),
                    rejected=TokenSequence(prompt_class, rejected),
                    true_reward_chosen=float(row["true_reward_chosen"]),
                    true_reward_rejected=float(row["true_reward_rejected"]),
                    label_flipped=row["label_flipped"],
                )
            except (ValueError, IndexError) as exc:
                raise DatasetFormatError(line_number, str(exc)) from exc
            if seq_length is None:
                seq_length = len(chosen)
            elif len(chosen) != seq_length:
                raise DatasetFormatError(
                    line_number,
                    f"sequence length {len(chosen)} differs from dataset length {seq_length}",
                )
            pairs.append(pair)
    return pairs


def holdout_size(num_pairs: int, fraction: float) -> int:
    """How many of num_pairs pairs split_holdout holds out: round(n * fraction)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"holdout fraction must lie in [0, 1), got {fraction!r}")
    return int(round(num_pairs * fraction))


def split_holdout(pairs: list[PreferencePair], fraction: float) -> tuple[list, list]:
    """Deterministic tail split: the last holdout_size(n, fraction) pairs are held out."""
    cut = len(pairs) - holdout_size(len(pairs), fraction)
    return pairs[:cut], pairs[cut:]
