"""Synthetic Bradley-Terry preference datasets with controllable label noise.

Sequences are drawn from a sampler policy (by default the frozen reference
itself), scored by a bag-of-tokens true reward, a (C, V) weight array shaped
like the sampler's table, and labeled either deterministically (higher
reward wins) or stochastically via the Bradley-Terry probability
sigmoid(reward gap). A noise rate then swaps a random subset of labels, with
the flip recorded per pair. Sampling walks a cumulative next-token table
built once per sampler, with one binary search per token. encode_pairs
turns a dataset into one (N, 2, L) array of flat table indices
(policy.token_rows), each pair's chosen side then its rejected side, scored
once against the frozen reference.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .files import atomic_write
from .losses import logistic
from .policy import PolicyTable, log_probs, log_softmax, token_rows

LABELING_MODES = ("deterministic", "bradley_terry")
DISTINCT_DRAW_RETRIES = 100
INT64_MAX = 2**63 - 1
# Pairs turned into Python values and JSON per step when writing a dataset,
# so the writer's memory stays bounded whatever the dataset's size.
SAVE_BLOCK_ROWS = 1024

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
    "DatasetFormatError",
    "Dataset",
    "SynthConfig",
    "random_reward_model",
    "synthesize_dataset",
    "EncodedPairs",
    "encode_pairs",
    "save_dataset",
    "load_dataset",
    "holdout_size",
    "split_holdout",
]


class DatasetFormatError(ValueError):
    """Malformed or out-of-range dataset content, tagged with its file and line number."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number


class Dataset(NamedTuple):
    """A preference dataset as columns, one entry per pair: pair ids and
    prompt classes (N,), chosen and rejected tokens (N, L), the true
    rewards of both sides (N,) and label flips (N,). len() counts the
    pairs, so the tuple's _make and _replace do not apply."""

    pair_ids: np.ndarray
    classes: np.ndarray
    chosen: np.ndarray
    rejected: np.ndarray
    reward_chosen: np.ndarray
    reward_rejected: np.ndarray
    label_flipped: np.ndarray

    def __len__(self) -> int:
        return len(self.pair_ids)

    def take(self, idx) -> "Dataset":
        """The pairs at the given indices or slice, in that order."""
        return Dataset(*(column[idx] for column in self))


@dataclass(frozen=True)
class SynthConfig:
    num_pairs: int
    seq_length: int = 4
    labeling_mode: str = "deterministic"
    noise_rate: float = 0.0
    generator_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {self.num_pairs}")
        if self.seq_length < 1:
            raise ValueError(f"seq_length must be >= 1, got {self.seq_length}")
        if self.labeling_mode not in LABELING_MODES:
            raise ValueError(
                f"labeling_mode must be one of {LABELING_MODES}, got {self.labeling_mode!r}"
            )
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must lie in [0, 1), got {self.noise_rate!r}")


def random_reward_model(num_prompt_classes: int, vocab_size: int, seed: int) -> np.ndarray:
    """Standard normal (C, V) true-reward weights from a fixed seed."""
    return np.random.default_rng(seed).standard_normal((num_prompt_classes, vocab_size))


def _next_token_cdf(logits: np.ndarray) -> np.ndarray:
    """Cumulative next-token distribution of every context of a logits
    array (..., V): softmax, then a running sum along the last axis. Built
    in place, so the result is the only allocation of the logits' size."""
    cdf = logits - logits.max(axis=-1, keepdims=True)
    np.exp(cdf, out=cdf)
    cdf /= cdf.sum(axis=-1, keepdims=True)
    np.cumsum(cdf, axis=-1, out=cdf)
    return cdf


def _sample_tokens(cdf: np.ndarray, length: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Ancestral sampling via inverse CDF on one uniform draw per step.

    `cdf` is _next_token_cdf of one prompt class's (V+1, V) logits, the BOS
    context last. Each step takes the first token whose cumulative
    probability exceeds the draw, or the last token when rounding leaves
    the row's total below it.
    """
    last = cdf.shape[1] - 1
    prev = cdf.shape[0] - 1
    out = []
    for u in rng.random(length):
        prev = min(int(cdf[prev].searchsorted(u, side="right")), last)
        out.append(prev)
    return tuple(out)


def synthesize_dataset(config: SynthConfig, reward: np.ndarray, sampler: PolicyTable) -> Dataset:
    """Generate preference pairs; a pure function of (config, reward, sampler).

    Per pair: draw a prompt class uniformly, two distinct sequences from the
    sampler, label by true reward (deterministic mode) or by a Bernoulli
    draw with probability sigmoid(reward_a - reward_b) (bradley_terry mode),
    then swap the label with probability noise_rate, recording the flip.
    The true reward of a sequence is the sum of its per-token weights, added
    left to right (a cumulative sum: .sum() adds pairwise from 8 tokens on).
    """
    reward = np.asarray(reward, dtype=np.float64)
    shape = (sampler.num_prompt_classes, sampler.vocab_size)
    if reward.shape != shape:
        raise ValueError(f"reward shape {reward.shape} does not match sampler (C, V) = {shape}")
    if not np.isfinite(reward).all():
        raise ValueError("reward weights must be finite")
    if sampler.vocab_size < 2:
        raise ValueError("sampler vocab_size must be >= 2 to draw distinct sequences")
    rng = np.random.default_rng(config.generator_seed)
    cdf = _next_token_cdf(sampler.logits)
    num_pairs, length = config.num_pairs, config.seq_length
    classes = np.empty(num_pairs, dtype=np.int64)
    tokens = np.empty((2, num_pairs, length), dtype=np.int64)  # sequences a and b
    # The labeling draws, taken in the loop so that the stream keeps its
    # per-pair order; a flip draw not taken stays 1.0, which no rate passes.
    label_draws = np.zeros(num_pairs)
    flip_draws = np.ones(num_pairs)
    bradley_terry = config.labeling_mode == "bradley_terry"
    for pair_id in range(num_pairs):
        prompt_class = int(rng.integers(sampler.num_prompt_classes))
        tokens_a = _sample_tokens(cdf[prompt_class], length, rng)
        for _ in range(DISTINCT_DRAW_RETRIES):
            tokens_b = _sample_tokens(cdf[prompt_class], length, rng)
            if tokens_b != tokens_a:
                break
        else:
            raise RuntimeError(
                f"pair {pair_id}: failed to draw distinct sequences after "
                f"{DISTINCT_DRAW_RETRIES} retries (sampler too concentrated)"
            )
        classes[pair_id] = prompt_class
        tokens[:, pair_id] = tokens_a, tokens_b
        if bradley_terry:
            label_draws[pair_id] = rng.random()
        if config.noise_rate > 0.0:
            flip_draws[pair_id] = rng.random()
    reward_a, reward_b = np.cumsum(reward[classes[:, None], tokens], axis=-1)[..., -1]
    if bradley_terry:
        a_chosen = label_draws < logistic(reward_a - reward_b)[0]
    else:
        a_chosen = reward_a >= reward_b
    label_flipped = flip_draws < config.noise_rate
    a_chosen ^= label_flipped
    return Dataset(
        np.arange(num_pairs, dtype=np.int64),
        classes,
        np.where(a_chosen[:, None], tokens[0], tokens[1]),
        np.where(a_chosen[:, None], tokens[1], tokens[0]),
        np.where(a_chosen, reward_a, reward_b),
        np.where(a_chosen, reward_b, reward_a),
        label_flipped,
    )


class EncodedPairs(NamedTuple):
    """A Dataset encoded and scored once against the frozen reference: the
    reference's (C, V + 1, V) shape, which its indices assume; the (N, 2, L)
    token_rows indices of each pair's chosen and rejected sequence, in that
    order; their (N, 2) reference log-probabilities; and the subgroup label
    that follows from them. Nothing else of the reference is kept, so its
    table may be trained in place once the pairs are encoded. len() counts
    the pairs, so the tuple's _make and _replace do not apply."""

    reference_shape: tuple
    pair_ids: np.ndarray
    rows: np.ndarray
    ref_log_probs: np.ndarray
    correct_at_init: np.ndarray

    def __len__(self) -> int:
        return len(self.pair_ids)

    def take(self, idx) -> "EncodedPairs":
        """The pairs at the given indices, in that order."""
        return EncodedPairs(self.reference_shape, *(column[idx] for column in self[1:]))


def encode_pairs(reference: PolicyTable, dataset: Dataset) -> EncodedPairs:
    """Encode a non-empty dataset and score it against the reference. The
    subgroups follow the reference's raw log-likelihood ranking; ties count
    as incorrect (matching the strict margin rule used for accuracy)."""
    if not len(dataset):
        raise ValueError("dataset must be non-empty")
    rows = token_rows(reference, dataset.classes, np.stack((dataset.chosen, dataset.rejected), 1))
    ref_log_probs = log_probs(log_softmax(reference.logits), rows)
    correct_at_init = ref_log_probs[:, 0] > ref_log_probs[:, 1]
    return EncodedPairs(
        reference.logits.shape, dataset.pair_ids, rows, ref_log_probs, correct_at_init
    )


def save_dataset(path, dataset: Dataset) -> None:
    """Write pure JSONL (UTF-8, LF): one object per pair, fields exactly
    pair_id, prompt_class, chosen, rejected, true_reward_chosen,
    true_reward_rejected, label_flipped."""
    with atomic_write(path) as fh:
        for start in range(0, len(dataset), SAVE_BLOCK_ROWS):
            block = dataset.take(slice(start, start + SAVE_BLOCK_ROWS))
            for values in zip(*(column.tolist() for column in block)):
                row = dict(zip(_DATASET_FIELDS, values))
                fh.write(json.dumps(row, separators=(",", ":"), allow_nan=False) + "\n")


def _reject_nan(token: str):
    raise ValueError(f"non-finite literal {token!r}")


# One decoder for every line; json.loads with parse_constant builds a new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_nan)


def _parse_row(line: str, num_prompt_classes, vocab_size, length) -> list:
    """The field values of one dataset line, in file order; ValueError
    names the first thing wrong with it. `length` is the sequence length of
    the lines before it, None for the first line."""
    if not line:
        raise ValueError("blank line in JSONL dataset")
    try:
        if line.startswith("\ufeff"):  # json.loads checks this; decode alone would not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        row = _DECODER.decode(line)
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise ValueError("expected a JSON object")
    if set(row) != set(_DATASET_FIELDS):
        raise ValueError(f"fields must be exactly {list(_DATASET_FIELDS)}, got {sorted(row)}")
    pair_id, prompt_class, chosen, rejected = (row[name] for name in _DATASET_FIELDS[:4])
    if type(pair_id) is not int or pair_id < 0:
        raise ValueError("pair_id must be a non-negative integer")
    if pair_id > INT64_MAX:
        raise ValueError(f"pair_id {pair_id} does not fit in int64")
    if type(prompt_class) is not int:
        raise ValueError("prompt_class must be an integer")
    if not 0 <= prompt_class < num_prompt_classes:
        raise ValueError(f"prompt_class {prompt_class} out of range")
    for name, tokens in (("chosen", chosen), ("rejected", rejected)):
        if not isinstance(tokens, list) or not tokens:
            raise ValueError(f"{name} must be a non-empty token array")
        for t in tokens:
            if type(t) is not int:
                raise ValueError(f"{name} contains a non-integer token {t!r}")
            if t < 0:
                raise ValueError(f"{name} contains a negative token {t}")
            if t >= vocab_size:
                raise ValueError(f"{name} token {t} out of range for vocab size {vocab_size}")
    for name in ("true_reward_chosen", "true_reward_rejected"):
        if type(row[name]) not in (int, float):
            raise ValueError(f"{name} must be a number")
        if not abs(row[name]) <= sys.float_info.max:  # an int past it overflows float64
            raise ValueError(f"{name} must be finite")
    if type(row["label_flipped"]) is not bool:
        raise ValueError("label_flipped must be a boolean")
    if len(chosen) != len(rejected):
        raise ValueError(f"pair {pair_id}: chosen/rejected lengths differ")
    if chosen == rejected:
        raise ValueError(f"pair {pair_id}: chosen and rejected are identical")
    if length is not None and len(chosen) != length:
        raise ValueError(f"sequence length {len(chosen)} differs from dataset length {length}")
    return [row[name] for name in _DATASET_FIELDS]


def load_dataset(path, num_prompt_classes: int, vocab_size: int) -> Dataset:
    """Read and validate a JSONL dataset written by save_dataset, with class
    and token indices range-checked against the table shape given (e.g. that
    of a loaded policy). Each error names the file and a 1-based line number."""
    rows, length = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                rows.append(_parse_row(line.rstrip("\n"), num_prompt_classes, vocab_size, length))
            except ValueError as exc:
                raise DatasetFormatError(path, line_number, str(exc)) from exc
            length = len(rows[0][2])
    pair_ids, classes, chosen, rejected, reward_chosen, reward_rejected, flipped = (
        zip(*rows) if rows else [()] * len(_DATASET_FIELDS)
    )
    shape = (len(rows), length or 0)
    return Dataset(
        np.array(pair_ids, dtype=np.int64),
        np.array(classes, dtype=np.int64),
        np.array(chosen, dtype=np.int64).reshape(shape),
        np.array(rejected, dtype=np.int64).reshape(shape),
        np.array(reward_chosen, dtype=np.float64),
        np.array(reward_rejected, dtype=np.float64),
        np.array(flipped, dtype=bool),
    )


def holdout_size(num_pairs: int, fraction: float) -> int:
    """How many of num_pairs pairs split_holdout holds out: round(n * fraction)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"holdout fraction must lie in [0, 1), got {fraction!r}")
    return int(round(num_pairs * fraction))


def split_holdout(dataset: Dataset, fraction: float) -> tuple[Dataset, Dataset]:
    """Deterministic tail split: the last holdout_size(n, fraction) pairs are held out."""
    cut = len(dataset) - holdout_size(len(dataset), fraction)
    return dataset.take(slice(None, cut)), dataset.take(slice(cut, None))
