"""Tabular autoregressive policy: a per-prompt-class bigram model.

The table holds raw logits indexed by (prompt_class, previous_token,
next_token); previous-token index V (== vocab_size) is the dedicated
begin-of-sequence context, so the table shape is C x (V+1) x V; PolicyTable
reads C and V off that shape and stores them nowhere else. Sequence
log-probabilities are exact log-softmax chains, and their parameter
gradients have the closed softmax form. There is no EOS token; datasets use
a fixed sequence length.

All scoring is batched: token_rows encodes sequences once, each token with
its flat context row; the table's log-softmax is taken once, and the
log-probabilities of every row come from one gather and a sum over
positions. Sampling walks a cumulative next-token table built once per
sampler, with one binary search per token.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .files import atomic_write

# Table values per block when log_prob_grad subtracts the visit terms.
GRAD_BLOCK_VALUES = 8192

__all__ = [
    "PolicyTable",
    "TokenRows",
    "token_rows",
    "log_softmax",
    "log_probs",
    "log_prob_grad",
    "random_policy",
    "save_policy",
    "load_policy",
]


@dataclass
class PolicyTable:
    """Logit table of shape (num_prompt_classes, vocab_size + 1, vocab_size)."""

    logits: np.ndarray

    def __post_init__(self) -> None:
        logits = np.ascontiguousarray(self.logits, dtype=np.float64)
        if logits.ndim != 3 or min(logits.shape) < 1 or logits.shape[1] != logits.shape[2] + 1:
            raise ValueError(f"logits shape {logits.shape} is not (C, V + 1, V) with C, V >= 1")
        if not np.isfinite(logits).all():
            raise ValueError("logits must be finite")
        self.logits = logits

    @property
    def num_prompt_classes(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[2]

    def clone(self) -> "PolicyTable":
        return PolicyTable(self.logits.copy())


def random_policy(num_prompt_classes: int, vocab_size: int, seed: int) -> PolicyTable:
    """Table with i.i.d. standard normal logits from a fixed seed."""
    rng = np.random.default_rng(seed)
    return PolicyTable(rng.standard_normal((num_prompt_classes, vocab_size + 1, vocab_size)))


class TokenRows(NamedTuple):
    """Equal-length sequences as two index arrays of one shape (N, ..., L):
    the flat context row, prompt_class * (V+1) + previous token (the BOS
    index V before the first token), and the token drawn in it."""

    contexts: np.ndarray
    tokens: np.ndarray


def token_rows(policy: PolicyTable, classes, tokens) -> TokenRows:
    """Encode equal-length sequences, tokens (N, ..., L) drawn in prompt classes
    (N,), for a table of this shape; indices out of range raise IndexError."""
    classes = np.asarray(classes, dtype=np.int64)
    tokens = np.asarray(tokens, dtype=np.int64)
    if classes.min() < 0:
        raise IndexError(f"prompt_class must be >= 0, got {classes.min()}")
    if classes.max() >= policy.num_prompt_classes:
        raise IndexError(
            f"prompt_class {classes.max()} out of range for {policy.num_prompt_classes} classes"
        )
    if tokens.min() < 0:
        raise IndexError(f"token indices must be >= 0, got {tokens.min()}")
    if tokens.max() >= policy.vocab_size:
        raise IndexError(f"token {tokens.max()} out of range for vocab size {policy.vocab_size}")
    contexts = np.empty_like(tokens)
    contexts[..., :1] = policy.vocab_size  # the BOS context
    contexts[..., 1:] = tokens[..., :-1]
    contexts += (classes * (policy.vocab_size + 1)).reshape(-1, *[1] * (tokens.ndim - 1))
    return TokenRows(contexts, tokens)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of the next-token distribution of every context of the table."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def log_probs(log_table: np.ndarray, rows: TokenRows) -> np.ndarray:
    """log pi(row | prompt class) for every row, given log_softmax(logits)."""
    return log_table.reshape(-1, log_table.shape[-1])[rows.contexts, rows.tokens].sum(axis=-1)


def log_prob_grad(log_table: np.ndarray, rows: TokenRows, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] * d(log pi(row_i))/d(logits), as a dense table; the
    rows add up in their flattened order.

    Per context the softmax-gradient identity applies: token counts minus
    visits times the next-token distribution, both weighted by coeffs.
    """
    num_classes, num_contexts, vocab = log_table.shape
    contexts = rows.contexts.ravel()
    weights = np.repeat(coeffs.ravel(), rows.tokens.shape[-1])
    visits = np.bincount(contexts, weights, minlength=num_classes * num_contexts)
    grad = np.bincount(
        contexts * vocab + rows.tokens.ravel(), weights, minlength=log_table.size
    ).reshape(log_table.shape)
    # The token counts become the result and the visit terms are subtracted
    # a block of classes at a time: a large table allocates no second
    # table-sized array, and a small one is a single block.
    visits = visits.reshape(num_classes, num_contexts, 1)
    classes_per_block = max(1, GRAD_BLOCK_VALUES // (num_contexts * vocab))
    for lo in range(0, num_classes, classes_per_block):
        classes = slice(lo, lo + classes_per_block)
        block = grad[classes]
        block -= np.exp(log_table[classes]) * visits[classes]
    return grad


def _check_same_shape(policy: PolicyTable, reference: PolicyTable) -> None:
    if (policy.num_prompt_classes, policy.vocab_size) != (
        reference.num_prompt_classes,
        reference.vocab_size,
    ):
        raise ValueError(
            "policy shape (C, V) = "
            f"({policy.num_prompt_classes}, {policy.vocab_size}) does not match "
            f"reference ({reference.num_prompt_classes}, {reference.vocab_size})"
        )


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


def save_policy(path, policy: PolicyTable) -> None:
    """Write the text format: header line "C V", then one line of V logits
    per (prompt_class, previous_token) context, previous-token-major within
    each class and the BOS context last. Values use 17 significant digits so
    the round trip is value-exact.
    """
    with atomic_write(path) as fh:
        fh.write(f"{policy.num_prompt_classes} {policy.vocab_size}\n")
        line = " ".join(["%.17g"] * policy.vocab_size) + "\n"
        for row in policy.logits.reshape(-1, policy.vocab_size):
            fh.write(line % tuple(row.tolist()))


def _lines(fh):
    """The lines of a text file from its start, read one at a time, so no
    copy of the whole text is held. Only a newline ends a line."""
    fh.seek(0)
    for line in fh:
        yield line.rstrip("\n")


def _rows(fh):
    """(line number, line) for the non-blank lines after the header line,
    numbered as the file's physical lines from 1."""
    lines = itertools.islice(enumerate(_lines(fh), 1), 1, None)
    return ((number, line) for number, line in lines if line.strip())


def load_policy(path) -> PolicyTable:
    """Read the text format written by save_policy. The rows are counted in
    one pass and parsed into the table in a second."""
    with open(path, "r", encoding="utf-8") as fh:
        first = next(_lines(fh), None)
        if first is None:
            raise ValueError(f"{path}: empty policy file")
        header = first.split()
        if len(header) != 2:
            raise ValueError(f"{path}: line 1: expected header 'C V', got {first!r}")
        try:
            num_classes, vocab = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: malformed header {first!r}") from exc
        if num_classes < 1 or vocab < 1:
            raise ValueError(f"{path}: line 1: C and V must be >= 1, got {first!r}")
        expected_rows = num_classes * (vocab + 1)
        got = sum(1 for _ in _rows(fh))
        if got != expected_rows:
            raise ValueError(
                f"{path}: expected {expected_rows} context rows for C={num_classes} V={vocab}, "
                f"got {got}"
            )
        logits = np.empty((num_classes, vocab + 1, vocab))
        for i, (number, line) in enumerate(_rows(fh)):
            parts = line.split()
            if len(parts) != vocab:
                raise ValueError(f"{path}: line {number}: expected {vocab} values, got {len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: malformed float") from exc
            logits[i // (vocab + 1), i % (vocab + 1)] = values
        try:
            return PolicyTable(logits)
        except ValueError:  # the shape is right, so a logit is not finite
            row = int(np.isfinite(logits).reshape(-1, vocab).all(axis=1).argmin())
            number, _ = next(itertools.islice(_rows(fh), row, None))
            raise ValueError(f"{path}: line {number}: logits must be finite") from None
