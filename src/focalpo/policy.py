"""Tabular autoregressive policy: a per-prompt-class bigram model.

The table holds raw logits indexed by (prompt_class, previous_token,
next_token); previous-token index V (== vocab_size) is the dedicated
begin-of-sequence context, so the table shape is C x (V+1) x V. Sequence
log-probabilities are exact log-softmax chains, and their parameter
gradients have the closed softmax form. There is no EOS token; datasets use
a fixed sequence length.

All scoring is batched: sequences are encoded once into TokenRows, the
table's log-softmax is taken once, and the log-probabilities of every row
come from one gather and a sum over positions. The one-sequence functions
are wrappers over the same path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "TokenSequence",
    "PolicyTable",
    "TokenRows",
    "encode_sequences",
    "log_softmax",
    "log_probs",
    "log_prob_grad",
    "random_policy",
    "uniform_policy",
    "sequence_log_prob",
    "sequence_log_prob_grad",
    "implicit_reward",
    "pair_margin",
    "sample_sequence",
    "save_policy",
    "load_policy",
]


@dataclass(frozen=True)
class TokenSequence:
    """A response: prompt class plus a fixed-length token list."""

    prompt_class: int
    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) < 1:
            raise ValueError("a token sequence must contain at least one token")
        if self.prompt_class < 0:
            raise IndexError(f"prompt_class must be >= 0, got {self.prompt_class}")
        for t in self.tokens:
            if t < 0:
                raise IndexError(f"token indices must be >= 0, got {t}")


@dataclass
class PolicyTable:
    """Logit table of shape (num_prompt_classes, vocab_size + 1, vocab_size)."""

    num_prompt_classes: int
    vocab_size: int
    logits: np.ndarray

    def __post_init__(self) -> None:
        if self.num_prompt_classes < 1 or self.vocab_size < 1:
            raise ValueError("num_prompt_classes and vocab_size must be >= 1")
        expected = (self.num_prompt_classes, self.vocab_size + 1, self.vocab_size)
        logits = np.ascontiguousarray(self.logits, dtype=np.float64)
        if logits.shape != expected:
            raise ValueError(f"logits shape {logits.shape} != expected {expected}")
        if not np.isfinite(logits).all():
            raise ValueError("logits must be finite")
        self.logits = logits

    @property
    def bos_index(self) -> int:
        return self.vocab_size

    def clone(self) -> "PolicyTable":
        return PolicyTable(self.num_prompt_classes, self.vocab_size, self.logits.copy())

    def checksum(self) -> str:
        """SHA-256 of the raw logit bytes; used to assert immutability."""
        return hashlib.sha256(self.logits.tobytes()).hexdigest()


def random_policy(num_prompt_classes: int, vocab_size: int, seed: int, scale: float = 1.0) -> PolicyTable:
    """Table with i.i.d. normal(0, scale) logits from a fixed seed."""
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal((num_prompt_classes, vocab_size + 1, vocab_size))
    return PolicyTable(num_prompt_classes, vocab_size, logits)


def uniform_policy(num_prompt_classes: int, vocab_size: int) -> PolicyTable:
    """All-zero logits: every next-token distribution is uniform."""
    logits = np.zeros((num_prompt_classes, vocab_size + 1, vocab_size))
    return PolicyTable(num_prompt_classes, vocab_size, logits)


class TokenRows(NamedTuple):
    """Equal-length sequences as arrays: prompt classes (N,), tokens (N, L)
    and the context each token is drawn in (N, L), which is the previous
    token, or the BOS index V before the first token."""

    classes: np.ndarray
    tokens: np.ndarray
    contexts: np.ndarray

    def take(self, idx) -> "TokenRows":
        return TokenRows(self.classes[idx], self.tokens[idx], self.contexts[idx])


def encode_sequences(policy: PolicyTable, seqs) -> TokenRows:
    """Encode TokenSequences for a table of this shape; indices out of range
    raise IndexError and sequences of differing lengths raise ValueError."""
    if not seqs:
        raise ValueError("no sequences to encode")
    length = len(seqs[0].tokens)
    for i, seq in enumerate(seqs):
        if len(seq.tokens) != length:
            raise ValueError(
                f"row {i}: sequence length {len(seq.tokens)} differs from dataset length {length}"
            )
    classes = np.array([seq.prompt_class for seq in seqs], dtype=np.int64)
    tokens = np.array([seq.tokens for seq in seqs], dtype=np.int64)
    if classes.max() >= policy.num_prompt_classes:
        raise IndexError(
            f"prompt_class {classes.max()} out of range for {policy.num_prompt_classes} classes"
        )
    if tokens.max() >= policy.vocab_size:
        raise IndexError(f"token {tokens.max()} out of range for vocab size {policy.vocab_size}")
    contexts = np.empty_like(tokens)
    contexts[:, :1] = policy.bos_index
    contexts[:, 1:] = tokens[:, :-1]
    return TokenRows(classes, tokens, contexts)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of the next-token distribution of every context of the table."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def log_probs(log_table: np.ndarray, rows: TokenRows) -> np.ndarray:
    """log pi(row | prompt class) for every row, given log_softmax(logits)."""
    return log_table[rows.classes[:, None], rows.contexts, rows.tokens].sum(axis=1)


def log_prob_grad(log_table: np.ndarray, rows: TokenRows, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] * d(log pi(row_i))/d(logits), as a dense table.

    Per context the softmax-gradient identity applies: token counts minus
    visits times the next-token distribution, both weighted by coeffs.
    """
    num_classes, num_contexts, vocab = log_table.shape
    context_ids = (rows.classes[:, None] * num_contexts + rows.contexts).ravel()
    weights = np.repeat(coeffs, rows.tokens.shape[1])
    visits = np.bincount(context_ids, weights, minlength=num_classes * num_contexts)
    counts = np.bincount(
        context_ids * vocab + rows.tokens.ravel(), weights, minlength=log_table.size
    )
    # Built in place, so the result is the only table-sized allocation.
    grad = np.exp(log_table)
    grad *= -visits.reshape(num_classes, num_contexts, 1)
    grad += counts.reshape(log_table.shape)
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


def sequence_log_prob(policy: PolicyTable, seq: TokenSequence) -> float:
    """log pi(seq | prompt_class): sum of log-softmax chain terms, always <= 0."""
    return float(log_probs(log_softmax(policy.logits), encode_sequences(policy, [seq]))[0])


def sequence_log_prob_grad(policy: PolicyTable, seq: TokenSequence) -> np.ndarray:
    """d(log pi(seq))/d(logits) as a dense table matching policy.logits.

    Only contexts visited by the sequence are nonzero; entries per context
    follow the softmax-gradient identity 1{k == token} - p_k.
    """
    rows = encode_sequences(policy, [seq])
    return log_prob_grad(log_softmax(policy.logits), rows, np.ones(1))


def implicit_reward(policy: PolicyTable, reference: PolicyTable, seq: TokenSequence, beta: float) -> float:
    """beta * log(pi_policy(seq) / pi_reference(seq))."""
    _check_same_shape(policy, reference)
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    return beta * (sequence_log_prob(policy, seq) - sequence_log_prob(reference, seq))


def pair_margin(policy: PolicyTable, reference: PolicyTable, pair, beta: float) -> float:
    """Implicit reward of the chosen response minus that of the rejected one.

    `pair` is any object with TokenSequence fields `chosen` and `rejected`.
    """
    return implicit_reward(policy, reference, pair.chosen, beta) - implicit_reward(
        policy, reference, pair.rejected, beta
    )


def _sample_tokens(policy: PolicyTable, prompt_class: int, length: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Ancestral sampling via inverse CDF on one uniform draw per step."""
    logits = policy.logits
    prev = policy.bos_index
    out = []
    for _ in range(length):
        row = logits[prompt_class, prev]
        shifted = np.exp(row - row.max())
        probs = shifted / shifted.sum()
        u = rng.random()
        cum = 0.0
        tok = policy.vocab_size - 1  # fall through to the last bin on rounding
        for k in range(policy.vocab_size):
            cum += probs[k]
            if u < cum:
                tok = k
                break
        out.append(tok)
        prev = tok
    return tuple(out)


def sample_sequence(policy: PolicyTable, prompt_class: int, length: int, rng_seed: int) -> TokenSequence:
    """Draw one sequence from the softmax chain; deterministic given the seed."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not 0 <= prompt_class < policy.num_prompt_classes:
        raise ValueError(
            f"prompt_class {prompt_class} out of range for {policy.num_prompt_classes} classes"
        )
    rng = np.random.default_rng(rng_seed)
    return TokenSequence(prompt_class, _sample_tokens(policy, prompt_class, length, rng))


def save_policy(path, policy: PolicyTable) -> None:
    """Write the text format: header line "C V", then one line of V logits
    per (prompt_class, previous_token) context, previous-token-major within
    each class and the BOS context last. Values use 17 significant digits so
    the round trip is value-exact.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{policy.num_prompt_classes} {policy.vocab_size}\n")
        for c in range(policy.num_prompt_classes):
            for prev in range(policy.vocab_size + 1):
                row = policy.logits[c, prev]
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_policy(path) -> PolicyTable:
    """Read the text format written by save_policy."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty policy file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: line 1: expected header 'C V', got {lines[0]!r}")
    try:
        num_classes, vocab = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}") from exc
    expected_rows = num_classes * (vocab + 1)
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != expected_rows:
        raise ValueError(
            f"{path}: expected {expected_rows} context rows for C={num_classes} V={vocab}, "
            f"got {len(body)}"
        )
    logits = np.empty((num_classes, vocab + 1, vocab))
    for i, line in enumerate(body):
        parts = line.split()
        if len(parts) != vocab:
            raise ValueError(f"{path}: line {i + 2}: expected {vocab} values, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}: line {i + 2}: malformed float") from exc
        logits[i // (vocab + 1), i % (vocab + 1)] = values
    return PolicyTable(num_classes, vocab, logits)
