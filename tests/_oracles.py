"""Independent oracles shared by the test modules.

The loss oracles mirror the documented loss formulas in mpmath arithmetic.
They exist only at test time: finite differences of the mirror are free of
the double-precision cancellation that makes naive FD useless in the
saturated tails (e.g. the (1-p) factor at margins beyond ~8).

The sequence oracles walk the log-softmax chain of a policy table one token
at a time in scalar Python arithmetic, sharing no code with the batched
numpy path they check.

The sampling and text-format oracles are the one-step-at-a-time forms of
the sampler and the policy writer: a linear scan per step, and one format
call per value. The CSV oracle is the curves writer as numpy's savetxt
gives it, one row at a time.

The one-sequence helpers state single-sequence and single-pair quantities
(log-probability, gradient, implicit reward, margin, subgroup, a sampled
sequence) through the batched path of focalpo, one row at a time; only the
tests need them in that form.
"""

import hashlib
import io
import math

import mpmath as mp
import numpy as np

from focalpo.data import Subgroup, encode_pairs
from focalpo.numerics import sigmoid
from focalpo.policy import (
    PolicyTable,
    TokenSequence,
    _check_same_shape,
    _next_token_cdf,
    _sample_tokens,
    encode_sequences,
    log_prob_grad,
    log_probs,
    log_softmax,
)

mp.mp.dps = 30

VARIANT_NAMES = ("dpo", "focal", "focal-exact", "focus-incorrect")


def mirror_sigmoid(x):
    return 1 / (1 + mp.e ** (-mp.mpf(x)))


def mirror_pair_loss(variant: str, gamma: float, delta: float):
    p = mirror_sigmoid(delta)
    base = -mp.log(p)
    if variant == "dpo":
        return base
    if variant == "focal":
        return p**gamma * base
    if variant == "focal-exact":
        return (1 - p) ** (-gamma) * base
    if variant == "focus-incorrect":
        return (1 - p) ** gamma * base
    raise ValueError(variant)


def mirror_weight_ratio(gamma: float, delta: float):
    """The per-pair focal-to-dpo weight ratio p^g (1 + g log p) at a margin,
    with p = sigmoid(delta). As in the loss zoo, p^g is taken at p clamped
    into [1e-12, 1 - 1e-12] and log p is not clamped."""
    p = mirror_sigmoid(delta)
    clamped = min(max(p, mp.mpf(1e-12)), mp.mpf(1.0 - 1e-12))
    return clamped**gamma * (1 + gamma * mp.log(p))


def fd_weight(variant: str, gamma: float, delta: float, h: float = 1e-5) -> float:
    """Central finite difference of the mirrored loss: approximates -dL/dDelta."""
    num = mirror_pair_loss(variant, gamma, delta + h) - mirror_pair_loss(variant, gamma, delta - h)
    return float(-num / (2 * mp.mpf(h)))


def _chain(logits, prompt_class, tokens):
    """Yield (context, token, next-token probabilities, log-prob term) along
    the sequence; `logits` is a nested list of shape (C, V+1, V)."""
    context = len(logits[prompt_class]) - 1  # the BOS context
    for token in tokens:
        row = logits[prompt_class][context]
        m = max(row)
        log_z = m + math.log(math.fsum(math.exp(v - m) for v in row))
        yield context, token, [math.exp(v - log_z) for v in row], row[token] - log_z
        context = token


def scalar_log_prob(logits, prompt_class, tokens) -> float:
    """log pi(tokens | prompt_class) as a sum of scalar log-softmax terms."""
    return math.fsum(term for _, _, _, term in _chain(logits, prompt_class, tokens))


def scalar_log_prob_grad(logits, prompt_class, tokens) -> np.ndarray:
    """d(log pi(tokens | prompt_class))/d(logits): per visited context,
    1{k == token} - p_k, accumulated one token at a time."""
    grad = np.zeros((len(logits), len(logits[0]), len(logits[0][0])))
    for context, token, probs, _ in _chain(logits, prompt_class, tokens):
        for k, p in enumerate(probs):
            grad[prompt_class, context, k] -= p
        grad[prompt_class, context, token] += 1.0
    return grad


def whole_table_log_prob_grad(log_table, rows, coeffs) -> np.ndarray:
    """log_prob_grad as one expression over the whole table: each entry is
    exp(log_table) * -visits + counts, the same arithmetic per entry."""
    num_classes, num_contexts, vocab = log_table.shape
    context_ids = (rows.classes[:, None] * num_contexts + rows.contexts).ravel()
    weights = np.repeat(coeffs, rows.tokens.shape[1])
    visits = np.bincount(context_ids, weights, minlength=num_classes * num_contexts)
    counts = np.bincount(
        context_ids * vocab + rows.tokens.ravel(), weights, minlength=log_table.size
    )
    return (
        np.exp(log_table) * -visits.reshape(num_classes, num_contexts, 1)
        + counts.reshape(log_table.shape)
    )


def scan_sample_tokens(logits, prompt_class, length, rng):
    """Ancestral sampling by a linear scan of each step's probabilities:
    the first token whose running sum exceeds the step's uniform draw, or
    the last token when rounding leaves the sum below it. `logits` is a
    (C, V+1, V) array; one scalar draw is taken per step."""
    vocab = logits.shape[-1]
    prev = vocab  # the BOS context
    out = []
    for _ in range(length):
        row = logits[prompt_class, prev]
        shifted = np.exp(row - row.max())
        probs = shifted / shifted.sum()
        u = rng.random()
        cum = 0.0
        tok = vocab - 1
        for k in range(vocab):
            cum += probs[k]
            if u < cum:
                tok = k
                break
        out.append(tok)
        prev = tok
    return tuple(out)


def legacy_policy_text(logits) -> str:
    """The policy text format written one value at a time: header "C V",
    then each context row as space-separated 17-significant-digit values."""
    num_classes, num_contexts, vocab = logits.shape
    lines = [f"{num_classes} {vocab}"]
    for c in range(num_classes):
        for prev in range(num_contexts):
            lines.append(" ".join(f"{v:.17g}" for v in logits[c, prev]))
    return "\n".join(lines) + "\n"


def savetxt_csv_text(columns) -> str:
    """The curves CSV as np.savetxt writes it: a header of the column names,
    then one line per row of the stacked columns, every value as %.9g."""
    fh = io.StringIO()
    np.savetxt(
        fh,
        np.column_stack(list(columns.values())),
        fmt="%.9g",
        delimiter=",",
        header=",".join(columns),
        comments="",
    )
    return fh.getvalue()


# --------------------------------------------------- one-sequence helpers


def uniform_policy(num_prompt_classes: int, vocab_size: int) -> PolicyTable:
    """All-zero logits: every next-token distribution is uniform."""
    logits = np.zeros((num_prompt_classes, vocab_size + 1, vocab_size))
    return PolicyTable(num_prompt_classes, vocab_size, logits)


def checksum(policy: PolicyTable) -> str:
    """SHA-256 of the raw logit bytes; used to assert immutability."""
    return hashlib.sha256(policy.logits.tobytes()).hexdigest()


def sequence_log_prob(policy: PolicyTable, seq: TokenSequence) -> float:
    """log pi(seq | prompt_class) from the batched path, one row."""
    return float(log_probs(log_softmax(policy.logits), encode_sequences(policy, [seq]))[0])


def sequence_log_prob_grad(policy: PolicyTable, seq: TokenSequence) -> np.ndarray:
    """d(log pi(seq))/d(logits) from the batched path, one row."""
    rows = encode_sequences(policy, [seq])
    return log_prob_grad(log_softmax(policy.logits), rows, np.ones(1))


def implicit_reward(policy, reference, seq, beta: float) -> float:
    """beta * log(pi_policy(seq) / pi_reference(seq))."""
    _check_same_shape(policy, reference)
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    return beta * (sequence_log_prob(policy, seq) - sequence_log_prob(reference, seq))


def pair_margin(policy, reference, pair, beta: float) -> float:
    """Implicit reward of `pair.chosen` minus that of `pair.rejected`."""
    return implicit_reward(policy, reference, pair.chosen, beta) - implicit_reward(
        policy, reference, pair.rejected, beta
    )


def sample_sequence(policy, prompt_class: int, length: int, rng_seed: int) -> TokenSequence:
    """One sequence from the sampler synth uses; deterministic given the seed."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not 0 <= prompt_class < policy.num_prompt_classes:
        raise ValueError(
            f"prompt_class {prompt_class} out of range for {policy.num_prompt_classes} classes"
        )
    rng = np.random.default_rng(rng_seed)
    cdf = _next_token_cdf(policy.logits[prompt_class])
    return TokenSequence(prompt_class, _sample_tokens(cdf, length, rng))


def preference_probability(margin):
    """p = sigmoid(margin): the model's probability that chosen beats rejected."""
    return sigmoid(margin)


def classify_pair(reference, pair) -> Subgroup:
    """Subgroup of one pair, as encode_pairs labels it."""
    if encode_pairs(reference, [pair]).correct_at_init[0]:
        return Subgroup.CORRECT_AT_INIT
    return Subgroup.INCORRECT_AT_INIT
