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
gives it, one row at a time. The policy file oracles are save_policy and
load_policy as they stood before the vectorized writer and the C reader,
kept verbatim: a `%` template per row, and a line-by-line parse whose
messages are the only error messages of the format.

The bitwise oracles are the loss zoo as it stood before logistic: three
checked primitives and the two four-way branch ladders over the variants,
kept verbatim. The loss zoo must match them byte for byte. The tabled
CSV kernel is the `%.9g` block writer as it stood before it shared the
policy writer's digit split and word fill: 4-digit lookup tables read off
`%.9g`, kept verbatim but for its name (table_format_block), with the
separator in byte 5 of a row's fourth word. policytext.format_block must
return its text for a 3-word `out`, or decline where it declines.

The one-sequence helpers state single-sequence and single-pair quantities
(log-probability, gradient, implicit reward, margin, subgroup, a sampled
sequence) through the batched path of focalpo, one row at a time; only the
tests need them in that form. A sequence is a prompt class and its tokens.
The reward oracle sums a sequence's token weights one at a time, and the
dataset helpers move between a Dataset's columns and one tuple per pair.
"""

import hashlib
import io
import itertools
import math

import mpmath as mp
import numpy as np

from focalpo.data import Dataset, _next_token_cdf, _sample_tokens, encode_pairs
from focalpo.files import atomic_write
from focalpo.losses import (
    LossConfig,
    LossVariant,
    _checked,
    _open_unit,
    clamp_probability,
    logistic,
)
from focalpo.policy import (
    PolicyTable,
    log_prob_grad,
    log_probs,
    log_softmax,
    random_policy,
    token_rows,
)
from focalpo.trainer import CORRECT, INCORRECT, _check_same_shape

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


def _finite(name: str, x) -> np.ndarray:
    return _checked(x, np.isfinite, f"{name} must be finite")


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), clamped into the open unit interval.

    Branches on the sign of x so the exponential argument is never positive;
    large |x| therefore cannot overflow.
    """
    x = _finite("sigmoid argument", x)
    e = np.exp(-np.abs(x))
    return clamp_probability(np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)))[()]


def log_sigmoid(x):
    """log(sigmoid(x)) computed as -softplus(-x).

    Accurate for |x| up to at least 700: no intermediate overflow, and the
    log1p form avoids the cancellation of log(1 - small) near saturation.
    Always <= 0.
    """
    x = _finite("log_sigmoid argument", x)
    tail = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0.0, -tail, x - tail)[()]


def pow_via_exp(p, g):
    """p**g for p in (0, 1), computed as exp(g * log(p)).

    Exactly 1.0 when g == 0. The base is clamped before the log, so callers
    may pass probabilities arbitrarily close to the endpoints, but values at
    or beyond 0 and 1 are rejected.
    """
    g = _finite("exponent", g)
    p = _open_unit("base", p)
    # The clamped log is finite, so g == 0 gives exp(0) == 1.0 exactly.
    return np.exp(g * np.log(clamp_probability(p)))[()]


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


def ladder_pair_loss(config: LossConfig, margin) -> tuple:
    """(loss, weight) at the margins, as the ladders give them."""
    p, s, log_p = sigmoid(margin), sigmoid(-margin), log_sigmoid(margin)
    factor = _factor(config, p, s)
    return factor * -log_p, _weight(config, factor, p, s, log_p)


def ladder_modulating_factor(config: LossConfig, p):
    p = _open_unit("p", p)
    return _factor(config, p, 1.0 - p)


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
    exp(log_table) * -visits + counts, the same arithmetic per entry. The
    visited contexts come from unravelling the flat indices of token_rows."""
    num_classes, num_contexts, vocab = log_table.shape
    flat = rows.ravel()
    weights = np.repeat(coeffs.ravel(), rows.shape[-1])
    classes, previous, _ = np.unravel_index(flat, log_table.shape)
    contexts = classes * num_contexts + previous
    visits = np.bincount(contexts, weights, minlength=num_classes * num_contexts)
    counts = np.bincount(flat, weights, minlength=log_table.size)
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


def template_save_policy(path, policy: PolicyTable) -> None:
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


def line_load_policy(path) -> PolicyTable:
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


# ------------------------------------------------ the tabled %.9g kernel


def _tables():
    """Tables read off `%.9g` itself; row e + 300 of heads, tails and keys serves exponent e."""
    powers = np.array([float(f"1e{k}") for k in range(-292, 310)])  # 1e309 is inf
    texts = ["%.9g" % float(f"1e{e}") for e in range(-300, 301)]
    # a sign byte, "0." and the zeros of a fixed value below 1, first digit, point
    heads = np.array([(b"\0" + t[:t.index("1")].encode()).ljust(7, b"\0") + b"." for t in texts],
                     "S8").view("<u8")
    tails = np.array([t[t.index("e"):].encode() if "e" in t else b"" for t in texts], "S8")
    keys = (np.clip(np.arange(-300, 301), -5, 9) + 5) * 9 + 8
    i = np.arange(10000)
    digits = sum((i // 10 ** (3 - k) % 10 + 48).astype(np.uint64) << 16 * k for k in range(4))
    digits |= np.frombuffer(b"\0." * 4, "<u8")  # four digits, each with a point
    zeros = sum((i % 10**k == 0).astype(np.intp) for k in range(1, 5))  # trailing, 4 for 0
    # per key 9 * case + n - 1 (notation case, n significant digits): the bytes
    # of the first three words that the text shows; the six head bytes always,
    # then digit j at byte 6 + 2j and its point at 7 + 2j ("12.3" as "1 2.3")
    samples = ["%.9g" % float(f"{'123456789'[:n]}e{case - 4 - n}")
               for case in range(15) for n in range(1, 10)]
    shown = [" ".join(t.partition("e")[0].removeprefix("0.").lstrip("0")) for t in samples]
    masks = np.array([b"#" * 6 + t.replace(" . ", ".").encode() for t in shown], "S24")
    masks = ((masks.view(np.uint8) > ord(" ")) * np.uint8(0xFF)).reshape(135, 24)
    return powers, heads, tails.view("<u8"), keys, digits, zeros, masks.view("<u8").T.copy()


_POWERS, _HEADS, _TAILS, _KEYS, _DIGITS, _ZEROS, _MASKS = _tables()


def table_format_block(values: np.ndarray, seps: np.ndarray, out: np.ndarray) -> str | None:
    """Each value as `%.9g` followed by its separator, or None when a value
    needs the exact path: zero, non-finite, |x| outside [1e-300, 1e300], or
    near a rounding boundary.

    With e = floor(log10|x|) and s = |x| * 10**(8 - e), both factors
    correctly rounded, s is within 2.3e-7 of the exact product while s < 1e9,
    so m = rint(s) is the correctly rounded 9-digit significand whenever
    1e8 <= m < 1e9 and |s - m| < 0.5 - 1e-6. A misestimated e, a round-up to
    the next power of ten and any near-tie fail that check, except that
    log10 of x a few ulps below 10**k may round up to k: then m = 1e8, which
    is also the text of x rounded at exponent k - 1.

    Each value fills a row of `out`, (len(values), 4) uint64: sign, head and
    first digit; eight digits; tail and the separator that `seps` holds in
    byte 5. Bytes the text does not show are NUL, and one pass drops them.
    """
    a = np.abs(values)
    if not (a.min() >= 1e-300 and a.max() <= 1e300):
        return None
    e = np.floor(np.log10(a)).astype(np.intp) + 300  # the table row of the exponent
    s = a * _POWERS[600 - e]
    m = np.rint(s)
    if not (m.min() >= 1e8 and m.max() < 1e9 and np.abs(s - m).max() < 0.5 - 1e-6):
        return None
    q = np.floor(m / 1e4)  # m = d0 * 1e8 + g1 * 1e4 + g2, each quotient exact
    d0 = np.floor(q / 1e4)
    g1, g2 = (q - d0 * 1e4).astype(np.intp), (m - q * 1e4).astype(np.intp)
    key = _KEYS[e] - _ZEROS[g2] - (g2 == 0) * _ZEROS[g1]
    head = _HEADS[e] | (d0.astype(np.uint64) + 48) << 48 | (values < 0) * np.uint64(ord("-"))
    np.bitwise_and(head, _MASKS[0, key], out=out[:, 0])
    np.bitwise_and(_DIGITS[g1], _MASKS[1, key], out=out[:, 1])
    np.bitwise_and(_DIGITS[g2], _MASKS[2, key], out=out[:, 2])
    np.add(_TAILS[e], seps, out=out[:, 3])
    return out.tobytes().translate(None, b"\0").decode("ascii")


# --------------------------------------------------- one-sequence helpers


def uniform_policy(num_prompt_classes: int, vocab_size: int) -> PolicyTable:
    """All-zero logits: every next-token distribution is uniform."""
    logits = np.zeros((num_prompt_classes, vocab_size + 1, vocab_size))
    return PolicyTable(logits)


def scaled_random_policy(num_prompt_classes: int, vocab_size: int, seed: int, scale: float):
    """random_policy with every logit multiplied by scale: normal(0, scale)
    logits from a fixed seed."""
    logits = random_policy(num_prompt_classes, vocab_size, seed).logits
    return PolicyTable(scale * logits)


def checksum(policy: PolicyTable) -> str:
    """SHA-256 of the raw logit bytes; used to assert immutability."""
    return hashlib.sha256(policy.logits.tobytes()).hexdigest()


def make_dataset(rows) -> Dataset:
    """A Dataset from (pair_id, prompt_class, chosen, rejected,
    reward_chosen, reward_rejected, label_flipped) tuples, one per pair."""
    dtypes = (np.int64,) * 4 + (np.float64,) * 2 + (bool,)
    return Dataset(*(np.array(column, dtype) for column, dtype in zip(zip(*rows), dtypes)))


def dataset_rows(dataset: Dataset) -> list:
    """The pairs of a Dataset as the tuples make_dataset takes, in Python
    values with token tuples."""
    columns = [column.tolist() for column in dataset]
    columns[2:4] = [list(map(tuple, tokens)) for tokens in columns[2:4]]
    return list(zip(*columns))


def pairs_of(dataset: Dataset) -> list:
    """(prompt_class, chosen tokens, rejected tokens) of every pair."""
    return [(c, chosen, rejected) for _, c, chosen, rejected, *_ in dataset_rows(dataset)]


def true_reward(weights, prompt_class: int, tokens) -> float:
    """Sum of the per-token weights weights[prompt_class, t], one token at
    a time from the left; indices out of range raise ValueError."""
    num_classes, vocab = weights.shape
    if prompt_class >= num_classes:
        raise ValueError(f"prompt_class {prompt_class} out of range for reward model")
    total = 0.0
    for t in tokens:
        if t >= vocab:
            raise ValueError(f"token {t} out of range for reward model vocab {vocab}")
        total += float(weights[prompt_class, t])
    return total


def sequence_log_prob(policy: PolicyTable, prompt_class: int, tokens) -> float:
    """log pi(tokens | prompt_class) from the batched path, one row."""
    rows = token_rows(policy, [prompt_class], [tokens])
    return float(log_probs(log_softmax(policy.logits), rows)[0])


def sequence_log_prob_grad(policy: PolicyTable, prompt_class: int, tokens) -> np.ndarray:
    """d(log pi(tokens | prompt_class))/d(logits) from the batched path, one row."""
    rows = token_rows(policy, [prompt_class], [tokens])
    return log_prob_grad(log_softmax(policy.logits), rows, np.ones(1))


def implicit_reward(policy, reference, prompt_class: int, tokens, beta: float) -> float:
    """beta * log(pi_policy(tokens) / pi_reference(tokens))."""
    _check_same_shape(policy, reference.logits.shape)
    if not beta > 0.0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    return beta * (
        sequence_log_prob(policy, prompt_class, tokens)
        - sequence_log_prob(reference, prompt_class, tokens)
    )


def pair_margin(policy, reference, prompt_class: int, chosen, rejected, beta: float) -> float:
    """Implicit reward of the chosen tokens minus that of the rejected ones."""
    return implicit_reward(policy, reference, prompt_class, chosen, beta) - implicit_reward(
        policy, reference, prompt_class, rejected, beta
    )


def sample_sequence(policy, prompt_class: int, length: int, rng_seed: int) -> tuple:
    """The tokens of one sequence from the sampler synth uses; deterministic
    given the seed."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not 0 <= prompt_class < policy.num_prompt_classes:
        raise ValueError(
            f"prompt_class {prompt_class} out of range for {policy.num_prompt_classes} classes"
        )
    rng = np.random.default_rng(rng_seed)
    cdf = _next_token_cdf(policy.logits[prompt_class])
    return _sample_tokens(cdf, length, rng)


def preference_probability(margin):
    """p = sigmoid(margin): the model's probability that chosen beats rejected."""
    return logistic(margin)[0]


def classify_pair(reference, prompt_class: int, chosen, rejected) -> str:
    """The subgroup name of one pair, as encode_pairs labels it."""
    pair = make_dataset([(0, prompt_class, chosen, rejected, 0.0, 0.0, False)])
    return CORRECT if encode_pairs(reference, pair).correct_at_init[0] else INCORRECT
