"""The batched log-probability and gradient path against the independent
scalar log-softmax chain in _oracles, on random tables with logit scales up
to 50, and the blockwise gradient against its whole-table form."""

import numpy as np
import pytest

from focalpo.policy import (
    PolicyTable,
    log_prob_grad,
    log_probs,
    log_softmax,
    token_rows,
)

from _oracles import (
    scalar_log_prob,
    scalar_log_prob_grad,
    sequence_log_prob,
    sequence_log_prob_grad,
    whole_table_log_prob_grad,
)

TOLERANCE = dict(rtol=1e-12, atol=1e-12)


def random_case(rng, num_classes=3, vocab=7, length=6, num_rows=5):
    scale = rng.uniform(0.5, 50.0)
    logits = scale * rng.standard_normal((num_classes, vocab + 1, vocab))
    seqs = [
        (int(rng.integers(num_classes)), tuple(int(t) for t in rng.integers(0, vocab, size=length)))
        for _ in range(num_rows)
    ]
    return PolicyTable(logits), seqs


def encode(policy, seqs):
    """token_rows of (prompt_class, tokens) pairs."""
    classes, tokens = zip(*seqs)
    return token_rows(policy, classes, tokens)


def test_log_probs_match_scalar_chain():
    rng = np.random.default_rng(7)
    for _ in range(300):
        policy, seqs = random_case(rng)
        table = policy.logits.tolist()
        expected = [scalar_log_prob(table, c, tokens) for c, tokens in seqs]
        batched = log_probs(log_softmax(policy.logits), encode(policy, seqs))
        np.testing.assert_allclose(batched, expected, **TOLERANCE)
        one_row = [sequence_log_prob(policy, c, tokens) for c, tokens in seqs]
        np.testing.assert_allclose(one_row, expected, **TOLERANCE)


def test_log_prob_grad_matches_scalar_chain():
    rng = np.random.default_rng(8)
    for _ in range(300):
        policy, seqs = random_case(rng)
        table = policy.logits.tolist()
        coeffs = rng.uniform(-2.0, 2.0, size=len(seqs))
        expected = sum(
            coeff * scalar_log_prob_grad(table, c, tokens)
            for coeff, (c, tokens) in zip(coeffs, seqs)
        )
        batched = log_prob_grad(log_softmax(policy.logits), encode(policy, seqs), coeffs)
        np.testing.assert_allclose(batched, expected, **TOLERANCE)
        np.testing.assert_allclose(
            sequence_log_prob_grad(policy, *seqs[0]),
            scalar_log_prob_grad(table, *seqs[0]),
            **TOLERANCE,
        )


def test_log_prob_grad_is_bitwise_the_whole_table_expression():
    # blocks of classes change no arithmetic, so every bit (zero signs
    # included) matches the whole-table form: one block, blocks of several
    # classes with a short last block, and one class per block
    rng = np.random.default_rng(9)
    for num_classes, vocab in [(1, 1), (3, 7), (10, 31), (16, 64)]:
        policy, seqs = random_case(rng, num_classes, vocab, length=5, num_rows=40)
        log_table = log_softmax(policy.logits)
        rows = encode(policy, seqs)
        coeffs = rng.uniform(-2.0, 2.0, size=len(seqs))
        expected = whole_table_log_prob_grad(log_table, rows, coeffs)
        assert log_prob_grad(log_table, rows, coeffs).tobytes() == expected.tobytes()


def test_encoded_contexts_start_at_bos():
    # each token's index into the (C, V + 1, V) table is that of (prompt
    # class, previous token or the BOS context V, token), as numpy flattens it
    rng = np.random.default_rng(11)
    for num_classes, vocab, shape in [(1, 1, (3, 1)), (2, 3, (5, 4)), (4, 8, (6, 2, 4)),
                                      (16, 64, (9, 2, 16))]:
        policy = PolicyTable(np.zeros((num_classes, vocab + 1, vocab)))
        classes = rng.integers(num_classes, size=shape[0])
        tokens = rng.integers(vocab, size=shape)
        previous = np.concatenate([np.full((*shape[:-1], 1), vocab), tokens[..., :-1]], axis=-1)
        class_of_token = np.broadcast_to(classes.reshape(-1, *[1] * (len(shape) - 1)), shape)
        expected = np.ravel_multi_index(
            (class_of_token, previous, tokens), (num_classes, vocab + 1, vocab)
        )
        rows = token_rows(policy, classes, tokens)
        assert rows.dtype == np.int64 and rows.shape == shape
        assert rows.tolist() == expected.tolist()
    # worked by hand, C = 2 and V = 3: class 1 starts in context 1 * 4 + 3 = 7,
    # so its first token 2 sits at 7 * 3 + 2 = 23
    policy = PolicyTable(np.zeros((2, 4, 3)))
    rows = token_rows(policy, [1, 0], [(2, 0, 1), (0, 0, 2)])
    assert rows.tolist() == [[23, 18, 13], [9, 0, 2]]


def test_stacked_sides_match_separately_encoded_rows():
    # (N, 2, L) rows score each side as its own (N, L) rows do, and their
    # gradient adds up in the order of the two sides interleaved row by row
    rng = np.random.default_rng(10)
    for num_classes, vocab, length in [(1, 2, 1), (4, 8, 4), (16, 64, 16)]:
        policy, _ = random_case(rng, num_classes, vocab)
        log_table = log_softmax(policy.logits)
        classes = rng.integers(num_classes, size=30)
        sides = rng.integers(vocab, size=(30, 2, length))
        stacked = token_rows(policy, classes, sides)
        chosen, rejected = (token_rows(policy, classes, sides[:, k]) for k in (0, 1))
        expected = np.stack([log_probs(log_table, chosen), log_probs(log_table, rejected)], 1)
        assert log_probs(log_table, stacked).tobytes() == expected.tobytes()
        coeffs = rng.uniform(-2.0, 2.0, size=(30, 2))
        interleaved = token_rows(policy, np.repeat(classes, 2), sides.reshape(60, length))
        expected = log_prob_grad(log_table, interleaved, coeffs.ravel())
        assert log_prob_grad(log_table, stacked, coeffs).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "classes, tokens, message",
    [
        ([0, 2], [(0, 1), (1, 0)], "prompt_class 2 out of range for 2 classes"),
        ([0, -1], [(0, 1), (1, 0)], "prompt_class must be >= 0, got -1"),
        ([1, 0], [(0, 3), (1, 0)], "token 3 out of range for vocab size 3"),
        ([1, 0], [(0, 1), (-2, 0)], "token indices must be >= 0, got -2"),
    ],
)
def test_encoder_rejects_indices_out_of_range(classes, tokens, message):
    policy = PolicyTable(np.zeros((2, 4, 3)))
    with pytest.raises(IndexError, match=f"^{message}$"):
        token_rows(policy, classes, tokens)
