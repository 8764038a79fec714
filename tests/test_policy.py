"""Tabular policy tests: exact log-probabilities, analytic gradients against
finite differences, the batched log-probability and gradient path against
the independent scalar log-softmax chain in _oracles (random tables with
logit scales up to 50) and the blockwise gradient against its whole-table
form, sampling statistics, and the text round trip."""

import io
import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    implicit_reward,
    legacy_policy_text,
    line_load_policy,
    pair_margin,
    sample_sequence,
    savetxt_csv_text,
    scalar_log_prob,
    scalar_log_prob_grad,
    scaled_random_policy,
    scan_sample_tokens,
    sequence_log_prob,
    sequence_log_prob_grad,
    template_save_policy,
    uniform_policy,
    whole_table_log_prob_grad,
)
from focalpo import policy, policytext
from focalpo.data import _next_token_cdf, _sample_tokens
from focalpo.policy import (
    BLOCK_VALUES,
    PolicyTable,
    load_policy,
    log_prob_grad,
    log_probs,
    log_softmax,
    random_policy,
    save_policy,
    token_rows,
)
from focalpo.policytext import format_block, write_blocks


class TestSequenceLogProb:
    def test_uniform_policy(self):
        policy = uniform_policy(1, 4)
        seq = 0, (0, 1, 2)
        assert sequence_log_prob(policy, *seq) == pytest.approx(
            -4.1588830833596715, abs=1e-12
        )  # 3 * ln(1/4)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            policy = scaled_random_policy(3, 5, int(rng.integers(1 << 30)), 4.0)
            tokens = tuple(int(t) for t in rng.integers(0, 5, size=6))
            assert sequence_log_prob(policy, 1, tokens) <= 0.0

    def test_two_token_chain(self):
        # BOS row [1, 0] then context-0 row [0, 0]:
        # log(e / (e + 1)) + log(1/2), hand-checked by enumeration below
        logits = np.zeros((1, 3, 2))
        logits[0, 2] = [1.0, 0.0]  # BOS context
        policy = PolicyTable(logits)
        lp = sequence_log_prob(policy, 0, (0, 1))
        assert lp == pytest.approx(-1.0064088680781682, abs=1e-12)
        total = sum(
            math.exp(sequence_log_prob(policy, 0, tokens))
            for tokens in itertools.product(range(2), repeat=2)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_normalization(self):
        policy = scaled_random_policy(2, 4, 11, 2.0)
        for prompt_class in range(2):
            total = sum(
                math.exp(sequence_log_prob(policy, prompt_class, tokens))
                for tokens in itertools.product(range(4), repeat=3)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_per_context_normalization(self):
        policy = scaled_random_policy(3, 6, 5, 3.0)
        logits = policy.logits
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_softmax = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(np.exp(log_softmax).sum(axis=-1), 1.0, atol=1e-12)

    def test_out_of_range_errors(self):
        policy = uniform_policy(2, 4)
        with pytest.raises(IndexError):
            sequence_log_prob(policy, 2, (0,))
        with pytest.raises(IndexError):
            sequence_log_prob(policy, 0, (4,))


class TestSequenceLogProbGrad:
    def test_entries_sum_to_zero_per_context(self):
        policy = scaled_random_policy(2, 5, 9, 2.0)
        seq = 1, (3, 3, 0, 2)
        grad = sequence_log_prob_grad(policy, *seq)
        np.testing.assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-12)

    def test_uniform_policy_entry(self):
        policy = uniform_policy(1, 4)
        grad = sequence_log_prob_grad(policy, 0, (2,))
        bos = policy.vocab_size
        assert grad[0, bos, 2] == pytest.approx(0.75, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            policy = scaled_random_policy(2, 5, int(rng.integers(1 << 30)), 1.5)
            tokens = tuple(int(t) for t in rng.integers(0, 5, size=4))
            seq = int(rng.integers(0, 2)), tokens
            grad = sequence_log_prob_grad(policy, *seq)
            fd = np.zeros_like(grad)
            for idx in np.ndindex(*grad.shape):
                policy.logits[idx] += h
                up = sequence_log_prob(policy, *seq)
                policy.logits[idx] -= 2 * h
                down = sequence_log_prob(policy, *seq)
                policy.logits[idx] += h
                fd[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_bounded_by_sequence_length(self):
        policy = scaled_random_policy(2, 5, 1, 5.0)
        seq = 0, (1, 1, 1, 1, 1, 1)
        grad = sequence_log_prob_grad(policy, *seq)
        assert np.abs(grad).max() <= len(seq[1])


class TestImplicitRewardAndMargin:
    def test_zero_against_itself(self):
        policy = random_policy(2, 4, seed=3)
        seq = 0, (1, 2)
        assert implicit_reward(policy, PolicyTable(policy.logits.copy()), *seq, beta=0.01) == 0.0

    def test_linear_in_beta(self):
        policy = random_policy(2, 4, seed=3)
        reference = random_policy(2, 4, seed=4)
        seq = 1, (0, 3, 2)
        beta = 0.01
        assert implicit_reward(policy, reference, *seq, 2 * beta) == pytest.approx(
            2 * implicit_reward(policy, reference, *seq, beta), rel=1e-15
        )

    def test_direct_product(self):
        policy = random_policy(1, 3, seed=8)
        reference = random_policy(1, 3, seed=9)
        seq = 0, (1, 0)
        delta_log = sequence_log_prob(policy, *seq) - sequence_log_prob(reference, *seq)
        assert implicit_reward(policy, reference, *seq, 0.01) == pytest.approx(
            0.01 * delta_log, rel=1e-15
        )

    def test_shape_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            implicit_reward(
                random_policy(2, 4, seed=0), random_policy(2, 5, seed=0), 0, (1,), 0.01
            )

    def test_margin_zero_at_reference(self):
        reference = random_policy(2, 4, seed=21)
        pair = 0, (1, 2), (2, 1)
        assert pair_margin(PolicyTable(reference.logits.copy()), reference, *pair, beta=0.01) == 0.0

    def test_margin_antisymmetry(self):
        policy = random_policy(2, 4, seed=22)
        reference = random_policy(2, 4, seed=23)
        pair = 1, (0, 3), (3, 0)
        swapped = 1, (3, 0), (0, 3)
        assert pair_margin(policy, reference, *pair, 0.01) == -pair_margin(
            policy, reference, *swapped, 0.01
        )

    def test_margin_recomputation(self):
        policy = random_policy(1, 2, seed=30)
        reference = random_policy(1, 2, seed=31)
        chosen, rejected = (0, 1), (1, 0)
        beta = 0.25
        expected = beta * (
            (sequence_log_prob(policy, 0, chosen) - sequence_log_prob(reference, 0, chosen))
            - (sequence_log_prob(policy, 0, rejected) - sequence_log_prob(reference, 0, rejected))
        )
        assert pair_margin(policy, reference, 0, chosen, rejected, beta) == pytest.approx(
            expected, rel=1e-15
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


class TestSampling:
    def test_deterministic_given_seed(self):
        policy = random_policy(3, 6, seed=17)
        a = sample_sequence(policy, 2, 5, rng_seed=99)
        b = sample_sequence(policy, 2, 5, rng_seed=99)
        assert a == b

    def test_uniform_frequencies(self):
        policy = uniform_policy(1, 4)
        cdf = _next_token_cdf(policy.logits[0])
        rng = np.random.default_rng(7)
        counts = np.zeros(4)
        for _ in range(100_000):
            counts[_sample_tokens(cdf, 1, rng)[0]] += 1
        np.testing.assert_allclose(counts / 100_000, 0.25, atol=0.01)

    def test_degenerate_policy_saturates(self):
        policy = uniform_policy(1, 4)
        policy.logits[0, policy.vocab_size, 2] = 50.0  # the BOS context
        cdf = _next_token_cdf(policy.logits[0])
        rng = np.random.default_rng(5)
        hits = sum(_sample_tokens(cdf, 1, rng)[0] == 2 for _ in range(1000))
        assert hits / 1000 > 0.999

    def test_invalid_arguments(self):
        policy = uniform_policy(2, 4)
        with pytest.raises(ValueError):
            sample_sequence(policy, 0, 0, rng_seed=0)
        with pytest.raises(ValueError):
            sample_sequence(policy, 5, 3, rng_seed=0)


class ScriptedDraws:
    """Stands in for a Generator: hands out the given uniforms in order,
    one per scalar draw or `size` at a time."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


def _edge_table():
    """A (2, 11, 10) table with a saturated context, where logits near 800
    leave zero probabilities and a CDF of repeated values, and uniform
    contexts, whose ten running sums of 0.1 end below 1."""
    logits = 4.0 * random_policy(2, 10, seed=3).logits
    logits[0, 10] = 0.0  # uniform BOS context of class 0
    logits[0, 10, 4] = 800.0
    logits[0, 10, 7] = 799.5
    logits[0, 4] = -800.0
    logits[0, 4, 1] = 800.0
    logits[1, :] = 0.0
    return logits


class TestSamplerOracle:
    """The CDF-table sampler against the per-step scan it replaces: the same
    tokens and the same generator state afterwards."""

    @pytest.mark.parametrize("classes, vocab, length, scale", [
        (1, 1, 3, 1.0), (1, 2, 5, 1.0), (3, 6, 8, 1.0), (4, 8, 4, 3.0),
        (2, 64, 16, 1.0), (2, 17, 9, 40.0),
    ])
    def test_matches_scan_sampler(self, classes, vocab, length, scale):
        logits = scale * random_policy(classes, vocab, seed=vocab).logits
        cdf = _next_token_cdf(logits)
        for seed in range(5):
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for c in range(classes):
                expected = scan_sample_tokens(logits, c, length, old_rng)
                assert _sample_tokens(cdf[c], length, new_rng) == expected
            assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_saturated_and_short_rows(self):
        logits = _edge_table()
        cdf = _next_token_cdf(logits)
        assert cdf[0, 10, 0] == 0.0 and cdf[0, 4, 1] == cdf[0, 4, -1] == 1.0
        assert cdf[1, 10, -1] < 1.0
        for seed in range(20):
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for c in (0, 1):
                expected = scan_sample_tokens(logits, c, 12, old_rng)
                assert _sample_tokens(cdf[c], 12, new_rng) == expected
            assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_scripted_draws_on_ties_and_fall_through(self):
        logits = _edge_table()
        cdf = _next_token_cdf(logits)
        largest_draw = float(np.nextafter(1.0, 0.0))
        assert cdf[1, 10, -1] <= largest_draw  # the scan falls through here
        # draws equal to CDF entries, zero, and the largest value below 1
        draws = [0.0, largest_draw, *cdf[1, 10, :4].tolist(), largest_draw, 0.5]
        for c in (0, 1):
            expected = scan_sample_tokens(logits, c, len(draws), ScriptedDraws(draws))
            assert _sample_tokens(cdf[c], len(draws), ScriptedDraws(draws)) == expected
        assert _sample_tokens(cdf[1], 2, ScriptedDraws([largest_draw] * 2)) == (9, 9)

    def test_class_rows_give_the_same_cdf(self):
        logits = 5.0 * random_policy(3, 7, seed=11).logits
        whole = _next_token_cdf(logits)
        for c in range(3):
            assert _next_token_cdf(logits[c]).tobytes() == whole[c].tobytes()

    def test_sample_sequence_matches_scan_sampler(self):
        policy = random_policy(3, 6, seed=17)
        for seed in range(5):
            expected = scan_sample_tokens(policy.logits, 2, 7, np.random.default_rng(seed))
            assert sample_sequence(policy, 2, 7, rng_seed=seed) == expected


class TestSerialization:
    def test_round_trip_is_value_exact(self, tmp_path):
        policy = scaled_random_policy(3, 5, 77, 13.7)
        path = tmp_path / "policy.txt"
        save_policy(path, policy)
        loaded = load_policy(path)
        assert loaded.num_prompt_classes == 3 and loaded.vocab_size == 5
        assert np.array_equal(loaded.logits, policy.logits)

    def test_save_is_byte_stable(self, tmp_path):
        policy = random_policy(2, 4, seed=5)
        save_policy(tmp_path / "a.txt", policy)
        save_policy(tmp_path / "b.txt", policy)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_header_and_row_count(self, tmp_path):
        policy = random_policy(2, 4, seed=5)
        path = tmp_path / "policy.txt"
        save_policy(path, policy)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 4"
        assert len(lines) == 1 + 2 * 5

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(
                st.integers(1, 3), st.integers(1, 5)
            ).map(lambda cv: (cv[0], cv[1] + 1, cv[1])),
            elements=st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(
                    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
                ),
            ),
        )
    )
    def test_text_matches_per_value_format_and_round_trips(self, logits):
        policy = PolicyTable(logits)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.txt"
            save_policy(path, policy)
            assert path.read_bytes() == legacy_policy_text(logits).encode("utf-8")
            loaded = load_policy(path)
        assert loaded.logits.tobytes() == logits.tobytes()

    def test_blank_lines_are_skipped_and_rows_counted_first(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("1 1\n\n0.5\n  \n-2\n\n")
        assert load_policy(path).logits.ravel().tolist() == [0.5, -2.0]
        # a wrong row count is reported before any row is parsed
        path.write_text("1 1\nzz\n")
        with pytest.raises(ValueError, match="expected 2 context rows .* got 1"):
            load_policy(path)
        path.write_text("1 1\n1\nzz\n")
        with pytest.raises(ValueError, match="line 3: malformed float"):
            load_policy(path)
        # messages name the physical line, blank lines included
        path.write_text("1 1\n\n1\nzz\n")
        with pytest.raises(ValueError, match="line 4: malformed float"):
            load_policy(path)
        path.write_text("1 1\n\n1\n\n1 2\n")
        with pytest.raises(ValueError, match="line 5: expected 1 values, got 2"):
            load_policy(path)
        # only a newline ends a row: form feeds, NEL and the like are whitespace
        path.write_text("1 1\n0.5\x0c0.25\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 context rows .* got 1"):
            load_policy(path)
        path.write_text("1 1\n0.5\x0c0.25\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected 1 values, got 2"):
            load_policy(path)
        path.write_text("1 2\n0.5 0.5\x85\nzz 1\n0.1 0.2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: malformed float"):
            load_policy(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_logit_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"1 2\n0.5 {value}\n0 0\n1 1\n")
        message = f"{path}: line 2: logits must be finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_policy(path)

    def test_malformed_files_raise(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_policy(path)
        path.write_text("2 4\n1 2 3\n")
        with pytest.raises(ValueError):
            load_policy(path)
        for header, message in (
            ("1 2 3", "expected header 'C V', got '1 2 3'"),
            ("a b", "malformed header 'a b'"),
        ):
            path.write_text(f"{header}\n")
            with pytest.raises(ValueError) as info:
                load_policy(path)
            assert str(info.value) == f"{path}: line 1: {message}"

    @pytest.mark.parametrize("header", ["0 8", "-1 8", "2 0"])
    def test_header_sizes_below_one_name_the_line(self, tmp_path, header):
        path = tmp_path / "policy.txt"
        path.write_text(f"{header}\n")
        message = f"{path}: line 1: C and V must be >= 1, got {header!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_policy(path)


# Values at the edges of exact 17-digit text: signed zeros, subnormals,
# %.17g ties (2**-25 and 3 * 2**-25 have 18 significant digits, the last a
# 5, so the 17th rounds to even: down, and up), the switches between fixed
# and exponent notation, doubles just below powers of ten (1e-14 is one
# whose 17 digits round up to the power itself), and integers past 2**53.
EDGE_LOGITS = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
    2.0**-25, -(2.0**-25), 3 * 2.0**-25, 1e-14, 1e-5, -1e-5, 1e-4, 9.999999999999999e-05, 0.1,
    1 / 3, 0.5, 1.0, -1.0, 100.0, 1e16, -1e16, 1e17, 1e22, 1e23, 1.7976931348623157e308,
    *(float(np.nextafter(10.0**k, 0.0)) for k in (-5, -4, -1, 0, 1, 2, 15, 16, 17, 22)),
    2.0**53, 2.0**53 + 2, -(2.0**63), 12345678901234567.0, 99999999999999984.0, 123456.0,
)


def normal_logits(num_classes, vocab, seed):
    return np.random.default_rng(seed).standard_normal((num_classes, vocab + 1, vocab))


def edge_table():
    """A (2, 65, 64) table of three 4,096-value blocks: the first all
    standard normal, the edge values spread over the second, and a few in
    the 128-value tail."""
    logits = normal_logits(2, 64, seed=3)
    flat = logits.reshape(-1)
    flat[4096 + 37 * np.arange(len(EDGE_LOGITS))] = EDGE_LOGITS
    flat[-len(EDGE_LOGITS[:8]):] = EDGE_LOGITS[:8]
    return PolicyTable(logits)


def load_outcome(load, path):
    """The table's bytes, or the type and message of the ValueError."""
    try:
        return load(path).logits.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


# Edits a policy text may suffer: underscores and non-ASCII digits that
# float() takes, other line ends, comments, non-finite and malformed
# literals, Unicode whitespace, and whole extra fields and rows.
FUZZ_TOKENS = (
    "1_0", "\u0661\u0662", "\uff11", "\r", "\r\n", "#", "# 1", "\n", "\n\n", " ", "\t", "inf",
    "-inf", "nan", "infinity", "1e999", "0x1p3", "1,5", "+.5", "5.", "e5", "-", "1.5j", "'1'",
    "\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\xa0", "\x00", "1 2", "0 0 0",
)


# Whole fields a policy text may hold in place of a value: forms float()
# takes and numpy's parser may not, non-finite and malformed literals.
FIELD_TOKENS = (
    "1_0", "\u0661\u0662", "\uff11.5", "+.5", "5.", "-0", "1e-400", "1E5", "0.1e+2", "inf",
    "-inf", "nan", "infinity", "1e999", "0x1p3", "1.5j", "'1'", "1,5", "1d5", "#1", "e5", "--1",
    "\x00", "\u00b2",
)


class TestPolicyTextOracle:
    """save_policy and load_policy against their line-at-a-time forms in
    _oracles, on README-size tables and on tables of one block (4,096
    values) and more."""

    def test_edge_table_saves_to_the_template_bytes(self, tmp_path):
        policy = edge_table()
        save_policy(tmp_path / "fast.txt", policy)
        template_save_policy(tmp_path / "template.txt", policy)
        text = (tmp_path / "fast.txt").read_bytes()
        assert text == (tmp_path / "template.txt").read_bytes()
        assert text == legacy_policy_text(policy.logits).encode()
        assert load_policy(tmp_path / "fast.txt").logits.tobytes() == policy.logits.tobytes()

    @pytest.mark.parametrize("value", EDGE_LOGITS)
    def test_one_edge_value_in_a_normal_block(self, tmp_path, value):
        logits = normal_logits(1, 64, seed=11)
        logits[0, 40, 17] = value
        save_policy(tmp_path / "fast.txt", PolicyTable(logits))
        template_save_policy(tmp_path / "template.txt", PolicyTable(logits))
        assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "template.txt").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 40.0])
    def test_normal_tables_round_trip_through_both_paths(self, tmp_path, seed, scale):
        policy = PolicyTable(normal_logits(2, 64, seed) * scale)
        path = tmp_path / "policy.txt"
        save_policy(path, policy)
        assert path.read_bytes() == legacy_policy_text(policy.logits).encode()
        assert load_policy(path).logits.tobytes() == policy.logits.tobytes()
        assert line_load_policy(path).logits.tobytes() == policy.logits.tobytes()

    def test_a_header_alone_is_refused_without_a_warning(self, tmp_path, recwarn):
        # numpy's parser warns on text without rows; the line path words the error
        path = tmp_path / "policy.txt"
        path.write_text("2 64\n\n")
        with pytest.raises(ValueError, match="expected 130 context rows for C=2 V=64, got 0"):
            load_policy(path)
        assert not recwarn.list

    def test_the_kernel_writes_a_table_of_a_block_or_more(self, tmp_path, monkeypatch):
        def counted(values, seps, out):
            blocks.append(len(values))
            return format_block(values, seps, out)

        blocks = []
        monkeypatch.setattr(policytext, "format_block", counted)
        save_policy(tmp_path / "small.txt", PolicyTable(normal_logits(2, 44, seed=1)))
        assert blocks == []  # 3,960 values: the row template alone
        logits = normal_logits(2, 45, seed=1)  # 4,140 values: 91 rows of 45, then 1
        save_policy(tmp_path / "wide.txt", PolicyTable(logits))
        assert blocks == [4095, 45]
        assert (tmp_path / "wide.txt").read_bytes() == legacy_policy_text(logits).encode()

    def test_the_c_parser_reads_every_table(self, tmp_path, monkeypatch):
        def line_path(fh):
            raise AssertionError("read line by line")

        small, wide = tmp_path / "small.txt", tmp_path / "wide.txt"
        save_policy(small, PolicyTable(normal_logits(2, 44, seed=1)))  # 3,960 values
        save_policy(wide, PolicyTable(normal_logits(2, 45, seed=1)))  # 4,140 values
        monkeypatch.setattr(policy, "_rows", line_path)
        assert load_policy(small).logits.tobytes() == normal_logits(2, 44, seed=1).tobytes()
        assert load_policy(wide).logits.tobytes() == normal_logits(2, 45, seed=1).tobytes()

    @pytest.mark.parametrize("num_classes, vocab", [(2, 64), (4, 8)])
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 129), st.integers(0, 63),
                              st.sampled_from(FIELD_TOKENS)), min_size=1, max_size=3))
    def test_fuzzed_fields_load_as_the_oracle_loads_them(self, num_classes, vocab, edits):
        rows = [line.split(" ") for line in
                legacy_policy_text(normal_logits(num_classes, vocab, seed=6)).splitlines()[1:]]
        for row, column, token in edits:
            rows[row % len(rows)][column % vocab] = token
        text = f"{num_classes} {vocab}\n" + "".join(" ".join(row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.txt"
            path.write_bytes(text.encode("utf-8"))
            assert load_outcome(load_policy, path) == load_outcome(line_load_policy, path)

    @pytest.mark.parametrize("num_classes, vocab", [(1, 64), (4, 8)])
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 3),
                              st.sampled_from(FUZZ_TOKENS)), min_size=1, max_size=3))
    def test_fuzzed_text_loads_as_the_oracle_loads_it(self, num_classes, vocab, edits):
        text = legacy_policy_text(normal_logits(num_classes, vocab, seed=5))
        for at, deleted, token in sorted(edits, reverse=True):
            i = int(at * len(text))
            text = text[:i] + token + text[i + deleted:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.txt"
            path.write_bytes(text.encode("utf-8"))
            assert load_outcome(load_policy, path) == load_outcome(line_load_policy, path)


class TestBlockWriter:
    """policytext.write_blocks, the one block writer of the policy tables
    and the curve CSVs, against the `%` row template and each format's
    oracle, with the block that holds the middle row declined."""

    # one row, or a block of rows and one less or more
    @pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["1", "-1", "block", "+1"])
    @pytest.mark.parametrize("line, declined", [
        # a policy table of V = 64, whose kernel declines a zero
        (" ".join(["%.17g"] * 64) + "\n", 0.0),
        # a 4-column CSV, whose kernel declines a near-tie of the 9th digit
        (",".join(["%.9g"] * 4) + "\n", 1.000000005),
    ], ids=["%.17g", "%.9g"])
    def test_both_formats_match_the_template_and_oracle(self, monkeypatch, line, declined,
                                                        offset):
        ncols = line.count("%")
        block = BLOCK_VALUES // ncols
        nrows = 1 if offset is None else block + offset
        table = np.random.default_rng(nrows).standard_normal((nrows, ncols))
        table[nrows // 2, ncols // 2] = declined
        columns = {f"c{j}": table[:, j] for j in range(ncols)}
        results, widths = [], set()

        def recorded(values, seps, out):
            widths.add(out.shape[1])  # the template's precision picks the format
            results.append(format_block(values, seps, out))
            return results[-1]

        monkeypatch.setattr(policytext, "format_block", recorded)
        fh = io.StringIO()
        write_blocks(fh, line, nrows, lambda s: np.column_stack([c[s] for c in columns.values()]))
        assert widths == {3 if "%.9g" in line else 4}
        assert [text is None for text in results] == [
            start <= nrows // 2 < start + block for start in range(0, nrows, block)]
        assert fh.getvalue() == line * nrows % tuple(table.ravel().tolist())
        if "%.9g" in line:
            oracle = savetxt_csv_text(columns)
        else:
            oracle = legacy_policy_text(table[None])
        assert fh.getvalue() == oracle.partition("\n")[2]


def kernel_text(values, seps):
    """format_block's text for float64 values, each followed by its one-byte
    separator, or None where it declines the block."""
    values = np.asarray(values, np.float64)
    words = np.frombuffer("".join(seps).encode(), np.uint8).astype(np.uint64) << 56
    return format_block(values, words, np.empty((len(values), 4), "<u8"))


def bits_to_float(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# float64 bit patterns: any, and those whose binary exponent puts them
# inside the kernel's window [1e-49, 1e49)
ANY_BITS = st.integers(0, 2**64 - 1)
WINDOW_BITS = st.builds(lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
                        st.integers(0, 1), st.integers(1023 - 162, 1023 + 162),
                        st.integers(0, 2**52 - 1))


class TestPolicyTextKernel:
    """policytext.format_block on its own: each block it accepts is the
    `%.17g` text of its values, and it declines what it cannot prove."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.one_of(*[WINDOW_BITS] * 8, ANY_BITS,
                                        st.sampled_from(EDGE_LOGITS).map(
                                            lambda v: int(np.float64(v).view(np.uint64)))),
                              st.sampled_from(" \n,")),
                    min_size=1, max_size=24))
    def test_accepted_blocks_are_the_percent_text(self, cells):
        values = [bits_to_float(bits) for bits, _ in cells]
        seps = [sep for _, sep in cells]
        text = kernel_text(values, seps)
        if text is not None:
            assert text == "".join("%.17g" % v + sep for v, sep in zip(values, seps))

    @pytest.mark.parametrize("seed", range(8))
    def test_normal_tables_take_no_fallback(self, seed):
        values = normal_logits(16, 64, seed).reshape(-1)
        for block in np.split(values, range(4096, len(values), 4096)):
            assert kernel_text(block, [" "] * len(block)) == "".join("%.17g " % v for v in block)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 9e-50, 1e49, -1e300,
        2.0**-25,  # an exact tie at 17 digits
        0.9999999999999999,  # log10 rounds to 0, one above its exponent
    ])
    def test_declines_what_it_cannot_prove(self, value):
        block = normal_logits(1, 64, seed=2).reshape(-1)[:4096]
        block[1234] = value
        assert kernel_text(block, [" "] * len(block)) is None


class TestPolicyTable:
    @pytest.mark.parametrize(
        "shape",
        [(5, 4), (1, 2, 3, 2), (2, 4, 4), (0, 5, 4), (2, 1, 0)],
        ids=["2-D", "4-D", "rows-not-V+1", "no-classes", "no-tokens"],
    )
    def test_rejects_bad_shape(self, shape):
        message = f"logits shape {shape} is not (C, V + 1, V) with C, V >= 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PolicyTable(np.zeros(shape))

    def test_sizes_are_read_off_the_logits(self):
        policy = PolicyTable(np.zeros((3, 6, 5)))
        assert (policy.num_prompt_classes, policy.vocab_size) == (3, 5)

    def test_rejects_non_finite(self):
        logits = np.zeros((1, 5, 4))
        logits[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^logits must be finite$"):
            PolicyTable(logits)
