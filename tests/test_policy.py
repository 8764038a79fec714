"""Tabular policy tests: exact log-probabilities, analytic gradients against
finite differences, sampling statistics, and the text round trip."""

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
    checksum,
    implicit_reward,
    legacy_policy_text,
    pair_margin,
    sample_sequence,
    scaled_random_policy,
    scan_sample_tokens,
    sequence_log_prob,
    sequence_log_prob_grad,
    uniform_policy,
)
from focalpo.policy import (
    PolicyTable,
    _next_token_cdf,
    _sample_tokens,
    load_policy,
    random_policy,
    save_policy,
)


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
        assert implicit_reward(policy, policy.clone(), *seq, beta=0.01) == 0.0

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
        assert pair_margin(reference.clone(), reference, *pair, beta=0.01) == 0.0

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

    @pytest.mark.parametrize("header", ["0 8", "-1 8", "2 0"])
    def test_header_sizes_below_one_name_the_line(self, tmp_path, header):
        path = tmp_path / "policy.txt"
        path.write_text(f"{header}\n")
        message = f"{path}: line 1: C and V must be >= 1, got {header!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_policy(path)


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

    def test_clone_is_independent(self):
        policy = random_policy(1, 3, seed=2)
        clone = policy.clone()
        clone.logits[0, 0, 0] += 1.0
        assert policy.logits[0, 0, 0] != clone.logits[0, 0, 0]
        assert checksum(policy) != checksum(clone)
