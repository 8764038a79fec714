"""Synthetic dataset tests: labeling statistics, determinism, subgroup
classification, and the JSONL round trip."""

import json
import math

import numpy as np
import pytest

from focalpo.data import (
    DatasetFormatError,
    PreferencePair,
    Subgroup,
    SynthConfig,
    TrueRewardModel,
    load_dataset,
    random_reward_model,
    save_dataset,
    split_holdout,
    synthesize_dataset,
    true_reward,
)
from focalpo.policy import TokenSequence, random_policy

from _oracles import classify_pair, sequence_log_prob, uniform_policy


def small_dataset(num_pairs=50, noise=0.0, mode="deterministic", seed=4):
    config = SynthConfig(
        num_pairs=num_pairs,
        num_prompt_classes=2,
        vocab_size=4,
        seq_length=3,
        labeling_mode=mode,
        noise_rate=noise,
        generator_seed=seed,
    )
    sampler = random_policy(2, 4, seed=1)
    reward = random_reward_model(2, 4, seed=2)
    return synthesize_dataset(config, reward, sampler), sampler, reward


class TestTrueReward:
    def test_zero_model(self):
        model = TrueRewardModel(np.zeros((2, 4)))
        assert true_reward(model, TokenSequence(1, (0, 3, 3))) == 0.0

    def test_permutation_invariance(self):
        model = random_reward_model(2, 5, seed=3)
        a = true_reward(model, TokenSequence(0, (1, 4, 2)))
        b = true_reward(model, TokenSequence(0, (2, 1, 4)))
        assert a == pytest.approx(b, rel=1e-15)

    def test_hand_sum(self):
        weights = np.arange(1.0, 5.0)[None, :]  # [1, 2, 3, 4]
        model = TrueRewardModel(weights)
        assert true_reward(model, TokenSequence(0, (0, 0, 3))) == 6.0

    def test_out_of_range(self):
        model = TrueRewardModel(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            true_reward(model, TokenSequence(0, (3,)))


class TestSynthesize:
    def test_deterministic_labels_respect_reward(self):
        pairs, _, _ = small_dataset(num_pairs=200, noise=0.0)
        for pair in pairs:
            assert pair.true_reward_chosen >= pair.true_reward_rejected
            assert not pair.label_flipped

    def test_same_seed_identical(self):
        pairs_a, _, _ = small_dataset(num_pairs=100, noise=0.2, seed=9)
        pairs_b, _, _ = small_dataset(num_pairs=100, noise=0.2, seed=9)
        assert pairs_a == pairs_b

    def test_different_seed_differs(self):
        pairs_a, _, _ = small_dataset(num_pairs=100, seed=9)
        pairs_b, _, _ = small_dataset(num_pairs=100, seed=10)
        assert pairs_a != pairs_b

    def test_pairs_are_distinct_and_consistent(self):
        pairs, _, _ = small_dataset(num_pairs=200, noise=0.3)
        for pair in pairs:
            assert pair.chosen.tokens != pair.rejected.tokens
            assert pair.chosen.prompt_class == pair.rejected.prompt_class == pair.prompt_class
            assert len(pair.chosen.tokens) == 3

    def test_noise_rate_statistics(self):
        # flipped-and-strictly-ordered pairs are exactly those whose stored
        # rewards end up inverted; their rate matches the configured noise
        noise = 0.1
        config = SynthConfig(
            num_pairs=10_000,
            num_prompt_classes=2,
            vocab_size=4,
            seq_length=3,
            labeling_mode="deterministic",
            noise_rate=noise,
            generator_seed=12,
        )
        sampler = random_policy(2, 4, seed=1)
        reward = random_reward_model(2, 4, seed=2)
        pairs = synthesize_dataset(config, reward, sampler)
        inverted = sum(1 for p in pairs if p.true_reward_chosen < p.true_reward_rejected)
        flipped_strict = sum(
            1
            for p in pairs
            if p.label_flipped and p.true_reward_chosen < p.true_reward_rejected
        )
        assert inverted == flipped_strict
        three_sigma = 3 * math.sqrt(noise * (1 - noise) / config.num_pairs)
        flipped = sum(1 for p in pairs if p.label_flipped)
        assert abs(flipped / config.num_pairs - noise) <= three_sigma

    def test_bradley_terry_labeling_statistics(self):
        # unit reward gap: labels agree with the true reward at rate
        # sigmoid(1) = 0.7310585786 (Monte-Carlo check, 50k pairs)
        config = SynthConfig(
            num_pairs=50_000,
            num_prompt_classes=1,
            vocab_size=2,
            seq_length=1,
            labeling_mode="bradley_terry",
            noise_rate=0.0,
            generator_seed=77,
        )
        sampler = uniform_policy(1, 2)
        reward = TrueRewardModel(np.array([[0.0, 1.0]]))
        pairs = synthesize_dataset(config, reward, sampler)
        consistent = sum(
            1 for p in pairs if p.true_reward_chosen > p.true_reward_rejected
        )
        assert consistent / config.num_pairs == pytest.approx(0.7310585786, abs=0.01)

    def test_degenerate_sampler_fails_distinctness(self):
        sampler = uniform_policy(1, 4)
        sampler.logits[:, :, 2] = 50.0  # every draw collapses to token 2
        config = SynthConfig(
            num_pairs=1, num_prompt_classes=1, vocab_size=4, seq_length=2, generator_seed=0
        )
        reward = random_reward_model(1, 4, seed=0)
        with pytest.raises(RuntimeError, match="distinct"):
            synthesize_dataset(config, reward, sampler)

    def test_shape_mismatch(self):
        config = SynthConfig(num_pairs=5, num_prompt_classes=2, vocab_size=4)
        with pytest.raises(ValueError):
            synthesize_dataset(config, random_reward_model(2, 4, 0), random_policy(2, 5, 0))
        with pytest.raises(ValueError):
            synthesize_dataset(config, random_reward_model(2, 5, 0), random_policy(2, 4, 0))


class TestClassifyPair:
    def test_uniform_reference_ties_are_incorrect(self):
        reference = uniform_policy(2, 4)
        pairs, _, _ = small_dataset(num_pairs=20)
        for pair in pairs:
            assert classify_pair(reference, pair) is Subgroup.INCORRECT_AT_INIT

    def test_reference_favoring_chosen(self):
        reference = uniform_policy(1, 3)
        reference.logits[0, :, 1] = 10.0  # token 1 strongly preferred everywhere
        pair = PreferencePair(
            0, 0, TokenSequence(0, (1, 1)), TokenSequence(0, (0, 2)), 1.0, 0.0, False
        )
        assert classify_pair(reference, pair) is Subgroup.CORRECT_AT_INIT

    def test_matches_brute_force_product(self):
        reference = random_policy(2, 4, seed=33, scale=2.0)
        pairs, _, _ = small_dataset(num_pairs=1000, noise=0.5, seed=2)

        def brute_force_prob(seq):
            logits = reference.logits
            prob = 1.0
            prev = reference.bos_index
            for token in seq.tokens:
                row = np.exp(logits[seq.prompt_class, prev] - logits[seq.prompt_class, prev].max())
                prob *= row[token] / row.sum()
                prev = token
            return prob

        for pair in pairs:
            expected = (
                Subgroup.CORRECT_AT_INIT
                if brute_force_prob(pair.chosen) > brute_force_prob(pair.rejected)
                else Subgroup.INCORRECT_AT_INIT
            )
            assert classify_pair(reference, pair) is expected

    def test_independent_of_beta(self):
        # classification never sees beta or the trainable policy
        reference = random_policy(2, 4, seed=8)
        pairs, _, _ = small_dataset(num_pairs=50)
        groups = [classify_pair(reference, p) for p in pairs]
        assert groups == [classify_pair(reference, p) for p in pairs]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        pairs, _, _ = small_dataset(num_pairs=60, noise=0.25, seed=6)
        path = tmp_path / "pairs.jsonl"
        save_dataset(path, pairs)
        loaded = load_dataset(path, num_prompt_classes=2, vocab_size=4)
        assert loaded == pairs

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_dataset(path, [])
        assert path.read_bytes() == b""
        assert load_dataset(path) == []

    def test_field_schema(self, tmp_path):
        pairs, _, _ = small_dataset(num_pairs=2)
        path = tmp_path / "pairs.jsonl"
        save_dataset(path, pairs)
        for line in path.read_text().splitlines():
            row = json.loads(line)
            assert list(row) == [
                "pair_id",
                "prompt_class",
                "chosen",
                "rejected",
                "true_reward_chosen",
                "true_reward_rejected",
                "label_flipped",
            ]

    def test_token_out_of_vocab_names_line(self, tmp_path):
        pairs, _, _ = small_dataset(num_pairs=3)
        path = tmp_path / "pairs.jsonl"
        save_dataset(path, pairs)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["chosen"][0] = 4  # == vocab size, one past the valid range
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path, num_prompt_classes=2, vocab_size=4)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pair_id": 0,\n')
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pair_id": 0, "prompt_class": 0}\n')
        with pytest.raises(DatasetFormatError, match="fields"):
            load_dataset(path)

    def test_mixed_lengths_rejected(self, tmp_path):
        rows = [
            {
                "pair_id": 0,
                "prompt_class": 0,
                "chosen": [0, 1],
                "rejected": [1, 0],
                "true_reward_chosen": 1.0,
                "true_reward_rejected": 0.0,
                "label_flipped": False,
            },
            {
                "pair_id": 1,
                "prompt_class": 0,
                "chosen": [0, 1, 2],
                "rejected": [1, 0, 0],
                "true_reward_chosen": 1.0,
                "true_reward_rejected": 0.0,
                "label_flipped": False,
            },
        ]
        path = tmp_path / "mixed.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_save_is_byte_stable(self, tmp_path):
        pairs, _, _ = small_dataset(num_pairs=20, noise=0.1, seed=3)
        save_dataset(tmp_path / "a.jsonl", pairs)
        save_dataset(tmp_path / "b.jsonl", pairs)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestSplitHoldout:
    def test_tail_split(self):
        pairs, _, _ = small_dataset(num_pairs=50)
        train, holdout = split_holdout(pairs, 0.2)
        assert len(train) == 40 and len(holdout) == 10
        assert train + holdout == pairs

    def test_zero_fraction(self):
        pairs, _, _ = small_dataset(num_pairs=10)
        train, holdout = split_holdout(pairs, 0.0)
        assert train == pairs and holdout == []

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            split_holdout([], 1.0)
