"""Synthetic dataset tests: rewards against the left-to-right reward
oracle, labeling statistics, determinism, subgroup classification, and the
JSONL round trip and its per-line errors."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalpo.data import (
    SAVE_BLOCK_ROWS,
    DatasetFormatError,
    SynthConfig,
    load_dataset,
    random_reward_model,
    save_dataset,
    split_holdout,
    synthesize_dataset,
)
from focalpo.policy import random_policy
from focalpo.trainer import CORRECT, INCORRECT

from _oracles import (
    classify_pair,
    dataset_rows,
    make_dataset,
    pairs_of,
    scaled_random_policy,
    true_reward,
    uniform_policy,
)


def small_dataset(num_pairs=50, noise=0.0, mode="deterministic", seed=4):
    config = SynthConfig(
        num_pairs=num_pairs,
        seq_length=3,
        labeling_mode=mode,
        noise_rate=noise,
        generator_seed=seed,
    )
    sampler = random_policy(2, 4, seed=1)
    reward = random_reward_model(2, 4, seed=2)
    return synthesize_dataset(config, reward, sampler), sampler, reward


def synthesized(reward, num_classes, vocab, length, num_pairs=40, seed=5):
    config = SynthConfig(num_pairs=num_pairs, seq_length=length, generator_seed=seed)
    return synthesize_dataset(config, reward, random_policy(num_classes, vocab, seed=1))


def stored_and_oracle_rewards(dataset, weights):
    """Each pair's stored (chosen, rejected) rewards and the reward oracle's."""
    stored = list(zip(dataset.reward_chosen.tolist(), dataset.reward_rejected.tolist()))
    oracle = [
        (true_reward(weights, c, chosen), true_reward(weights, c, rejected))
        for c, chosen, rejected in pairs_of(dataset)
    ]
    return stored, oracle


class TestTrueReward:
    def test_zero_model(self):
        weights = np.zeros((2, 4))
        dataset = synthesized(weights, 2, 4, 3)
        assert (dataset.reward_chosen == 0.0).all() and (dataset.reward_rejected == 0.0).all()
        assert true_reward(weights, 1, (0, 3, 3)) == 0.0

    def test_permutation_invariance(self):
        weights = random_reward_model(2, 5, seed=3)
        dataset = synthesized(weights, 2, 5, 3)
        for c, chosen, rejected in pairs_of(dataset):
            for tokens in (chosen, rejected):
                assert true_reward(weights, c, tokens) == pytest.approx(
                    true_reward(weights, c, tokens[::-1]), rel=1e-15
                )
        stored, oracle = stored_and_oracle_rewards(dataset, weights)
        assert stored == oracle

    def test_hand_sum(self):
        weights = np.arange(1.0, 5.0)[None, :]  # [1, 2, 3, 4]
        assert true_reward(weights, 0, (0, 0, 3)) == 6.0
        dataset = synthesized(weights, 1, 4, 3)
        for (reward_c, reward_r), (_, chosen, rejected) in zip(
            zip(dataset.reward_chosen, dataset.reward_rejected), pairs_of(dataset)
        ):
            assert reward_c == sum(t + 1 for t in chosen)
            assert reward_r == sum(t + 1 for t in rejected)

    def test_out_of_range(self):
        weights = np.zeros((1, 3))
        with pytest.raises(ValueError):
            true_reward(weights, 0, (3,))
        with pytest.raises(ValueError):
            true_reward(weights, 1, (0,))
        # a reward narrower than the sampler's vocabulary is refused
        with pytest.raises(ValueError, match="reward shape"):
            synthesize_dataset(SynthConfig(num_pairs=1), weights, uniform_policy(1, 4))

    def test_synthesized_rewards_are_the_left_to_right_sums(self):
        # at 12 tokens a pairwise sum would group the additions differently;
        # the stored rewards are the oracle's left-to-right sums, bit for bit
        weights = 1e3 * random_reward_model(3, 7, seed=8)
        dataset = synthesized(weights, 3, 7, 12, num_pairs=300)
        stored, oracle = stored_and_oracle_rewards(dataset, weights)
        assert stored == oracle


class TestSynthesize:
    def test_deterministic_labels_respect_reward(self):
        pairs, _, _ = small_dataset(num_pairs=200, noise=0.0)
        assert (pairs.reward_chosen >= pairs.reward_rejected).all()
        assert not pairs.label_flipped.any()

    def test_same_seed_identical(self):
        pairs_a, _, _ = small_dataset(num_pairs=100, noise=0.2, seed=9)
        pairs_b, _, _ = small_dataset(num_pairs=100, noise=0.2, seed=9)
        assert dataset_rows(pairs_a) == dataset_rows(pairs_b)

    def test_different_seed_differs(self):
        pairs_a, _, _ = small_dataset(num_pairs=100, seed=9)
        pairs_b, _, _ = small_dataset(num_pairs=100, seed=10)
        assert dataset_rows(pairs_a) != dataset_rows(pairs_b)

    def test_pairs_are_distinct_and_consistent(self):
        pairs, _, _ = small_dataset(num_pairs=200, noise=0.3)
        assert pairs.pair_ids.tolist() == list(range(200))
        assert pairs.classes.shape == (200,)
        assert pairs.chosen.shape == pairs.rejected.shape == (200, 3)
        for _, chosen, rejected in pairs_of(pairs):
            assert chosen != rejected

    def test_noise_rate_statistics(self):
        # flipped-and-strictly-ordered pairs are exactly those whose stored
        # rewards end up inverted; their rate matches the configured noise
        noise = 0.1
        config = SynthConfig(
            num_pairs=10_000,
            seq_length=3,
            labeling_mode="deterministic",
            noise_rate=noise,
            generator_seed=12,
        )
        sampler = random_policy(2, 4, seed=1)
        reward = random_reward_model(2, 4, seed=2)
        pairs = synthesize_dataset(config, reward, sampler)
        inverted = pairs.reward_chosen < pairs.reward_rejected
        flipped_strict = int((pairs.label_flipped & inverted).sum())
        assert int(inverted.sum()) == flipped_strict
        three_sigma = 3 * math.sqrt(noise * (1 - noise) / config.num_pairs)
        flipped = int(pairs.label_flipped.sum())
        assert abs(flipped / config.num_pairs - noise) <= three_sigma

    def test_bradley_terry_labeling_statistics(self):
        # unit reward gap: labels agree with the true reward at rate
        # sigmoid(1) = 0.7310585786 (Monte-Carlo check, 50k pairs)
        config = SynthConfig(
            num_pairs=50_000,
            seq_length=1,
            labeling_mode="bradley_terry",
            noise_rate=0.0,
            generator_seed=77,
        )
        sampler = uniform_policy(1, 2)
        reward = np.array([[0.0, 1.0]])
        pairs = synthesize_dataset(config, reward, sampler)
        consistent = int((pairs.reward_chosen > pairs.reward_rejected).sum())
        assert consistent / config.num_pairs == pytest.approx(0.7310585786, abs=0.01)

    def test_degenerate_sampler_fails_distinctness(self):
        sampler = uniform_policy(1, 4)
        sampler.logits[:, :, 2] = 50.0  # every draw collapses to token 2
        config = SynthConfig(num_pairs=1, seq_length=2, generator_seed=0)
        reward = random_reward_model(1, 4, seed=0)
        with pytest.raises(RuntimeError, match="distinct"):
            synthesize_dataset(config, reward, sampler)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_pairs", 0, "num_pairs must be >= 1, got 0"),
            ("seq_length", 0, "seq_length must be >= 1, got 0"),
            ("labeling_mode", "random",
             "labeling_mode must be one of ('deterministic', 'bradley_terry'), got 'random'"),
            ("noise_rate", 1.0, "noise_rate must lie in [0, 1), got 1.0"),
            ("noise_rate", -0.1, "noise_rate must lie in [0, 1), got -0.1"),
        ],
    )
    def test_config_check_messages(self, field, value, message):
        with pytest.raises(ValueError) as info:
            SynthConfig(**{"num_pairs": 1, field: value})
        assert str(info.value) == message

    def test_shape_mismatch(self):
        # the reward must have the sampler's (C, V) shape
        config = SynthConfig(num_pairs=5)
        for reward, sampler, shapes in (
            (random_reward_model(2, 4, 0), random_policy(2, 5, 0), r"\(2, 4\) .* \(2, 5\)"),
            (random_reward_model(2, 5, 0), random_policy(2, 4, 0), r"\(2, 5\) .* \(2, 4\)"),
            (random_reward_model(3, 4, 0), random_policy(2, 4, 0), r"\(3, 4\) .* \(2, 4\)"),
        ):
            with pytest.raises(ValueError, match=f"^reward shape {shapes}$"):
                synthesize_dataset(config, reward, sampler)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reward_must_be_finite(self, bad):
        reward = random_reward_model(2, 4, 0)
        reward[1, 3] = bad
        with pytest.raises(ValueError, match="^reward weights must be finite$"):
            synthesize_dataset(SynthConfig(num_pairs=5), reward, random_policy(2, 4, 0))

    def test_sampler_needs_two_tokens(self):
        # one token admits no two distinct sequences; refused before any draw
        message = "^sampler vocab_size must be >= 2 to draw distinct sequences$"
        with pytest.raises(ValueError, match=message):
            synthesize_dataset(SynthConfig(num_pairs=1), np.zeros((3, 1)), uniform_policy(3, 1))


class TestClassifyPair:
    def test_uniform_reference_ties_are_incorrect(self):
        reference = uniform_policy(2, 4)
        pairs, _, _ = small_dataset(num_pairs=20)
        for pair in pairs_of(pairs):
            assert classify_pair(reference, *pair) == INCORRECT

    def test_reference_favoring_chosen(self):
        reference = uniform_policy(1, 3)
        reference.logits[0, :, 1] = 10.0  # token 1 strongly preferred everywhere
        assert classify_pair(reference, 0, (1, 1), (0, 2)) == CORRECT

    def test_matches_brute_force_product(self):
        reference = scaled_random_policy(2, 4, 33, 2.0)
        pairs, _, _ = small_dataset(num_pairs=1000, noise=0.5, seed=2)

        def brute_force_prob(prompt_class, tokens):
            logits = reference.logits
            prob = 1.0
            prev = reference.vocab_size  # the BOS context
            for token in tokens:
                row = np.exp(logits[prompt_class, prev] - logits[prompt_class, prev].max())
                prob *= row[token] / row.sum()
                prev = token
            return prob

        for c, chosen, rejected in pairs_of(pairs):
            expected = (
                CORRECT
                if brute_force_prob(c, chosen) > brute_force_prob(c, rejected)
                else INCORRECT
            )
            assert classify_pair(reference, c, chosen, rejected) == expected

    def test_independent_of_beta(self):
        # classification never sees beta or the trainable policy
        reference = random_policy(2, 4, seed=8)
        pairs, _, _ = small_dataset(num_pairs=50)
        groups = [classify_pair(reference, *p) for p in pairs_of(pairs)]
        assert groups == [classify_pair(reference, *p) for p in pairs_of(pairs)]


def assert_same_dataset(loaded, expected):
    """Same columns, dtypes and values, bit for bit; the token columns of
    an empty dataset load with shape (0, 0)."""
    assert len(loaded) == len(expected)
    for got, want in zip(loaded, expected):
        assert got.dtype == want.dtype
        assert got.shape == (want.shape if len(expected) else (0,) * want.ndim)
        assert got.tobytes() == want.tobytes()


@st.composite
def valid_datasets(draw):
    """(dataset, classes, vocab): any valid dataset, the empty one included."""
    num_classes = draw(st.integers(1, 4))
    vocab = draw(st.integers(2, 6))
    length = draw(st.integers(1, 5))
    tokens = st.lists(st.integers(0, vocab - 1), min_size=length, max_size=length)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        chosen = draw(tokens)
        rows.append((
            draw(st.integers(0, 2**63 - 1)),
            draw(st.integers(0, num_classes - 1)),
            chosen,
            draw(tokens.filter(lambda rejected: rejected != chosen)),
            draw(st.floats(allow_nan=False, allow_infinity=False)),
            draw(st.floats(allow_nan=False, allow_infinity=False)),
            draw(st.booleans()),
        ))
    if not rows:
        dataset = make_dataset([(0, 0, [0] * length, [1] * length, 0.0, 0.0, False)])
        return dataset.take(slice(0, 0)), num_classes, vocab
    return make_dataset(rows), num_classes, vocab


FIELDS = [
    "pair_id",
    "prompt_class",
    "chosen",
    "rejected",
    "true_reward_chosen",
    "true_reward_rejected",
    "label_flipped",
]
VOCAB = 4


# JSON values of every type but the one a field needs; finite, so that the
# line stays valid JSON
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)


def _malformed(kind: str, rows: list, at: int, data) -> str:
    """Make the valid row rows[at] malformed in the given way, editing a
    field in place or replacing the row by the whole text of its line; the
    error message of it."""
    row = rows[at]
    pos = data.draw(st.integers(0, len(row["chosen"]) - 1))
    if kind == "blank line":
        rows[at] = ""
        return "blank line in JSONL dataset"
    if kind == "non-object":
        rows[at] = json.dumps(data.draw(JSON_VALUES))
        return "expected a JSON object"
    if kind == "bad pair_id":
        row["pair_id"] = data.draw(
            st.integers(max_value=-1) | JSON_VALUES.filter(lambda v: type(v) is not int)
        )
        return "pair_id must be a non-negative integer"
    if kind == "non-integer prompt_class":
        row["prompt_class"] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not int))
        return "prompt_class must be an integer"
    if kind == "bad token array":
        name = data.draw(st.sampled_from(FIELDS[2:4]))
        row[name] = data.draw(st.just([]) | JSON_SCALARS)
        return f"{name} must be a non-empty token array"
    if kind == "non-number reward":
        name = data.draw(st.sampled_from(FIELDS[4:6]))
        row[name] = data.draw(JSON_VALUES.filter(lambda v: type(v) not in (int, float)))
        return f"{name} must be a number"
    if kind == "non-boolean label_flipped":
        row["label_flipped"] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not bool))
        return "label_flipped must be a boolean"
    if kind == "bool token":
        row["chosen"][pos] = data.draw(st.booleans())
        return f"chosen contains a non-integer token {row['chosen'][pos]!r}"
    if kind == "negative token":
        row["rejected"][pos] = data.draw(st.integers(max_value=-1))
        return f"rejected contains a negative token {row['rejected'][pos]}"
    if kind == "out-of-vocab token":
        row["chosen"][pos] = data.draw(st.integers(min_value=VOCAB))
        return f"chosen token {row['chosen'][pos]} out of range for vocab size {VOCAB}"
    if kind == "non-finite reward":
        name = data.draw(st.sampled_from(FIELDS[4:6]))
        row[name] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        literal = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(row[name])]
        return f"invalid JSON: non-finite literal {literal!r}"
    if kind == "int64 pair_id":
        row["pair_id"] = data.draw(st.integers(min_value=2**63))
        return f"pair_id {row['pair_id']} does not fit in int64"
    if kind == "int64 prompt_class":
        row["prompt_class"] = data.draw(st.integers(min_value=2**63))
        return f"prompt_class {row['prompt_class']} out of range"
    if kind == "int64 token":
        row["rejected"][pos] = data.draw(st.integers(min_value=2**63))
        return f"rejected token {row['rejected'][pos]} out of range for vocab size {VOCAB}"
    if kind == "float64-overflowing reward":
        name = data.draw(st.sampled_from(FIELDS[4:6]))
        sign = data.draw(st.sampled_from([1, -1]))
        row[name] = sign * data.draw(st.integers(min_value=2**1024))
        return f"{name} must be finite"
    if kind == "missing field":
        del row[data.draw(st.sampled_from(FIELDS))]
        return f"fields must be exactly {FIELDS}, got {sorted(row)}"
    if kind == "extra field":
        row[data.draw(st.text(min_size=1).filter(lambda name: name not in FIELDS))] = 0
        return f"fields must be exactly {FIELDS}, got {sorted(row)}"
    if kind == "mixed lengths":
        extra = data.draw(st.integers(1, 3))
        row["chosen"] += [0] * extra
        row["rejected"] += [1] * extra
        return f"sequence length {len(row['chosen'])} differs from dataset length 2"
    if kind == "identical":
        row["rejected"] = list(row["chosen"])
        return f"pair {row['pair_id']}: chosen and rejected are identical"
    assert kind == "lengths differ"
    del row["rejected"][pos]
    return f"pair {row['pair_id']}: chosen/rejected lengths differ"


MALFORMED_KINDS = (
    "blank line",
    "non-object",
    "bad pair_id",
    "non-integer prompt_class",
    "bad token array",
    "non-number reward",
    "non-boolean label_flipped",
    "bool token",
    "negative token",
    "out-of-vocab token",
    "non-finite reward",
    "int64 pair_id",
    "int64 prompt_class",
    "int64 token",
    "float64-overflowing reward",
    "missing field",
    "extra field",
    "mixed lengths",
    "identical",
    "lengths differ",
)


class TestJsonl:
    @settings(max_examples=150, deadline=None)
    @given(case=valid_datasets())
    def test_round_trip_of_any_valid_dataset(self, case):
        dataset, num_classes, vocab = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pairs.jsonl"
            save_dataset(path, dataset)
            loaded = load_dataset(path, num_prompt_classes=num_classes, vocab_size=vocab)
            assert_same_dataset(loaded, dataset)
            text = path.read_bytes()
            save_dataset(path, loaded)
            assert path.read_bytes() == text

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(MALFORMED_KINDS),
        num_valid=st.integers(2, 6),
        data=st.data(),
    )
    def test_malformed_row_names_its_line(self, kind, num_valid, data):
        rows = [
            {
                "pair_id": pair_id,
                "prompt_class": pair_id % 2,
                "chosen": [0, 1],
                "rejected": [1, 0] if pair_id % 3 else [3, 3],
                "true_reward_chosen": 1.0,
                "true_reward_rejected": -0.5,
                "label_flipped": bool(pair_id % 2),
            }
            for pair_id in range(num_valid)
        ]
        # a length mismatch is reported on the later line, so that row
        # follows at least one valid row
        at = data.draw(st.integers(1 if kind == "mixed lengths" else 0, num_valid - 1))
        message = _malformed(kind, rows, at, data)
        lines = [row if isinstance(row, str) else json.dumps(row) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.jsonl"
            path.write_text("".join(line + "\n" for line in lines))
            with pytest.raises(DatasetFormatError) as info:
                load_dataset(path, num_prompt_classes=2, vocab_size=VOCAB)
        assert str(info.value) == f"{path}: line {at + 1}: {message}"
        assert info.value.line_number == at + 1

    def test_round_trip(self, tmp_path):
        pairs, _, _ = small_dataset(num_pairs=60, noise=0.25, seed=6)
        path = tmp_path / "pairs.jsonl"
        save_dataset(path, pairs)
        loaded = load_dataset(path, num_prompt_classes=2, vocab_size=4)
        assert_same_dataset(loaded, pairs)

    def test_blocks_write_the_one_row_bytes(self, tmp_path):
        # two full blocks and a partial one
        pairs, _, _ = small_dataset(num_pairs=2 * SAVE_BLOCK_ROWS + 5, noise=0.25)
        path = tmp_path / "pairs.jsonl"
        save_dataset(path, pairs)
        expected = "".join(
            json.dumps(dict(zip(FIELDS, row)), separators=(",", ":")) + "\n"
            for row in dataset_rows(pairs)
        )
        assert path.read_text() == expected

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        pairs, _, _ = small_dataset(num_pairs=3)
        save_dataset(path, pairs.take(slice(0, 0)))
        assert path.read_bytes() == b""
        loaded = load_dataset(path, num_prompt_classes=2, vocab_size=4)
        assert len(loaded) == 0 and dataset_rows(loaded) == []
        assert loaded.chosen.shape == loaded.rejected.shape == (0, 0)

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
            load_dataset(path, num_prompt_classes=2, vocab_size=4)

    def test_byte_order_mark_names_line(self, tmp_path):
        pairs, _, _ = small_dataset(num_pairs=2)
        path = tmp_path / "pairs.jsonl"
        save_dataset(path, pairs)
        path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(path, num_prompt_classes=2, vocab_size=4)
        assert str(info.value) == (
            f"{path}: line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)"
        )

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pair_id": 0, "prompt_class": 0}\n')
        with pytest.raises(DatasetFormatError, match="fields"):
            load_dataset(path, num_prompt_classes=2, vocab_size=4)

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
            load_dataset(path, num_prompt_classes=2, vocab_size=4)

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
        assert dataset_rows(train) + dataset_rows(holdout) == dataset_rows(pairs)

    def test_zero_fraction(self):
        pairs, _, _ = small_dataset(num_pairs=10)
        train, holdout = split_holdout(pairs, 0.0)
        assert dataset_rows(train) == dataset_rows(pairs) and dataset_rows(holdout) == []

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            split_holdout([], 1.0)
