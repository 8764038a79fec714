"""Trainer tests: closed-form updates, end-to-end gradient checks against
finite differences, determinism, and the subgroup diagnostics."""

import math

import numpy as np
import pytest

from focalpo.data import (
    SynthConfig,
    encode_pairs,
    random_reward_model,
    synthesize_dataset,
)
from focalpo.losses import LossConfig, LossVariant, gradient_weight
from focalpo.policy import PolicyTable, random_policy
from focalpo.trainer import (
    CORRECT,
    OptimizerState,
    TrainConfig,
    assemble_gradient,
    evaluate,
    init_optimizer_state,
    train,
    train_step,
)
from focalpo.losses import pair_loss

from _oracles import (
    checksum,
    classify_pair,
    make_dataset,
    pair_margin,
    pairs_of,
    sequence_log_prob,
    sequence_log_prob_grad,
    uniform_policy,
)


def toy_setup(num_pairs=120, noise=0.1, seed=5, num_classes=3, vocab=6, length=4):
    reference = random_policy(num_classes, vocab, seed=101)
    reward = random_reward_model(num_classes, vocab, seed=102)
    config = SynthConfig(
        num_pairs=num_pairs,
        seq_length=length,
        labeling_mode="deterministic",
        noise_rate=noise,
        generator_seed=seed,
    )
    return synthesize_dataset(config, reward, reference), reference


def train_config(variant=LossVariant.DPO, gamma=0.05, beta=5.0, **kwargs):
    defaults = dict(
        learning_rate=3e-3,
        batch_size=64,
        num_epochs=10,
        optimizer="adam",
        shuffle_seed=0,
        eval_every=5,
    )
    defaults.update(kwargs)
    return TrainConfig(loss=LossConfig(variant, gamma=gamma), beta=beta, **defaults)


def mean_batch_loss(policy, reference, batch, config):
    total = 0.0
    for pair in pairs_of(batch):
        margin = pair_margin(policy, reference, *pair, config.beta)
        total += pair_loss(config.loss, margin).loss
    return total / len(batch)


def pair_grad(policy, prompt_class, chosen, rejected):
    """d(log pi(chosen) - log pi(rejected))/d(logits) for one pair."""
    return sequence_log_prob_grad(policy, prompt_class, chosen) - sequence_log_prob_grad(
        policy, prompt_class, rejected
    )


class TestTrainStep:
    def test_zero_learning_rate_leaves_policy_unchanged(self):
        dataset, reference = toy_setup(num_pairs=16)
        policy = reference.clone()
        config = train_config(learning_rate=0.0, optimizer="sgd")
        state = init_optimizer_state(config, policy)
        before = policy.logits.copy()
        batch = encode_pairs(reference, dataset).take(np.arange(8))
        assert train_step(policy, batch, config, state) is None
        assert np.array_equal(policy.logits, before)

    def test_single_pair_sgd_closed_form(self):
        dataset, reference = toy_setup(num_pairs=4, noise=0.0)
        policy = random_policy(3, 6, seed=55)
        pair = pairs_of(dataset)[0]
        beta, lr = 0.7, 0.5
        config = train_config(
            LossVariant.DPO, beta=beta, learning_rate=lr, optimizer="sgd", batch_size=1
        )
        margin = pair_margin(policy, reference, *pair, beta)
        weight = gradient_weight(config.loss, margin)  # sigma(-margin) for dpo
        grad_diff = pair_grad(policy, *pair)
        expected = policy.logits + lr * weight * beta * grad_diff
        state = init_optimizer_state(config, policy)
        train_step(policy, encode_pairs(reference, dataset.take([0])), config, state)
        np.testing.assert_allclose(policy.logits, expected, atol=1e-12)

    def test_full_batch_sgd_descends(self):
        dataset, reference = toy_setup(num_pairs=40)
        policy = random_policy(3, 6, seed=77)
        for variant, gamma in [
            (LossVariant.DPO, 0.05),
            (LossVariant.FOCAL, 0.05),
            (LossVariant.FOCAL_EXACT, 0.05),
            (LossVariant.FOCUS_INCORRECT, 1.0),
        ]:
            config = train_config(
                variant, gamma=gamma, beta=1.0, learning_rate=1e-3, optimizer="sgd",
                batch_size=len(dataset),
            )
            trial = policy.clone()
            before = mean_batch_loss(trial, reference, dataset, config)
            state = init_optimizer_state(config, trial)
            train_step(trial, encode_pairs(reference, dataset), config, state)
            after = mean_batch_loss(trial, reference, dataset, config)
            assert after <= before

    def test_empty_batch_rejected(self):
        dataset, reference = toy_setup(num_pairs=4)
        policy = reference.clone()
        config = train_config()
        with pytest.raises(ValueError):
            train_step(
                policy,
                encode_pairs(reference, dataset).take([]),
                config,
                init_optimizer_state(config, policy),
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_margin_aborts_with_pair_id(self):
        # logits at +/-1e308 are finite, but a two-step chain of suppressed
        # tokens pushes the sequence log-probability to -inf
        dataset, reference = toy_setup(
            num_pairs=2, num_classes=1, vocab=2, length=2, noise=0.0
        )
        policy = uniform_policy(1, 2)
        policy.logits[:, :, 0] = 1e308
        config = train_config(beta=1.0, optimizer="sgd")
        with pytest.raises(FloatingPointError, match="pair_id"):
            train_step(
                policy,
                encode_pairs(reference, dataset.take([0])),
                config,
                init_optimizer_state(config, policy),
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_weight_names_first_bad_pair(self):
        # at beta 1e308 the misranked pair's margin is about -1e308: finite,
        # but gamma * log p overflows, so its focal weight is -inf
        reference = uniform_policy(1, 2)
        policy = uniform_policy(1, 2)
        policy.logits[0, 2] = [0.0, 1.0]  # the BOS context favours token 1
        ranked = (7, 0, (1,), (0,), 1.0, 0.0, False)
        misranked = (9, 0, (0,), (1,), 1.0, 0.0, False)
        config = train_config(LossVariant.FOCAL, gamma=5.0, beta=1e308)
        pairs = make_dataset([ranked, misranked])
        with pytest.raises(FloatingPointError, match="non-finite gradient weight for pair_id 9"):
            assemble_gradient(policy, encode_pairs(reference, pairs), config)


class TestGradientCheck:
    def test_assembled_gradient_matches_finite_differences(self):
        dataset, reference = toy_setup(num_pairs=5, num_classes=2, vocab=4, length=3, noise=0.3)
        policy = random_policy(2, 4, seed=91)
        h = 1e-5
        for variant, gamma in [
            (LossVariant.DPO, 0.05),
            (LossVariant.FOCAL, 0.05),
            (LossVariant.FOCAL_EXACT, 0.07),
            (LossVariant.FOCUS_INCORRECT, 1.0),
        ]:
            config = train_config(variant, gamma=gamma, beta=0.7)
            grad = assemble_gradient(policy, encode_pairs(reference, dataset), config)
            fd = np.zeros_like(grad)
            for idx in np.ndindex(*grad.shape):
                policy.logits[idx] += h
                up = mean_batch_loss(policy, reference, dataset, config)
                policy.logits[idx] -= 2 * h
                down = mean_batch_loss(policy, reference, dataset, config)
                policy.logits[idx] += h
                fd[idx] = (up - down) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


class TestTrainConfig:
    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="^beta must be finite and > 0, got 0.0$"):
            TrainConfig(LossConfig(LossVariant.DPO), beta=0.0)
        with pytest.raises(ValueError, match="^beta must be finite and > 0, got inf$"):
            TrainConfig(LossConfig(LossVariant.DPO), beta=math.inf)


class TestTrain:
    def test_zero_epochs_reports_only_step_zero(self):
        dataset, reference = toy_setup(num_pairs=12)
        report = train(train_config(num_epochs=0), dataset, reference.clone(), reference)
        assert [rec.step for rec in report.steps] == [0]
        assert report.steps[0].accuracy_overall == 0.0  # all margins exactly zero

    def test_deterministic_reports_and_policies(self):
        dataset, reference = toy_setup(num_pairs=60)
        config = train_config(num_epochs=4)
        policy_a, policy_b = reference.clone(), reference.clone()
        report_a = train(config, dataset, policy_a, reference)
        report_b = train(config, dataset, policy_b, reference)
        assert report_a.to_json_dict() == report_b.to_json_dict()
        assert checksum(policy_a) == checksum(policy_b)

    def test_reference_never_modified(self):
        dataset, reference = toy_setup(num_pairs=60)
        before = checksum(reference)
        train(train_config(num_epochs=3), dataset, reference.clone(), reference)
        assert checksum(reference) == before

    def test_loss_descends_on_toy_run(self):
        dataset, reference = toy_setup(num_pairs=150)
        report = train(train_config(num_epochs=20), dataset, reference.clone(), reference)
        assert report.final["final_mean_loss"] < report.final["initial_mean_loss"]
        assert report.steps[-1].step == 20 * math.ceil(150 / 64)

    def test_empty_dataset_rejected(self):
        dataset, reference = toy_setup(num_pairs=4)
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            train(train_config(), dataset.take([]), reference.clone(), reference)

    def test_report_records_orderings(self):
        dataset, reference = toy_setup(num_pairs=80)
        report = train(train_config(num_epochs=6), dataset, reference.clone(), reference)
        final = report.final
        assert set(final["weight_profile"]) == {"dpo", "focal", "focus-incorrect"}
        assert final["margin_ordering_incorrect_below_correct"] in (True, False)
        assert final["ratio_ordering_incorrect_below_correct"] in (True, False)


class TestEvaluate:
    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_beta_at_the_call(self, beta):
        dataset, reference = toy_setup(num_pairs=4)
        pairs = encode_pairs(reference, dataset)
        with pytest.raises(ValueError, match=f"^beta must be finite and > 0, got {beta!r}$"):
            evaluate(reference.clone(), pairs, beta)

    def test_policy_equal_to_reference(self):
        dataset, reference = toy_setup(num_pairs=40)
        metrics = evaluate(reference.clone(), encode_pairs(reference, dataset), beta=0.01).metrics()
        assert metrics["overall_accuracy"] == 0.0
        assert metrics["flip_incorrect_to_correct"] == 0.0
        assert metrics["flip_correct_to_incorrect"] == 0.0
        margins = metrics["mean_margin_by_subgroup"]
        assert margins["correct_at_init"] == 0.0
        assert margins["incorrect_at_init"] == 0.0

    def test_constructed_optimum_has_accuracy_one(self):
        # noise-free deterministic labels are linearly realizable, so
        # perceptron-style nudges on violated pairs reach a perfect ranking
        dataset, reference = toy_setup(num_pairs=30, num_classes=2, vocab=4, length=3, noise=0.0)
        policy = reference.clone()
        for _ in range(200):
            violated = [
                pair
                for pair in pairs_of(dataset)
                if pair_margin(policy, reference, *pair, 0.01) <= 0.0
            ]
            if not violated:
                break
            for pair in violated:
                policy.logits += 0.5 * pair_grad(policy, *pair)
        metrics = evaluate(policy, encode_pairs(reference, dataset), beta=0.01).metrics()
        assert metrics["overall_accuracy"] == 1.0

    def test_accuracy_matches_brute_force_margins(self):

        dataset, reference = toy_setup(num_pairs=200)
        policy = random_policy(3, 6, seed=13)
        metrics = evaluate(policy, encode_pairs(reference, dataset), beta=0.02).metrics()
        correct = 0
        for c, chosen, rejected in pairs_of(dataset):
            margin = 0.02 * (
                (sequence_log_prob(policy, c, chosen) - sequence_log_prob(reference, c, chosen))
                - (
                    sequence_log_prob(policy, c, rejected)
                    - sequence_log_prob(reference, c, rejected)
                )
            )
            correct += margin > 0
        assert metrics["overall_accuracy"] == correct / len(dataset)


def weight_profile(policy, reference, dataset, beta):
    """The standard trio's weight profile: variant -> subgroup -> entry."""
    return evaluate(policy, encode_pairs(reference, dataset), beta).orderings()["weight_profile"]


class TestSubgroupWeightProfile:
    def test_constant_weights_at_reference_state(self):
        dataset, reference = toy_setup(num_pairs=50)
        profile = weight_profile(reference.clone(), reference, dataset, 0.01)
        # all margins are exactly zero, so every pair carries the delta=0 weight
        for entry in profile["dpo"].values():
            assert entry["mean_weight"] == 0.5
        for entry in profile["focal"].values():
            assert entry["mean_weight"] == pytest.approx(0.4662297633875558, abs=1e-12)
        counts = sum(entry["count"] for entry in profile["dpo"].values())
        assert counts == len(dataset)

    def test_perturbation_toward_correct_subgroup_orders_ratios(self):
        dataset, reference = toy_setup(num_pairs=100)
        policy = reference.clone()
        for pair in pairs_of(dataset):
            if classify_pair(reference, *pair) == CORRECT:
                policy.logits += 0.5 * pair_grad(policy, *pair)
        profile = weight_profile(policy, reference, dataset, 1.0)
        means = {
            (variant, group): entry["mean_weight"]
            for variant, groups in profile.items()
            for group, entry in groups.items()
        }
        ratio_correct = means[("focal", "correct_at_init")] / means[("dpo", "correct_at_init")]
        ratio_incorrect = means[("focal", "incorrect_at_init")] / means[
            ("dpo", "incorrect_at_init")
        ]
        assert ratio_incorrect < ratio_correct

    def test_tail_weights_at_margin_minus_ten(self):
        # one pair driven to margin -10: the focus-incorrect weight sits at
        # ~1.0 while dpo saturates at sigma(10)
        reference = uniform_policy(1, 2)
        policy = uniform_policy(1, 2)
        policy.logits[0, :, 0] = -5.0
        policy.logits[0, :, 1] = 5.0
        margin = pair_margin(policy, reference, 0, (0,), (1,), beta=1.0)
        assert margin == pytest.approx(-10.0, abs=1e-9)
        # the standard trio at beta 1 holds dpo and focus-incorrect at gamma 1
        pair = make_dataset([(0, 0, (0,), (1,), 1.0, 0.0, False)])
        profile = weight_profile(policy, reference, pair, 1.0)
        assert profile["focus-incorrect"]["incorrect_at_init"]["gamma"] == 1.0
        means = {
            variant: entry["mean_weight"]
            for variant, groups in profile.items()
            for entry in groups.values()
        }
        assert means["focus-incorrect"] == pytest.approx(1.0, abs=1e-3)
        assert means["dpo"] == pytest.approx(0.9999546021312976, abs=1e-9)

    def test_focal_mean_below_dpo_mean_everywhere(self):
        dataset, reference = toy_setup(num_pairs=80)
        policy = random_policy(3, 6, seed=44)
        profile = weight_profile(policy, reference, dataset, 0.05)
        for group in ("correct_at_init", "incorrect_at_init"):
            assert profile["focal"][group]["mean_weight"] < profile["dpo"][group]["mean_weight"]

    def test_empty_subgroup_absent(self):
        reference = uniform_policy(2, 4)  # ties everywhere: all incorrect-at-init
        dataset, _ = toy_setup(num_pairs=10, num_classes=2, vocab=4, length=3)
        profile = weight_profile(reference.clone(), reference, dataset, 0.01)
        assert all(set(groups) == {"incorrect_at_init"} for groups in profile.values())


class TestOptimizers:
    def test_adam_state_initialized_lazily_for_sgd(self):
        dataset, reference = toy_setup(num_pairs=8)
        config = train_config(optimizer="sgd")
        state = init_optimizer_state(config, reference.clone())
        assert state.first_moment is None

    def test_adam_and_sgd_differ(self):
        dataset, reference = toy_setup(num_pairs=40)
        policies = {}
        for optimizer in ("adam", "sgd"):
            policy = reference.clone()
            train(
                train_config(num_epochs=3, optimizer=optimizer), dataset, policy, reference
            )
            policies[optimizer] = checksum(policy)
        assert policies["adam"] != policies["sgd"]
