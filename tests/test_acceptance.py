"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The toy-run criteria share one deterministic configuration:
C=4, V=8, L=4, 500 pairs, 10% label noise, adam, lr 3e-3, 200 steps,
beta 5.0 (the implicit-reward temperature is a free parameter of the run;
at desk scale the optimizer cannot move margins measurably at beta=0.01).
"""

import functools
import io
import itertools
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from focalpo.cli import main as cli_main
from focalpo.data import SynthConfig, random_reward_model, synthesize_dataset
from focalpo.losses import (
    LossConfig,
    LossVariant,
    gradient_weight,
    modulating_factor,
    pair_loss,
)
from focalpo.policy import random_policy
from focalpo.trainer import TrainConfig, train

from _oracles import (
    VARIANT_NAMES,
    checksum,
    fd_weight,
    scaled_random_policy,
    sequence_log_prob,
    sequence_log_prob_grad,
)

REF_SEED, REWARD_SEED, GEN_SEED = 42, 142, 9
TOY = dict(seq_length=4)
RUN_VARIANTS = [
    (LossVariant.DPO, 0.05),
    (LossVariant.FOCAL, 0.05),
    (LossVariant.FOCUS_INCORRECT, 1.0),
]
BETA = 5.0

QUARTER_GRID = [-10.0 + 0.25 * k for k in range(81)]
TENTH_GRID = [-10.0 + 0.1 * k for k in range(201)]

# frozen from the >= 50-bit oracle (finite difference of the loss at 0)
W_FOCAL_AT_ZERO = 0.4662297633875558
FACTOR_HALF_G005 = 0.9659363289248456


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({summary}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({summary}): PASS")

        return wrapper

    return decorate


def toy_train_config(variant, gamma):
    return TrainConfig(
        loss=LossConfig(variant, gamma=gamma),
        beta=BETA,
        learning_rate=3e-3,
        batch_size=128,
        num_epochs=50,  # 4 batches per epoch over 500 pairs -> exactly 200 steps
        optimizer="adam",
        shuffle_seed=0,
        eval_every=10,
    )


@pytest.fixture(scope="module")
def toy_runs():
    reference = random_policy(4, 8, seed=REF_SEED)
    reward = random_reward_model(4, 8, seed=REWARD_SEED)
    dataset = synthesize_dataset(
        SynthConfig(num_pairs=500, labeling_mode="deterministic", noise_rate=0.1,
                    generator_seed=GEN_SEED, **TOY),
        reward,
        reference,
    )
    runs = {}
    for variant, gamma in RUN_VARIANTS:
        policy = reference.clone()
        start = time.perf_counter()
        report = train(toy_train_config(variant, gamma), dataset, policy, reference)
        runs[variant.value] = {
            "report": report,
            "seconds": time.perf_counter() - start,
            "checksum": checksum(policy),
        }
    # repeat the dpo run for the determinism clause
    policy = reference.clone()
    repeat = train(toy_train_config(*RUN_VARIANTS[0]), dataset, policy, reference)
    runs["dpo_repeat"] = {"report": repeat, "checksum": checksum(policy)}
    return runs


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """End-to-end CLI pipeline: synth with a 20% holdout, train the three
    variants, evaluate each on the held-out split; plus repeated runs for
    the byte-stability criterion."""
    ws = tmp_path_factory.mktemp("acceptance")
    synth = [
        "synth", "--pairs", "500", "--classes", "4", "--vocab", "8", "--length", "4",
        "--mode", "deterministic", "--noise", "0.1", "--seed", str(GEN_SEED),
        "--ref-seed", str(REF_SEED), "--reward-seed", str(REWARD_SEED),
        "--holdout-fraction", "0.2",
    ]
    sink = io.StringIO()
    with redirect_stdout(sink):
        assert cli_main(synth + ["--out", str(ws / "synth")]) == 0
        assert cli_main(synth + ["--out", str(ws / "synth_repeat")]) == 0

        train_common = [
            "train",
            "--dataset", str(ws / "synth" / "pairs.jsonl"),
            "--reference", str(ws / "synth" / "reference.txt"),
            "--beta", str(BETA), "--lr", "3e-3", "--batch-size", "128",
            "--epochs", "50", "--eval-every", "10",
        ]
        losses = [("dpo", []), ("focal", ["--gamma", "0.05"]),
                  ("focus-incorrect", ["--gamma", "1.0"])]
        for name, gamma_flags in losses:
            args = train_common + ["--loss", name, *gamma_flags, "--out", str(ws / f"run_{name}")]
            assert cli_main(args) == 0
        assert cli_main(train_common + ["--loss", "dpo", "--out", str(ws / "run_dpo_repeat")]) == 0

        for name, _ in losses:
            assert cli_main([
                "eval",
                "--dataset", str(ws / "synth" / "holdout.jsonl"),
                "--policy", str(ws / f"run_{name}" / "policy.txt"),
                "--reference", str(ws / "synth" / "reference.txt"),
                "--beta", str(BETA),
                "--out", str(ws / f"eval_{name}"),
            ]) == 0

        assert cli_main(["curves", "--out", str(ws / "curves")]) == 0
        assert cli_main(["curves", "--out", str(ws / "curves_repeat")]) == 0
    return ws


@criterion(1, "gradient-weight identity vs finite differences")
def test_criterion_1_gradient_weight_identity():
    start = time.perf_counter()
    for name in VARIANT_NAMES:
        variant = next(v for v in LossVariant if v.value == name)
        for gamma in (0.05, 0.07, 1.0):
            config = LossConfig(variant, gamma=gamma)
            for delta in QUARTER_GRID:
                analytic = gradient_weight(config, delta)
                fd = fd_weight(name, gamma, delta, h=1e-5)
                assert abs(analytic - fd) <= 1e-6 * abs(fd), (name, gamma, delta)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


@criterion(2, "weight values at zero margin")
def test_criterion_2_weight_values_at_zero():
    fd = fd_weight("focal", 0.05, 0.0, h=1e-6)
    assert abs(fd - W_FOCAL_AT_ZERO) <= 1e-9  # oracle self-check
    analytic = gradient_weight(LossConfig(LossVariant.FOCAL, gamma=0.05), 0.0)
    assert abs(analytic - fd) <= 1e-6
    assert gradient_weight(LossConfig(LossVariant.DPO), 0.0) == 0.5


@criterion(3, "dominance and bell-shaped weight curve")
def test_criterion_3_dominance_and_bell_shape():
    start = time.perf_counter()
    dpo = LossConfig(LossVariant.DPO)
    focal = LossConfig(LossVariant.FOCAL, gamma=0.05)
    for delta in QUARTER_GRID:
        assert gradient_weight(focal, delta) < gradient_weight(dpo, delta)

    values = [gradient_weight(focal, d) for d in TENTH_GRID]
    diffs = [b - a for a, b in zip(values, values[1:])]
    sign_changes = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert sign_changes == 1
    peak_index = max(range(len(values)), key=values.__getitem__)
    assert -5.0 < TENTH_GRID[peak_index] < 0.0
    assert values[peak_index] - values[0] >= 0.25
    assert values[peak_index] - values[-1] >= 0.25
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


@criterion(4, "modulating-factor monotonicity")
def test_criterion_4_factor_monotonicity():
    ps = [0.01 * k for k in range(1, 100)]
    for gamma in (0.05, 0.5, 1.0):
        up = [modulating_factor(LossVariant.FOCAL, p, gamma) for p in ps]
        down = [modulating_factor(LossVariant.FOCUS_INCORRECT, p, gamma) for p in ps]
        assert all(a < b for a, b in zip(up, up[1:]))
        assert all(a > b for a, b in zip(down, down[1:]))
    assert modulating_factor(LossVariant.FOCAL, 0.5, 0.05) == pytest.approx(
        FACTOR_HALF_G005, abs=1e-6
    )
    assert modulating_factor(LossVariant.FOCUS_INCORRECT, 0.5, 0.05) == pytest.approx(
        FACTOR_HALF_G005, abs=1e-6
    )


@criterion(5, "policy gradient and normalization checks")
def test_criterion_5_policy_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    h = 1e-5
    for _ in range(20):
        policy = scaled_random_policy(2, 5, int(rng.integers(1 << 30)), 1.5)
        seq = int(rng.integers(2)), tuple(int(t) for t in rng.integers(0, 5, 4))
        grad = sequence_log_prob_grad(policy, *seq)
        for idx in np.ndindex(*grad.shape):
            policy.logits[idx] += h
            up = sequence_log_prob(policy, *seq)
            policy.logits[idx] -= 2 * h
            down = sequence_log_prob(policy, *seq)
            policy.logits[idx] += h
            fd = (up - down) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-6 * max(abs(fd), 1.0)

    policy = scaled_random_policy(2, 4, 99, 2.0)
    for prompt_class in range(2):
        total = sum(
            math.exp(sequence_log_prob(policy, prompt_class, tokens))
            for tokens in itertools.product(range(4), repeat=3)
        )
        assert abs(total - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.3f}s exceeds 5s"


@criterion(6, "end-to-end descent, accuracy, determinism")
def test_criterion_6_end_to_end_descent(toy_runs):
    for variant, _ in RUN_VARIANTS:
        run = toy_runs[variant.value]
        final = run["report"].final
        decrease = 1.0 - final["final_mean_loss"] / final["initial_mean_loss"]
        assert decrease >= 0.30, f"{variant.value}: loss decrease {decrease:.3f} < 30%"
        assert run["seconds"] < 60.0, f"{variant.value}: runtime {run['seconds']:.1f}s"
        assert run["report"].steps[-1].step == 200
    for name in ("dpo", "focal"):
        accuracy = toy_runs[name]["report"].final["overall_accuracy"]
        assert accuracy >= 0.9, f"{name}: accuracy {accuracy:.3f} < 0.9"
    # bitwise determinism across reruns
    assert toy_runs["dpo"]["checksum"] == toy_runs["dpo_repeat"]["checksum"]
    assert (
        toy_runs["dpo"]["report"].to_json_dict()
        == toy_runs["dpo_repeat"]["report"].to_json_dict()
    )


@criterion(7, "subgroup down-weighting mechanism")
def test_criterion_7_subgroup_downweighting(toy_runs):
    for variant, _ in RUN_VARIANTS:
        final = toy_runs[variant.value]["report"].final
        margins = final["mean_margin_by_subgroup"]
        ratios = final["focal_to_dpo_weight_ratio"]
        margin_ordering = margins["incorrect_at_init"] < margins["correct_at_init"]
        if margin_ordering:
            assert ratios["incorrect_at_init"] < ratios["correct_at_init"], variant.value
        # the report itself must record both orderings
        assert final["margin_ordering_incorrect_below_correct"] == margin_ordering
        assert final["ratio_ordering_incorrect_below_correct"] == (
            ratios["incorrect_at_init"] < ratios["correct_at_init"]
        )
    # the frozen configuration exercises the mechanism non-vacuously
    dpo_final = toy_runs["dpo"]["report"].final
    assert dpo_final["margin_ordering_incorrect_below_correct"] is True
    assert dpo_final["ratio_ordering_incorrect_below_correct"] is True


@criterion(8, "held-out side-by-side report")
def test_criterion_8_heldout_side_by_side(cli_workspace):
    side_by_side = {}
    for name in ("dpo", "focal", "focus-incorrect"):
        metrics_path = cli_workspace / f"eval_{name}" / "metrics.json"
        payload = json.loads(metrics_path.read_text())
        metrics = payload["metrics"]
        assert metrics["num_pairs"] == 100
        assert 0.0 <= metrics["overall_accuracy"] <= 1.0
        assert set(payload["weights"]) == {"dpo", "focal", "focus-incorrect"}
        for key in (
            "accuracy_by_subgroup",
            "mean_margin_by_subgroup",
            "flip_incorrect_to_correct",
            "flip_correct_to_incorrect",
        ):
            assert key in metrics
        side_by_side[name] = {
            "heldout_accuracy": metrics["overall_accuracy"],
            "flip_incorrect_to_correct": metrics["flip_incorrect_to_correct"],
            "flip_correct_to_incorrect": metrics["flip_correct_to_incorrect"],
        }
    # complete report, no asserted direction between the variants
    out_path = cli_workspace / "side_by_side.json"
    out_path.write_text(json.dumps(side_by_side, indent=2) + "\n")
    assert len(side_by_side) == 3
    print("side-by-side held-out accuracy:", json.dumps(side_by_side))


@criterion(9, "format round trips and byte-identical reruns")
def test_criterion_9_format_stability(cli_workspace):
    from focalpo.data import load_dataset, save_dataset
    from focalpo.policy import load_policy, save_policy

    # value-exact round trips
    pairs_path = cli_workspace / "synth" / "pairs.jsonl"
    pairs = load_dataset(pairs_path, num_prompt_classes=4, vocab_size=8)
    resaved = cli_workspace / "resaved.jsonl"
    save_dataset(resaved, pairs)
    assert resaved.read_bytes() == pairs_path.read_bytes()

    reference_path = cli_workspace / "synth" / "reference.txt"
    resaved_ref = cli_workspace / "resaved_reference.txt"
    save_policy(resaved_ref, load_policy(reference_path))
    assert resaved_ref.read_bytes() == reference_path.read_bytes()

    # byte-identical reruns (timing.json is excluded by design: it records
    # wall-clock measurements)
    for name in ("manifest.json", "reference.txt", "pairs.jsonl", "holdout.jsonl"):
        assert (cli_workspace / "synth" / name).read_bytes() == (
            cli_workspace / "synth_repeat" / name
        ).read_bytes()
    for name in ("manifest.json", "report.csv", "report.json", "policy.txt"):
        assert (cli_workspace / "run_dpo" / name).read_bytes() == (
            cli_workspace / "run_dpo_repeat" / name
        ).read_bytes()
    for name in ("manifest.json", "factors.csv", "weights.csv", "losses.csv"):
        assert (cli_workspace / "curves" / name).read_bytes() == (
            cli_workspace / "curves_repeat" / name
        ).read_bytes()
