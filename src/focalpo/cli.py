"""Command-line entry point: reproducible experiments and curve data.

Subcommands: curves (factor/weight/loss CSVs over grids), synth (dataset
generation with a seeded reference), train (mini-batch run with report
files), eval (metrics JSON for saved artifacts). Every command that writes
files emits its run manifest first, and identical invocations reproduce
byte-identical data files; wall-clock timing goes to a separate file that
is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    LABELING_MODES,
    encode_pairs,
    holdout_size,
    load_dataset,
    random_reward_model,
    save_dataset,
    split_holdout,
    synthesize_dataset,
    SynthConfig,
)
from .losses import (
    GAMMA_MAX,
    TUNED_GAMMA_RANGE,
    LossConfig,
    LossVariant,
    modulating_factor,
    pair_loss,
    parse_variant,
)
from .policy import load_policy, random_policy, save_policy
from .trainer import (
    TrainConfig,
    evaluate,
    train,
    write_report_csv,
    write_report_json,
)

MANIFEST_NAME = "manifest.json"
MAX_GRID_POINTS = 1_000_000
GRID_OPTIONS = ("--delta-grid", "--p-grid")


class UsageError(ValueError):
    """Inputs that are each valid but cannot go together; exits 2 like
    the parser's own usage errors."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _unit_fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {value}")
    return value


def _grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"invalid grid {text!r}: expected min:max:step")
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid grid token {part!r} in {text!r}")
    lo, hi, step = values
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"grid values must be finite in {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"grid min must be < max in {text!r}")
    if not step > 0:
        raise argparse.ArgumentTypeError(f"grid step must be > 0 in {text!r}")
    if not (hi - lo) / step + 1e-9 < MAX_GRID_POINTS:  # as counted by _grid_points
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has more than {MAX_GRID_POINTS} points; use a larger step"
        )
    return lo, hi, step


def _probability_grid(text: str) -> tuple[float, float, float]:
    grid = _grid(text)
    if not (0.0 < grid[0] and _grid_points(grid)[-1] < 1.0):
        raise argparse.ArgumentTypeError(
            f"probability grid {text!r} must lie in the open interval (0, 1)"
        )
    return grid


def _grid_points(grid: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = grid
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + np.arange(count) * step


def _join_grid_values(argv: list[str]) -> list[str]:
    """Rewrite `--delta-grid -5:5:1` as `--delta-grid=-5:5:1`: argparse
    takes a value that starts with '-' for an option unless it looks like a
    plain negative number, so a grid with a negative lower bound would
    otherwise only parse in the joined form."""
    out = []
    for arg in argv:
        if out and out[-1] in GRID_OPTIONS and re.fullmatch(r"-[^:]*:[^:]*:[^:]*", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _manifest(command: str, configuration: dict, seeds: dict, outputs: dict) -> dict:
    return {
        "command": command,
        "artifact_version": __version__,
        "configuration": configuration,
        "seeds": seeds,
        "outputs": outputs,
    }


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """One column per entry, in order, with the entry's name as its header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(
            fh,
            np.column_stack(list(columns.values())),
            fmt="%.9g",
            delimiter=",",
            header=",".join(columns),
            comments="",
        )


# ----------------------------------------------------------------- curves


def _gamma_columns(gamma: float) -> dict[str, LossVariant]:
    tag = f"{gamma:g}"
    return {
        f"focal_g{tag}": LossVariant.FOCAL,
        f"focal_exact_g{tag}": LossVariant.FOCAL_EXACT,
        f"focus_incorrect_g{tag}": LossVariant.FOCUS_INCORRECT,
    }


def cmd_curves(args) -> int:
    gammas = list(dict.fromkeys(args.gamma or [0.05]))
    for g in gammas:
        if not 0.0 < g <= GAMMA_MAX:
            raise ValueError(f"--gamma must lie in (0, {GAMMA_MAX}], got {g}")
    # The weight/loss files always carry the reference configurations
    # (focal at 0.05, focus-incorrect at 1) alongside whatever was asked for.
    weight_gammas = list(dict.fromkeys(gammas + [0.05, 1.0]))

    out_dir = Path(args.out)
    manifest = _manifest(
        "curves",
        {
            "gamma_list": gammas,
            "weight_gamma_list": weight_gammas,
            "delta_grid": list(args.delta_grid),
            "p_grid": list(args.p_grid),
        },
        seeds={},
        outputs={
            "factors": "factors.csv",
            "weights": "weights.csv",
            "losses": "losses.csv",
        },
    )
    _write_manifest(out_dir, manifest)

    p_values = _grid_points(args.p_grid)
    factors = {"p": p_values}
    for g in gammas:
        for name, variant in _gamma_columns(g).items():
            factors[name] = modulating_factor(variant, p_values, g)
    _write_csv(out_dir / "factors.csv", factors)

    deltas = _grid_points(args.delta_grid)
    dpo = pair_loss(LossConfig(LossVariant.DPO), deltas)
    weights = {"delta": deltas, "dpo": dpo.weight}
    losses = {"delta": deltas, "dpo": dpo.loss}
    for g in weight_gammas:
        for name, variant in _gamma_columns(g).items():
            out = pair_loss(LossConfig(variant, gamma=g), deltas)
            weights[name] = out.weight
            losses[name] = out.loss
    _write_csv(out_dir / "weights.csv", weights)
    _write_csv(out_dir / "losses.csv", losses)

    print(f"wrote factors.csv ({len(p_values)} rows), weights.csv and losses.csv "
          f"({len(deltas)} rows) under {out_dir}")
    # Empirical gap between the exact factor form and its adopted
    # approximation, reported over the margin grid rather than asserted.
    for g in weight_gammas:
        exact = pair_loss(LossConfig(LossVariant.FOCAL_EXACT, gamma=g), deltas)
        approx = pair_loss(LossConfig(LossVariant.FOCAL, gamma=g), deltas)
        gaps = exact.loss - approx.loss
        print(
            f"exact-vs-approx loss gap at gamma={g:g}: "
            f"min {_fmt(gaps.min())}, max {_fmt(gaps.max())} over delta grid"
        )
    return 0


# ------------------------------------------------------------------ synth


def _census(pairs, reference, label: str) -> None:
    n = len(pairs)
    n_correct = int(encode_pairs(reference, pairs).correct_at_init.sum())
    n_flipped = sum(1 for p in pairs if p.label_flipped)
    n_disagree = sum(1 for p in pairs if p.true_reward_chosen < p.true_reward_rejected)
    print(f"{label}: {n} pairs")
    print(f"  subgroups vs reference: {n_correct} correct_at_init, {n - n_correct} incorrect_at_init")
    print(f"  label_flipped: {n_flipped} ({n_flipped / n:.3f})")
    print(
        f"  labels disagreeing with true reward: {n_disagree} ({n_disagree / n:.3f}) "
        "(must stay below 0.5 for the dataset to remain learnable)"
    )


def cmd_synth(args) -> int:
    config = SynthConfig(
        num_pairs=args.pairs,
        num_prompt_classes=args.classes,
        vocab_size=args.vocab,
        seq_length=args.length,
        labeling_mode=args.mode,
        noise_rate=args.noise,
        generator_seed=args.seed,
    )
    if holdout_size(args.pairs, args.holdout_fraction) == args.pairs:
        raise UsageError(
            f"--holdout-fraction {args.holdout_fraction:g} holds out all of --pairs "
            f"{args.pairs}, leaving no training pairs"
        )
    out_dir = Path(args.out)
    outputs = {"reference": "reference.txt", "pairs": "pairs.jsonl"}
    if args.holdout_fraction > 0.0:
        outputs["holdout"] = "holdout.jsonl"
    manifest = _manifest(
        "synth",
        {
            "pairs": args.pairs,
            "classes": args.classes,
            "vocab": args.vocab,
            "length": args.length,
            "mode": args.mode,
            "noise": args.noise,
            "holdout_fraction": args.holdout_fraction,
        },
        seeds={
            "generator_seed": args.seed,
            "reference_seed": args.ref_seed,
            "reward_seed": args.reward_seed,
        },
        outputs=outputs,
    )
    _write_manifest(out_dir, manifest)

    reference = random_policy(args.classes, args.vocab, args.ref_seed)
    reward = random_reward_model(args.classes, args.vocab, args.reward_seed)
    pairs = synthesize_dataset(config, reward, reference)
    train_pairs, holdout_pairs = split_holdout(pairs, args.holdout_fraction)

    save_policy(out_dir / "reference.txt", reference)
    save_dataset(out_dir / "pairs.jsonl", train_pairs)
    if holdout_pairs:
        save_dataset(out_dir / "holdout.jsonl", holdout_pairs)

    _census(train_pairs, reference, "pairs.jsonl")
    if holdout_pairs:
        _census(holdout_pairs, reference, "holdout.jsonl")
    return 0


# ------------------------------------------------------------------ train


def cmd_train(args) -> int:
    variant = parse_variant(args.loss)
    gamma = args.gamma
    if variant is LossVariant.DPO:
        if gamma is not None:
            print(f"notice: gamma={gamma:g} is ignored by the dpo loss")
        gamma = 0.05  # stored but unused
    elif gamma is None:
        gamma = 0.05
    if variant is LossVariant.FOCAL and gamma > 1.0:
        lo, hi = TUNED_GAMMA_RANGE
        print(f"notice: gamma={gamma:g} is outside the tuned focal range [{lo}, {hi}]")

    reference = load_policy(args.reference)
    dataset = load_dataset(
        args.dataset,
        num_prompt_classes=reference.num_prompt_classes,
        vocab_size=reference.vocab_size,
    )
    config = TrainConfig(
        loss=LossConfig(variant, beta=args.beta, gamma=gamma),
        learning_rate=args.lr,
        batch_size=args.batch_size,
        num_epochs=args.epochs,
        optimizer=args.optimizer,
        adam_beta1=args.adam_beta1,
        adam_beta2=args.adam_beta2,
        adam_epsilon=args.adam_eps,
        shuffle_seed=args.shuffle_seed,
        eval_every=args.eval_every,
    )
    out_dir = Path(args.out)
    manifest = _manifest(
        "train",
        {
            "dataset": str(args.dataset),
            "reference": str(args.reference),
            **config.echo(),
        },
        seeds={"shuffle_seed": args.shuffle_seed},
        outputs={
            "report_csv": "report.csv",
            "report_json": "report.json",
            "policy": "policy.txt",
            "timing": "timing.json",
        },
    )
    _write_manifest(out_dir, manifest)

    policy = reference.clone()
    report = train(config, dataset, policy, reference)

    write_report_csv(out_dir / "report.csv", report)
    write_report_json(out_dir / "report.json", report)
    save_policy(out_dir / "policy.txt", policy)
    with open(out_dir / "timing.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"wall_clock_seconds": report.wall_clock_seconds}, fh, indent=2)
        fh.write("\n")

    first, last = report.steps[0], report.steps[-1]
    print(f"trained {args.loss} for {last.step} steps on {len(dataset)} pairs")
    print(f"  mean loss: {_fmt(first.mean_loss)} -> {_fmt(last.mean_loss)}")
    print(f"  overall accuracy: {_fmt(last.accuracy_overall)}")
    print(
        "  flip rates: incorrect->correct "
        f"{report.final['flip_incorrect_to_correct']}, correct->incorrect "
        f"{report.final['flip_correct_to_incorrect']}"
    )
    return 0


# ------------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    policy = load_policy(args.policy)
    reference = load_policy(args.reference)
    dataset = load_dataset(
        args.dataset,
        num_prompt_classes=reference.num_prompt_classes,
        vocab_size=reference.vocab_size,
    )
    if not 0.0 < args.beta < math.inf:
        raise ValueError(f"--beta must be finite and > 0, got {args.beta}")

    evaluation = evaluate(policy, encode_pairs(reference, dataset), args.beta)
    ordering = evaluation.orderings()

    manifest = _manifest(
        "eval",
        {
            "dataset": str(args.dataset),
            "policy": str(args.policy),
            "reference": str(args.reference),
            "beta": args.beta,
        },
        seeds={},
        outputs={"metrics": "metrics.json"} if args.out else {},
    )
    output = {
        "manifest": manifest,
        "metrics": evaluation.metrics(),
        "weights": ordering["weight_profile"],
        "focal_to_dpo_weight_ratio": ordering["focal_to_dpo_weight_ratio"],
        "margin_ordering_incorrect_below_correct": ordering[
            "margin_ordering_incorrect_below_correct"
        ],
        "ratio_ordering_incorrect_below_correct": ordering[
            "ratio_ordering_incorrect_below_correct"
        ],
    }
    text = json.dumps(output, indent=2, allow_nan=False)
    if args.out:
        out_dir = Path(args.out)
        _write_manifest(out_dir, manifest)
        with open(out_dir / "metrics.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focalpo",
        description="Preference-optimization lab: losses, curves, synthetic data, training.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves", help="write factor/weight/loss curve CSVs")
    p_curves.add_argument("--out", required=True, help="output directory")
    p_curves.add_argument(
        "--gamma",
        type=float,
        action="append",
        help="focusing parameter for the factor curves (repeatable; default 0.05)",
    )
    p_curves.add_argument(
        "--delta-grid", type=_grid, default=(-10.0, 10.0, 0.1), help="margin grid min:max:step"
    )
    p_curves.add_argument(
        "--p-grid",
        type=_probability_grid,
        default=(0.01, 0.99, 0.01),
        help="probability grid min:max:step, inside (0, 1)",
    )
    p_curves.set_defaults(func=cmd_curves)

    p_synth = sub.add_parser("synth", help="generate a synthetic preference dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--pairs", type=_positive_int, required=True)
    p_synth.add_argument("--classes", type=_positive_int, default=4)
    p_synth.add_argument("--vocab", type=_positive_int, default=8)
    p_synth.add_argument("--length", type=_positive_int, default=4)
    p_synth.add_argument("--mode", choices=LABELING_MODES, default="deterministic")
    p_synth.add_argument("--noise", type=_unit_fraction, default=0.0)
    p_synth.add_argument("--seed", type=_non_negative_int, default=0)
    p_synth.add_argument("--ref-seed", type=_non_negative_int, default=1)
    p_synth.add_argument("--reward-seed", type=_non_negative_int, default=2)
    p_synth.add_argument("--holdout-fraction", type=_unit_fraction, default=0.0)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a policy against a frozen reference")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--reference", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument(
        "--loss", choices=[v.value for v in LossVariant], default=LossVariant.DPO.value
    )
    p_train.add_argument("--beta", type=float, default=0.01)
    p_train.add_argument("--gamma", type=float, default=None)
    p_train.add_argument("--lr", type=float, default=3e-3)
    p_train.add_argument("--batch-size", type=_positive_int, default=128)
    p_train.add_argument("--epochs", type=_non_negative_int, default=1)
    p_train.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p_train.add_argument("--adam-beta1", type=float, default=0.9)
    p_train.add_argument("--adam-beta2", type=float, default=0.999)
    p_train.add_argument("--adam-eps", type=float, default=1e-8)
    p_train.add_argument("--shuffle-seed", type=_non_negative_int, default=0)
    p_train.add_argument("--eval-every", type=_positive_int, default=10)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved policy on a dataset")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--policy", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--beta", type=float, default=0.01)
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_grid_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
