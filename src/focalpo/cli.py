"""Command-line entry point: reproducible experiments and curve data.

Subcommands: curves (factor/weight/loss CSVs over grids), synth (dataset
generation with a seeded reference), train (mini-batch run with report
files), eval (metrics JSON for saved artifacts). Every output file is
written here, each JSON file by _write_json; the manifest comes first, and
identical invocations reproduce byte-identical data files. Wall-clock
timing goes to a separate file that is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import astuple, fields
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
from .files import atomic_write
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
from .trainer import StepRecord, TrainConfig, evaluate, train

MANIFEST_NAME = "manifest.json"
MAX_GRID_POINTS = 1_000_000
# synth caps on C x (V+1) x V table values and on --pairs x --length tokens
MAX_TABLE_VALUES = MAX_DATASET_TOKENS = 2**22
# Values formatted per step when writing a CSV: big enough that the
# per-call overhead vanishes, small enough that the block's arrays and text
# stay a fraction of a megabyte.
CSV_BLOCK_VALUES = 4096
GRID_OPTIONS = ("--delta-grid", "--p-grid")


class UsageError(ValueError):
    """Inputs that are each valid but cannot go together; exits 2 like
    the parser's own usage errors."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _flag(convert, ok, requirement: str):
    """A parser type that reads an int or float (per convert) and checks
    ok(value); either failure is a usage error naming the flag's value."""
    noun = "integer" if convert is int else "number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {noun} {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {value}")
        return value

    return parse


_positive_int = _flag(int, lambda v: v >= 1, "be >= 1")
_non_negative_int = _flag(int, lambda v: v >= 0, "be >= 0")
_unit_fraction = _flag(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_gamma = _flag(float, lambda v: 0.0 < v <= GAMMA_MAX, f"lie in (0, {GAMMA_MAX}]")
_positive_finite = _flag(float, lambda v: 0.0 < v < math.inf, "be finite and > 0")
_non_negative_finite = _flag(float, lambda v: 0.0 <= v < math.inf, "be finite and >= 0")


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


def _write_json(path: Path | None, value) -> str:
    """Every JSON output's one layout: 2-space indent, no NaN or infinity, LF
    at the end. Returns the text, after writing it to path if one is given."""
    text = json.dumps(value, indent=2, allow_nan=False) + "\n"
    if path is not None:
        with atomic_write(path) as fh:
            fh.write(text)
    return text


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / MANIFEST_NAME, manifest)


def _manifest(command: str, configuration: dict, seeds: dict, outputs: dict) -> dict:
    return {
        "command": command,
        "artifact_version": __version__,
        "configuration": configuration,
        "seeds": seeds,
        "outputs": outputs,
    }


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """One column per entry, in order, with the entry's name as its header;
    every value as %.9g. The table is formatted a block of rows at a time,
    by csvtext.format_block or, for a block it declines, by one `%` call."""
    from .csvtext import format_block  # compiled only by a command that writes a CSV

    table = np.column_stack(list(columns.values()))
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    block_rows = max(1, CSV_BLOCK_VALUES // table.shape[1])
    seps = np.tile(np.uint64([ord(",")] * (table.shape[1] - 1) + [ord("\n")]) << 40, block_rows)
    out = np.empty((len(seps), 4), "<u8")
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(table), block_rows):
            block = table[start:start + block_rows].ravel()
            fh.write(format_block(block, seps[:len(block)], out[:len(block)])
                     or row * (len(block) // table.shape[1]) % tuple(block.tolist()))


def _report_row(record: StepRecord) -> str:
    """A report.csv row: ints as is, floats as %.9g, None (empty subgroup) as nan."""
    cells = ("nan" if v is None else _fmt(v) if isinstance(v, float) else str(v)
             for v in astuple(record))
    return ",".join(cells) + "\n"


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
    # The weight/loss files always carry the reference configurations
    # (focal at 0.05, focus-incorrect at 1) alongside whatever was asked for.
    weight_gammas = list(dict.fromkeys(gammas + [0.05, 1.0]))
    tags = {}
    for g in weight_gammas:
        other = tags.setdefault(f"{g:g}", g)
        if other != g:
            raise UsageError(f"gamma {other!r} and gamma {g!r} would both write columns g{g:g}")

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
        gaps = losses[f"focal_exact_g{g:g}"] - losses[f"focal_g{g:g}"]
        print(
            f"exact-vs-approx loss gap at gamma={g:g}: "
            f"min {_fmt(gaps.min())}, max {_fmt(gaps.max())} over delta grid"
        )
    return 0


# ------------------------------------------------------------------ synth


def _census(dataset, reference, label: str) -> None:
    n = len(dataset)
    n_correct = int(encode_pairs(reference, dataset).correct_at_init.sum())
    n_flipped = int(dataset.label_flipped.sum())
    n_disagree = int((dataset.reward_chosen < dataset.reward_rejected).sum())
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
        seq_length=args.length,
        labeling_mode=args.mode,
        noise_rate=args.noise,
        generator_seed=args.seed,
    )
    if args.classes * (args.vocab + 1) * args.vocab > MAX_TABLE_VALUES:
        raise UsageError(f"--classes x (--vocab + 1) x --vocab exceeds {MAX_TABLE_VALUES}")
    if args.pairs * args.length > MAX_DATASET_TOKENS:
        raise UsageError(f"--pairs x --length exceeds {MAX_DATASET_TOKENS}")
    if holdout_size(args.pairs, args.holdout_fraction) == args.pairs:
        raise UsageError(
            f"--holdout-fraction {args.holdout_fraction:g} holds out all of --pairs "
            f"{args.pairs}, leaving no training pairs"
        )
    out_dir = Path(args.out)
    outputs = {"reference": "reference.txt", "pairs": "pairs.jsonl"}
    if holdout_size(args.pairs, args.holdout_fraction):
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
    dataset = synthesize_dataset(config, reward, reference)
    train_pairs, holdout_pairs = split_holdout(dataset, args.holdout_fraction)

    save_policy(out_dir / "reference.txt", reference)
    save_dataset(out_dir / "pairs.jsonl", train_pairs)
    if len(holdout_pairs):
        save_dataset(out_dir / "holdout.jsonl", holdout_pairs)

    _census(train_pairs, reference, "pairs.jsonl")
    if len(holdout_pairs):
        _census(holdout_pairs, reference, "holdout.jsonl")
    return 0


# ------------------------------------------------------------------ train


def cmd_train(args) -> int:
    variant = parse_variant(args.loss)
    if variant is LossVariant.DPO and args.gamma is not None:
        print(f"notice: gamma={args.gamma:g} is ignored by the dpo loss")
    # dpo stores the default gamma, unused
    gamma = 0.05 if args.gamma is None or variant is LossVariant.DPO else args.gamma
    if variant is LossVariant.FOCAL and gamma > 1.0:
        lo, hi = TUNED_GAMMA_RANGE
        print(f"notice: gamma={gamma:g} is outside the tuned focal range [{lo}, {hi}]")

    config = TrainConfig(
        loss=LossConfig(variant, gamma=gamma),
        beta=args.beta,
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
    reference = load_policy(args.reference)
    dataset = load_dataset(
        args.dataset,
        num_prompt_classes=reference.num_prompt_classes,
        vocab_size=reference.vocab_size,
    )
    if not len(dataset):
        raise ValueError("dataset must be non-empty")
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

    # not by _write_csv, whose csvtext import train does not need
    with atomic_write(out_dir / "report.csv") as fh:
        fh.write(",".join(f.name for f in fields(StepRecord)) + "\n")
        fh.writelines(map(_report_row, report.steps))
    _write_json(out_dir / "report.json", report.to_json_dict())
    save_policy(out_dir / "policy.txt", policy)
    _write_json(out_dir / "timing.json", {"wall_clock_seconds": report.wall_clock_seconds})

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
        "weights": ordering.pop("weight_profile"),
        **dict(sorted(ordering.items())),  # metrics.json lists these by name
    }
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        _write_manifest(out_dir, manifest)
    print(_write_json(out_dir and out_dir / "metrics.json", output), end="")
    return 0


# ------------------------------------------------------------------- main


@functools.cache  # parsing leaves the parser unchanged, so one serves every main()
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
        type=_gamma,
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
    p_synth.add_argument("--vocab", type=_flag(int, lambda v: v >= 2, "be >= 2"), default=8)
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
    p_train.add_argument("--beta", type=_positive_finite, default=0.01)
    p_train.add_argument("--gamma", type=_gamma, default=None)
    p_train.add_argument("--lr", type=_non_negative_finite, default=3e-3)
    p_train.add_argument("--batch-size", type=_positive_int, default=128)
    p_train.add_argument("--epochs", type=_non_negative_int, default=1)
    p_train.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p_train.add_argument("--adam-beta1", type=_unit_fraction, default=0.9)
    p_train.add_argument("--adam-beta2", type=_unit_fraction, default=0.999)
    p_train.add_argument("--adam-eps", type=_positive_finite, default=1e-8)
    p_train.add_argument("--shuffle-seed", type=_non_negative_int, default=0)
    p_train.add_argument("--eval-every", type=_positive_int, default=10)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved policy on a dataset")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--policy", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--beta", type=_positive_finite, default=0.01)
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
