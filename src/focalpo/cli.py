"""Command-line entry point: reproducible experiments and curve data.

Subcommands: curves (factor/weight/loss CSVs over grids), synth (dataset
generation with a seeded reference), train (mini-batch run with report
files), eval (metrics JSON for saved artifacts). Every output file is
written here and laid out here, each JSON file by _write_json; the manifest
comes first, and identical invocations reproduce byte-identical data files.
train's wall-clock time, measured here, goes to a separate file that is
excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import asdict, astuple, fields
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
    PROB_EPS,
    TUNED_GAMMA_RANGE,
    LossConfig,
    LossVariant,
    modulating_factor,
    pair_loss,
)
from .policy import load_policy, random_policy, save_policy
from .trainer import OPTIMIZERS, PROFILE_LOSSES, StepRecord, TrainConfig, evaluate, train

MANIFEST_NAME = "manifest.json"
MAX_GRID_POINTS = 1_000_000
# synth caps on C x (V+1) x V table values and on --pairs x --length tokens
MAX_TABLE_VALUES = MAX_DATASET_TOKENS = 2**22
# curves cap on the rows x columns of each CSV: a million-row grid at the
# default gamma (eight weight columns) fits, and each extra --gamma adds
# three columns to every file
MAX_CSV_VALUES = 2**24
GRID_OPTIONS = ("--delta-grid", "--p-grid")
FOCAL_FAMILY = tuple(v for v in LossVariant if v is not LossVariant.DPO)


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
    """A grid inside the loss zoo's clamp window, where each factor is
    taken at p itself rather than at a clamped p or 1 - p."""
    grid = _grid(text)
    if not (PROB_EPS <= grid[0] and _grid_points(grid)[-1] <= 1.0 - PROB_EPS):
        raise argparse.ArgumentTypeError(
            f"probability grid {text!r} must lie in the open interval (0, 1), "
            f"within [{PROB_EPS:g}, 1 - {PROB_EPS:g}]"
        )
    return grid


def _grid_points(grid: tuple[float, float, float]) -> np.ndarray:
    lo, hi, step = grid
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + np.arange(count) * step


def _join_grid_values(argv: list[str]) -> list[str]:
    """Rewrite `curves --delta-grid -5:5:1` as `curves --delta-grid=-5:5:1`:
    argparse takes a value that starts with '-' for an option unless it
    looks like a plain negative number, so a grid with a negative lower
    bound would otherwise only parse in the joined form. A prefix of a grid
    flag, such as `--delta`, is joined too: argparse resolves the joined
    form as it resolves the prefix, to that flag or to an ambiguity."""
    if argv[:1] != ["curves"]:
        return argv
    out = argv[:1]
    for arg in argv[1:]:
        if (len(out[-1]) > 2 and any(flag.startswith(out[-1]) for flag in GRID_OPTIONS)
                and re.fullmatch(r"-[^:]*:[^:]*:[^:]*", arg)):
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


def _manifest(
    out_dir: Path | None, command: str, configuration: dict, seeds: dict, outputs: dict
) -> dict:
    """The command's manifest. Given an output directory, it is written
    there first, before any data file, creating the directory."""
    manifest = {
        "command": command,
        "artifact_version": __version__,
        "configuration": configuration,
        "seeds": seeds,
        "outputs": outputs,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / MANIFEST_NAME, manifest)
    return manifest


def _load_dataset(path: str, reference):
    """The dataset at path, loaded against the reference's (C, V); an empty
    one is an error that names the file."""
    dataset = load_dataset(
        path, num_prompt_classes=reference.num_prompt_classes, vocab_size=reference.vocab_size
    )
    if not len(dataset):
        raise ValueError(f"{path}: dataset must be non-empty")
    return dataset


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """One column per entry, in order, under the entry's name; every value as
    %.9g, the columns stacked a block of rows at a time (see policytext.write_blocks)."""
    from .policytext import write_blocks  # compiled only by a command that writes a CSV

    values, line = list(columns.values()), ",".join(["%.9g"] * len(columns)) + "\n"
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        write_blocks(fh, line, len(values[0]),
                     lambda rows: np.column_stack([v[rows] for v in values]))


# ----------------------------------------------------------------- curves


def _column(variant: LossVariant, gamma: float) -> str:
    return f"{variant.value.replace('-', '_')}_g{gamma:g}"


def _gamma_columns(gamma: float) -> dict[str, LossConfig]:
    return {_column(v, gamma): LossConfig(v, gamma=gamma) for v in FOCAL_FAMILY}


def cmd_curves(args) -> int:
    gammas = list(dict.fromkeys(args.gamma or [LossConfig.gamma]))
    # The weight/loss files always carry the gammas of the profile trio
    # (focal at 0.05, focus-incorrect at 1) alongside whatever was asked for.
    weight_gammas = list(dict.fromkeys(gammas + [loss.gamma for loss in PROFILE_LOSSES[1:]]))
    tags = {}
    for g in weight_gammas:
        other = tags.setdefault(f"{g:g}", g)
        if other != g:
            raise UsageError(f"gamma {other!r} and gamma {g!r} would both write columns g{g:g}")
    p_values, deltas = _grid_points(args.p_grid), _grid_points(args.delta_grid)
    for name, rows, columns in (
        ("factors.csv", len(p_values), 1 + len(FOCAL_FAMILY) * len(gammas)),
        ("weights.csv", len(deltas), 2 + len(FOCAL_FAMILY) * len(weight_gammas)),
    ):
        if rows * columns > MAX_CSV_VALUES:
            raise UsageError(f"{name} would hold {rows} rows x {columns} columns = "
                             f"{rows * columns} values, more than {MAX_CSV_VALUES}")

    factors = {"p": p_values}
    for g in gammas:
        for name, loss in _gamma_columns(g).items():
            factors[name] = modulating_factor(loss, p_values)
    columns = {"dpo": LossConfig(LossVariant.DPO)}
    for g in weight_gammas:
        columns.update(_gamma_columns(g))
    weights, losses = {"delta": deltas}, {"delta": deltas}
    for name, loss in columns.items():
        out = pair_loss(loss, deltas)
        weights[name], losses[name] = out.weight, out.loss
        bad = ~(np.isfinite(out.loss) & np.isfinite(out.weight))
        if bad.any():  # the loss zoo leaves what overflows a float as +-inf
            raise UsageError(f"the {name} loss or weight is not finite at delta "
                             f"{float(deltas[bad][0])!r}")

    out_dir = Path(args.out)
    _manifest(
        out_dir,
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

    _write_csv(out_dir / "factors.csv", factors)
    _write_csv(out_dir / "weights.csv", weights)
    _write_csv(out_dir / "losses.csv", losses)

    print(f"wrote factors.csv ({len(p_values)} rows), weights.csv and losses.csv "
          f"({len(deltas)} rows) under {out_dir}")
    # Empirical gap between the exact factor form and its adopted
    # approximation, reported over the margin grid rather than asserted.
    for g in weight_gammas:
        gaps = (losses[_column(LossVariant.FOCAL_EXACT, g)]
                - losses[_column(LossVariant.FOCAL, g)])
        print(
            f"exact-vs-approx loss gap at gamma={g:g}: "
            f"min {_fmt(gaps.min())}, max {_fmt(gaps.max())} over delta grid"
        )
    return 0


# ------------------------------------------------------------------ synth


def _census(dataset, correct: np.ndarray, label: str) -> None:
    n, n_correct = len(dataset), int(correct.sum())
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
    _manifest(
        out_dir,
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

    reference = random_policy(args.classes, args.vocab, args.ref_seed)
    reward = random_reward_model(args.classes, args.vocab, args.reward_seed)
    dataset = synthesize_dataset(config, reward, reference)
    # both splits scored once, here: after the saves, it raised synth's peak memory
    correct = encode_pairs(reference, dataset).correct_at_init
    train_pairs, holdout_pairs = split_holdout(dataset, args.holdout_fraction)

    save_policy(out_dir / "reference.txt", reference)
    save_dataset(out_dir / "pairs.jsonl", train_pairs)
    if len(holdout_pairs):
        save_dataset(out_dir / "holdout.jsonl", holdout_pairs)

    _census(train_pairs, correct[:len(train_pairs)], "pairs.jsonl")
    if len(holdout_pairs):
        _census(holdout_pairs, correct[len(train_pairs):], "holdout.jsonl")
    return 0


# ------------------------------------------------------------------ train


def cmd_train(args) -> int:
    variant = LossVariant(args.loss)
    if variant is LossVariant.DPO and args.gamma is not None:
        print(f"notice: gamma={args.gamma:g} is ignored by the dpo loss")
    # dpo keeps the default gamma, unused
    if args.gamma is None or variant is LossVariant.DPO:
        loss = LossConfig(variant)
    else:
        loss = LossConfig(variant, gamma=args.gamma)
    lo, hi = TUNED_GAMMA_RANGE
    if variant is LossVariant.FOCAL and not lo <= loss.gamma <= hi:
        print(f"notice: gamma={loss.gamma:g} is outside the tuned focal range [{lo}, {hi}]")

    # a TrainConfig flag not given is absent from args, and TrainConfig fills it in
    given = {f.name: vars(args)[f.name] for f in fields(TrainConfig)[1:] if f.name in vars(args)}
    config = TrainConfig(loss, **given)
    policy = load_policy(args.reference)  # the reference until the pairs are encoded
    dataset = _load_dataset(args.dataset, policy)
    out_dir = Path(args.out)
    _manifest(
        out_dir,
        "train",
        {
            "dataset": str(args.dataset),
            "reference": str(args.reference),
            **config.echo(),
        },
        seeds={"shuffle_seed": config.shuffle_seed},
        outputs={
            "report_csv": "report.csv",
            "report_json": "report.json",
            "policy": "policy.txt",
            "timing": "timing.json",
        },
    )

    start = time.perf_counter()
    # the pairs keep all that training reads of the reference, so its table
    # is the one trained, and no copy of it is made
    steps, final = train(config, encode_pairs(policy, dataset), policy)
    seconds = time.perf_counter() - start

    # both reports are formed before either is written; report.csv writes
    # each int as is, each float as %.9g and None (empty subgroup) as nan
    report = {"config": config.echo(), "steps": list(map(asdict, steps)), "final": final}
    row = "%d" + ",%.9g" * (len(fields(StepRecord)) - 1) + "\n"
    rows = [",".join(f.name for f in fields(StepRecord)) + "\n",
            *(row % tuple(math.nan if v is None else v for v in astuple(s)) for s in steps)]
    for name, text in [("report.csv", "".join(rows)), ("report.json", _write_json(None, report))]:
        with atomic_write(out_dir / name) as fh:
            fh.write(text)
    del text  # before save_policy's blocks: a text left alive raised the wide run's peak
    save_policy(out_dir / "policy.txt", policy)
    _write_json(out_dir / "timing.json", {"wall_clock_seconds": seconds})

    first, last = steps[0], steps[-1]
    print(f"trained {args.loss} for {last.step} steps on {len(dataset)} pairs")
    print(f"  mean loss: {_fmt(first.mean_loss)} -> {_fmt(last.mean_loss)}")
    print(f"  overall accuracy: {_fmt(last.accuracy_overall)}")
    print(
        "  flip rates: incorrect->correct "
        f"{final['flip_incorrect_to_correct']}, correct->incorrect "
        f"{final['flip_correct_to_incorrect']}"
    )
    return 0


# ------------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    policy = load_policy(args.policy)
    reference = load_policy(args.reference)
    pairs = encode_pairs(reference, _load_dataset(args.dataset, reference))
    del reference  # the pairs keep all that evaluation reads of it
    evaluation = evaluate(policy, pairs, args.beta)
    metrics, ordering = evaluation.metrics(), evaluation.orderings()  # before any file

    out_dir = Path(args.out) if args.out else None
    manifest = _manifest(
        out_dir,
        "eval",
        {
            "dataset": str(args.dataset),
            "policy": str(args.policy),
            "reference": str(args.reference),
            "beta": args.beta,
        },
        seeds={},
        outputs={"metrics": "metrics.json"} if out_dir else {},
    )
    output = {
        "manifest": manifest,
        "metrics": metrics,
        "weights": ordering.pop("weight_profile"),
        **dict(sorted(ordering.items())),  # metrics.json lists these by name
    }
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
        help=f"focusing parameter for the factor curves (repeatable; default {LossConfig.gamma:g})",
    )
    p_curves.add_argument(
        "--delta-grid", type=_grid, default=(-10.0, 10.0, 0.1), help="margin grid min:max:step"
    )
    p_curves.add_argument(
        "--p-grid",
        type=_probability_grid,
        default=(0.01, 0.99, 0.01),
        help=f"probability grid min:max:step, inside [{PROB_EPS:g}, 1 - {PROB_EPS:g}]",
    )
    p_curves.set_defaults(func=cmd_curves)

    p_synth = sub.add_parser("synth", help="generate a synthetic preference dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--pairs", type=_positive_int, required=True)
    p_synth.add_argument("--classes", type=_positive_int, default=4)
    p_synth.add_argument("--vocab", type=_flag(int, lambda v: v >= 2, "be >= 2"), default=8)
    p_synth.add_argument("--length", type=_positive_int, default=SynthConfig.seq_length)
    p_synth.add_argument("--mode", choices=LABELING_MODES, default=SynthConfig.labeling_mode)
    p_synth.add_argument("--noise", type=_unit_fraction, default=SynthConfig.noise_rate)
    p_synth.add_argument("--seed", type=_non_negative_int, default=SynthConfig.generator_seed)
    p_synth.add_argument("--ref-seed", type=_non_negative_int, default=1)
    p_synth.add_argument("--reward-seed", type=_non_negative_int, default=2)
    p_synth.add_argument("--holdout-fraction", type=_unit_fraction, default=0.0)
    p_synth.set_defaults(func=cmd_synth)

    # TrainConfig owns the defaults of its flags, each named by its field
    p_train = sub.add_parser("train", help="train a policy against a frozen reference",
                             argument_default=argparse.SUPPRESS)
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--reference", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument(
        "--loss", choices=[v.value for v in LossVariant], default=LossVariant.DPO.value
    )
    p_train.add_argument("--beta", type=_positive_finite)
    p_train.add_argument("--gamma", type=_gamma, default=None)
    p_train.add_argument("--lr", type=_non_negative_finite, dest="learning_rate", metavar="LR")
    p_train.add_argument("--batch-size", type=_positive_int)
    p_train.add_argument("--epochs", type=_non_negative_int, dest="num_epochs", metavar="EPOCHS")
    p_train.add_argument("--optimizer", choices=OPTIMIZERS)
    p_train.add_argument("--adam-beta1", type=_unit_fraction)
    p_train.add_argument("--adam-beta2", type=_unit_fraction)
    p_train.add_argument("--adam-eps", type=_positive_finite,
                         dest="adam_epsilon", metavar="ADAM_EPS")
    p_train.add_argument("--shuffle-seed", type=_non_negative_int)
    p_train.add_argument("--eval-every", type=_positive_int)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved policy on a dataset")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--policy", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--beta", type=_positive_finite, default=TrainConfig.beta)
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
