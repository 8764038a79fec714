"""Benchmark of the focalpo CLI: end-to-end metrics and traced per-layer timings.

Run from the root of a checkout (it uses the checkout's own `src`):

    python3 perfbench/run.py --workload toy-pipeline --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0, untraced

A run repeats one workload for --seconds (at least two iterations, so the
outputs of two repetitions can be compared byte for byte). Each iteration
runs the workload's CLI commands one after another in a fresh interpreter
(perfbench/child.py) with numpy/BLAS pinned to one thread: a closed loop with
one client. --trace 0 reports the end-to-end metrics. --trace 1 alternates
traced and untraced iterations (at least three); the traced ones wrap the
package's public functions where their callers look them up, and the run
reports per-layer metrics plus the tracing overhead (traced minus untraced
wall time).

Human-readable lines come first, each metric with its unit and sample count,
then an `env` line; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
command and output check passed, 1 when one failed, 2 on a usage error or
when the checkout holds no focalpo sources.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

RUN_LIMIT_S = 165.0  # a run must end within 180 s, whatever --seconds says
SETUP_SAMPLES = 5  # import-only interpreters per run, besides one per iteration
CHILD_FILES = {"result.json", "spans.npz", "stdout.txt", "child.log"}
VOLATILE_FILES = {"timing.json"}  # wall-clock data, outside the determinism guarantee

# Recorded closed-form value: focal gradient weight at margin 0, gamma 0.05,
# i.e. 0.5**1.05 * (1 - 0.05 * log 2).
FOCAL_WEIGHT_AT_ZERO = 0.4662297633875558
CSV_REL_TOL = 1e-8  # CSV values carry 9 significant digits

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMAND_RATES = {
    "synth": ("synth_pairs_per_s", "pairs/s"),
    "train": ("train_steps_per_s", "steps/s"),
    "eval": ("eval_pairs_per_s", "pairs/s"),
    "curves": ("curve_points_per_s", "points/s"),
}
PER_LAYER = {
    "kernels.seq_log_prob.calls": "count",
    "kernels.seq_log_prob.self_s": "s",
    "kernels.seq_log_prob.us_p50": "us",
    "kernels.seq_log_prob.us_p99": "us",
    "kernels.seq_log_prob.reference_frac": "fraction",
    "kernels.seq_log_prob.train_calls": "count",
    "kernels.seq_log_prob.train_reference_frac": "fraction",
    "kernels.seq_log_prob.eval_reference_frac": "fraction",
    "kernels.add_scaled_seq_grad.calls": "count",
    "kernels.add_scaled_seq_grad.self_s": "s",
    "kernels.add_scaled_seq_grad.us_p50": "us",
    "policy.pair_margin.calls": "count",
    "policy.pair_margin.self_s": "s",
    "policy.pair_margin.per_eval_pair": "calls/pair",
    "policy.save_s": "s",
    "policy.load_s": "s",
    "trainer.train_step.calls": "count",
    "trainer.train_step.ms_p50": "ms",
    "trainer.train_step.ms_p99": "ms",
    "trainer.assemble_gradient.self_s": "s",
    "trainer.update_s": "s",
    "trainer.eval_pass_s": "s",
    "trainer.evaluate.self_s": "s",
    "trainer.subgroup_weight_profile.self_s": "s",
    "losses.calls": "count",
    "losses.self_s": "s",
    "losses.ns_p50": "ns",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "data.synthesize_s": "s",
    "data.save_s": "s",
    "data.load_s": "s",
    "data.bytes_written": "bytes",
    "data.bytes_read": "bytes",
    "data.classify_pair.calls": "count",
    "trace.overhead_s": "s",
}
# Per-call percentiles, pooled over every traced iteration of a run:
# metric -> (span names, percentile, scale to the metric's unit).
PERCENTILES = {
    "kernels.seq_log_prob.us_p50": (("kernels.seq_log_prob",), 50, 1e6),
    "kernels.seq_log_prob.us_p99": (("kernels.seq_log_prob",), 99, 1e6),
    "kernels.add_scaled_seq_grad.us_p50": (("kernels.add_scaled_seq_grad",), 50, 1e6),
    "trainer.train_step.ms_p50": (("trainer.train_step",), 50, 1e3),
    "trainer.train_step.ms_p99": (("trainer.train_step",), 99, 1e3),
    "losses.ns_p50": (("losses.pair_loss", "losses.gradient_weight", "losses.modulating_factor"), 50, 1e9),
}
LOSS_SPANS = PERCENTILES["losses.ns_p50"][0]
BATCH_SIZE = 128
HOLDOUT = 0.2


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    units: int  # work one invocation does, in the unit of its throughput metric
    repeat: int = 1
    unchanged: tuple[str, ...] = ()  # files the command must leave as it found them


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    eval_pairs: int = 0


def pipeline(name, seed, pairs, size, epochs, eval_every, eval_repeats) -> Workload:
    """synth -> train -> eval; size is (classes, vocab, length), and the
    training hyperparameters are the README's."""
    classes, vocab, length = size
    holdout = int(round(pairs * HOLDOUT))
    steps = epochs * math.ceil((pairs - holdout) / BATCH_SIZE)
    synth = ("synth", "--out", "data", "--pairs", str(pairs), "--classes", str(classes),
             "--vocab", str(vocab), "--length", str(length), "--noise", "0.1",
             "--holdout-fraction", str(HOLDOUT), "--seed", str(9 + seed),
             "--ref-seed", str(42 + seed), "--reward-seed", str(142 + seed))
    train = ("train", "--dataset", "data/pairs.jsonl", "--reference", "data/reference.txt",
             "--out", "run", "--loss", "focal", "--gamma", "0.05", "--beta", "5",
             "--lr", "3e-3", "--batch-size", str(BATCH_SIZE), "--epochs", str(epochs),
             "--eval-every", str(eval_every), "--shuffle-seed", str(seed))
    evaluate = ("eval", "--dataset", "data/holdout.jsonl", "--policy", "run/policy.txt",
                "--reference", "data/reference.txt", "--beta", "5", "--out", "eval")
    return Workload(name, (
        Command(synth, pairs),
        Command(train, steps, unchanged=("data/reference.txt",)),
        Command(evaluate, holdout, repeat=eval_repeats),
    ), eval_pairs=holdout)


def curves_grid(name) -> Workload:
    # The curves command takes no random input, so every seed runs the same grid.
    deltas, probabilities = 20_001, 9_999
    argv = ("curves", "--out", "curves", "--delta-grid=-20:20:0.002",
            "--p-grid", "0.0001:0.9999:0.0001", "--gamma", "0.05", "--gamma", "0.5",
            "--gamma", "2")
    return Workload(name, (Command(argv, deltas + probabilities),))


def make_workload(name: str, seed: int) -> Workload:
    """Seed 0 is the README configuration; seed s offsets every seed by s."""
    if name == "toy-pipeline":
        return pipeline(name, seed, 500, (4, 8, 4), epochs=50, eval_every=10, eval_repeats=10)
    if name == "wide-pipeline":
        return pipeline(name, seed, 500, (16, 64, 16), epochs=1, eval_every=2, eval_repeats=1)
    if name == "curves-grid":
        return curves_grid(name)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("toy-pipeline", "wide-pipeline", "curves-grid")


# ------------------------------------------------------------------- checks


class Checks:
    """Commands and output checks attempted, and which of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def train_report_ok(path: Path) -> bool:
    """report.json parses and training lowered the mean loss."""
    try:
        final = json.loads(path.read_text(encoding="utf-8"))["final"]
        return final["final_mean_loss"] < final["initial_mean_loss"]
    except (OSError, ValueError, KeyError, TypeError):
        return False


def eval_metrics_ok(path: Path, pairs: int) -> bool:
    try:
        metrics = json.loads(path.read_text(encoding="utf-8"))["metrics"]
        return metrics["num_pairs"] == pairs and 0.0 <= metrics["overall_accuracy"] <= 1.0
    except (OSError, ValueError, KeyError, TypeError):
        return False


def curves_ok(path: Path) -> bool:
    """weights.csv matches closed forms: dpo weight 1/(1+e^delta) on every
    100th row, and the recorded focal weight at delta 0, gamma 0.05."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        dpo, focal = header.index("dpo"), header.index("focal_g0.05")
        zero = [row for row in body if float(row[0]) == 0.0]
        if len(zero) != 1 or not math.isclose(float(zero[0][focal]), FOCAL_WEIGHT_AT_ZERO,
                                              rel_tol=CSV_REL_TOL):
            return False
        return all(
            math.isclose(float(row[dpo]), 1.0 / (1.0 + math.exp(float(row[0]))),
                         rel_tol=CSV_REL_TOL)
            for row in body[::100]
        )
    except (OSError, ValueError, IndexError):
        return False


def output_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every deterministic file the commands wrote."""
    out = {}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel not in CHILD_FILES and path.name not in VOLATILE_FILES:
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def output_bytes(workdir: Path, digests: dict) -> int:
    return sum((workdir / rel).stat().st_size for rel in digests)


# ------------------------------------------------------------------ running


class FatalError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workdir: Path, commands, trace: bool, deadline: float):
    """Run one child in an emptied workdir; return (result or None, wall seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec = json.dumps({"commands": commands, "trace": trace})
    with open(workdir / "child.log", "wb") as log:
        start = time.monotonic()
        try:
            subprocess.run([sys.executable, str(HERE / "child.py"), spec, repr(start)],
                           cwd=workdir, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                           timeout=max(1.0, deadline - start), check=False)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return None, time.monotonic() - start
        wall = time.monotonic() - start
    try:
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None, wall
    if not Path(result["env"]["focalpo_file"]).resolve().is_relative_to(SRC):
        raise FatalError(f"focalpo was imported from {result['env']['focalpo_file']}, not {SRC}")
    return result, wall


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    command_s: dict = field(default_factory=dict)  # command name -> seconds per invocation
    layers: dict | None = None  # per-layer values of a traced iteration
    durations: dict | None = None  # span name -> per-call seconds, traced only


def command_specs(workload: Workload) -> list[dict]:
    return [{"argv": list(c.argv), "repeat": c.repeat, "unchanged": list(c.unchanged)}
            for c in workload.commands]


def run_iteration(workload: Workload, traced: bool, workdir: Path, deadline: float,
                  checks: Checks, reference_digests: dict) -> Iteration:
    result, wall = spawn(workdir, command_specs(workload), traced, deadline)
    it = Iteration(traced, wall)
    expected = [c.argv[0] for c in workload.commands for _ in range(c.repeat)]
    if result is None:
        for name in expected:
            checks.record(False, f"{name}: child produced no result")
        return it
    it.setup_s = result["setup_s"]
    it.peak_rss_mb = result["maxrss_kb"] / 1024.0
    records = result["commands"]
    for record in records:
        checks.record(record["rc"] == 0, f"{record['name']}: exit code {record['rc']}")
        it.command_s.setdefault(record["name"], []).append(record["seconds"])
    for entry in result["unchanged"]:
        checks.record(entry["ok"], f"{entry['command']} changed {entry['path']}")
    for name in expected:
        if name == "train":
            checks.record(train_report_ok(workdir / "run" / "report.json"),
                          "train: report.json missing, truncated or loss did not decrease")
        elif name == "eval":
            checks.record(eval_metrics_ok(workdir / "eval" / "metrics.json", workload.eval_pairs),
                          "eval: metrics.json missing or wrong")
        elif name == "curves":
            checks.record(curves_ok(workdir / "curves" / "weights.csv"),
                          "curves: weights.csv differs from closed forms")
    digests = output_digests(workdir)
    if reference_digests:
        checks.record(digests == reference_digests, "outputs differ between repetitions")
    else:
        reference_digests.update(digests)
    if traced:
        trace = spanlib.load(workdir / "spans.npz")
        it.layers = layer_values(trace, result["counters"], workload.eval_pairs)
        it.layers["cli.bytes_written"] = output_bytes(workdir, digests)
        it.durations = span_durations(trace)
    return it


# ------------------------------------------------------------------- layers


def span_durations(trace: spanlib.Spans) -> dict[str, np.ndarray]:
    duration = trace.end - trace.start
    return {name: duration[trace.name == i] for i, name in enumerate(trace.names)}


def layer_values(trace: spanlib.Spans, counters: dict, eval_pairs: int) -> dict:
    """Per-layer counts and summed times of one traced iteration."""
    ids = {name: i for i, name in enumerate(trace.names)}
    duration = trace.end - trace.start
    self_time = spanlib.self_times(trace.parent, trace.start, trace.end)
    root = trace.name[spanlib.root_of(trace.parent)]

    def mask(*names):
        return np.isin(trace.name, [ids[n] for n in names if n in ids])

    def calls(*names):
        return int(mask(*names).sum())

    def total(values, *names):
        return float(values[mask(*names)].sum())

    def under(command, *names):
        return int((mask(*names) & (root == ids.get(f"cli.{command}", -1))).sum())

    def reference_frac(command=None):
        prefix = "kernels.seq_log_prob.reference_calls."
        ref = sum(v for k, v in counters.items()
                  if k.startswith(prefix) and command in (None, k[len(prefix):]))
        seq = under(command, "kernels.seq_log_prob") if command else calls("kernels.seq_log_prob")
        return ref / seq if seq else 0.0

    eval_runs = calls("cli.eval")
    cli_roots = [n for n in ids if n.startswith("cli.")]
    return {
        "kernels.seq_log_prob.calls": calls("kernels.seq_log_prob"),
        "kernels.seq_log_prob.self_s": total(self_time, "kernels.seq_log_prob"),
        "kernels.seq_log_prob.reference_frac": reference_frac(),
        "kernels.seq_log_prob.train_calls": under("train", "kernels.seq_log_prob"),
        "kernels.seq_log_prob.train_reference_frac": reference_frac("train"),
        "kernels.seq_log_prob.eval_reference_frac": reference_frac("eval"),
        "kernels.add_scaled_seq_grad.calls": calls("kernels.add_scaled_seq_grad"),
        "kernels.add_scaled_seq_grad.self_s": total(self_time, "kernels.add_scaled_seq_grad"),
        "policy.pair_margin.calls": calls("policy.pair_margin"),
        "policy.pair_margin.self_s": total(self_time, "policy.pair_margin"),
        "policy.pair_margin.per_eval_pair":
            under("eval", "policy.pair_margin") / (eval_runs * eval_pairs) if eval_runs else 0.0,
        "policy.save_s": total(duration, "policy.save_policy"),
        "policy.load_s": total(duration, "policy.load_policy"),
        "trainer.train_step.calls": calls("trainer.train_step"),
        "trainer.assemble_gradient.self_s": total(self_time, "trainer.assemble_gradient"),
        "trainer.update_s": total(self_time, "trainer.train_step"),
        "trainer.eval_pass_s": total(duration, "trainer.train") - total(duration, "trainer.train_step"),
        "trainer.evaluate.self_s": total(self_time, "trainer.evaluate"),
        "trainer.subgroup_weight_profile.self_s": total(self_time, "trainer.subgroup_weight_profile"),
        "losses.calls": calls(*LOSS_SPANS),
        "losses.self_s": total(self_time, *LOSS_SPANS),
        "cli.self_s": total(self_time, *cli_roots),
        "data.synthesize_s": total(duration, "data.synthesize_dataset"),
        "data.save_s": total(duration, "data.save_dataset"),
        "data.load_s": total(duration, "data.load_dataset"),
        "data.bytes_written": int(counters.get("data.bytes_written", 0)),
        "data.bytes_read": int(counters.get("data.bytes_read", 0)),
        "data.classify_pair.calls": calls("data.classify_pair"),
    }


def per_layer_metrics(iterations: list[Iteration], checks: Checks) -> dict:
    """metric -> (value, samples). Counts must repeat exactly across traced
    iterations; times are medians; percentiles pool every call."""
    traced = [it for it in iterations if it.layers is not None]
    untraced = [it.wall_s for it in iterations if not it.traced]
    out = {}
    if not traced:
        return out
    for name in traced[0].layers:
        values = [it.layers[name] for it in traced]
        if PER_LAYER[name] in ("count", "bytes"):
            if len(values) > 1:
                checks.record(len(set(values)) == 1, f"{name} differs between repetitions: {values}")
            out[name] = (values[0], len(values))
        else:
            out[name] = (statistics.median(values), len(values))
    for name, (span_names, q, scale) in PERCENTILES.items():
        pooled = np.concatenate([np.zeros(0)] + [it.durations[s] for it in traced
                                                 for s in span_names if s in it.durations])
        value = float(np.percentile(pooled, q)) * scale if len(pooled) else 0.0
        out[name] = (value, len(pooled))
    if untraced:
        overhead = statistics.median(it.wall_s for it in traced) - statistics.median(untraced)
        out["trace.overhead_s"] = (overhead, len(traced) + len(untraced))
    return out


# ------------------------------------------------------------------ metrics


def end_to_end_metrics(iterations: list[Iteration], setups: list[float]) -> dict:
    plain = [it for it in iterations if not it.traced and it.setup_s is not None]
    out = {}
    setup = setups + [it.setup_s for it in plain]
    if setup:
        out["setup_s"] = (statistics.median(setup), len(setup))
    if plain:
        out["wall_s"] = (statistics.median(it.wall_s for it in plain), len(plain))
        out["peak_rss_mb"] = (statistics.median(it.peak_rss_mb for it in plain), len(plain))
    return out


def rate_metrics(workload: Workload, iterations: list[Iteration]) -> dict:
    out = {}
    for command in workload.commands:
        name = command.argv[0]
        seconds = [s for it in iterations if not it.traced for s in it.command_s.get(name, [])]
        if seconds:
            metric, _ = COMMAND_RATES[name]
            out[metric] = (command.units / statistics.median(seconds), len(seconds))
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = make_workload(name, seed)
    workdir = WORK / name
    deadline = time.monotonic() + RUN_LIMIT_S
    result, _ = spawn(workdir, [], False, deadline)  # warm-up: byte-compiles src
    if result is None:
        raise FatalError(f"cannot import focalpo.cli from {SRC}; see {workdir / 'child.log'}")
    env = dict(result["env"], nproc=os.cpu_count(), git_commit=git_commit(),
               workload=name, seed=seed, trace=int(trace))
    setups = []
    for _ in range(SETUP_SAMPLES):
        sample, _ = spawn(workdir, [], False, deadline)
        if sample is not None:
            setups.append(sample["setup_s"])

    # Traced runs alternate traced and untraced iterations, starting traced,
    # so that three iterations give two traced ones whose counts must agree.
    least = 3 if trace else 2
    checks, reference_digests, iterations = Checks(), {}, []
    start = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 0
        iterations.append(run_iteration(workload, traced, workdir, deadline, checks,
                                        reference_digests))
        now = time.monotonic()
        if now + max(it.wall_s for it in iterations) > deadline:
            break
        typical = statistics.median(it.wall_s for it in iterations)
        if len(iterations) >= least and now - start + typical > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        "end_to_end": end_to_end_metrics(iterations, setups),
        "rates": rate_metrics(workload, iterations),
        "per_layer": per_layer_metrics(iterations, checks) if trace else {},
    }
    return {"workload": name, "env": env, "iterations": len(iterations),
            "wall_samples": [[it.traced, it.wall_s] for it in iterations],
            "measured_s": time.monotonic() - start, "metrics": metrics,
            "attempted": checks.attempted, "failed": len(checks.failures),
            "failures": checks.failures}


# ------------------------------------------------------------------- output


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    return next(unit for name, unit in COMMAND_RATES.values() if name == metric)


def print_human(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['env']['seed']} trace {res['env']['trace']}: "
          f"{res['iterations']} iterations in {res['measured_s']:.1f} s")
    for group in ("end_to_end", "rates", "per_layer"):
        for metric, (value, samples) in res["metrics"][group].items():
            print(f"  {metric:40s} {value:14.6g} {unit_of(metric):10s} (n={samples})")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':40s} {frac:14.6g} {'fraction':10s} "
          f"({res['failed']} of {res['attempted']} commands and checks)")
    for failure in res["failures"][:20]:
        print(f"  FAILED: {failure}")
    print("env " + json.dumps(res["env"], sort_keys=True))


def summary_line(results: list[dict], trace: bool) -> dict:
    """The final JSON object; metric names get a workload prefix when a run
    covers more than one workload."""
    group = "per_layer" if trace else "end_to_end"
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    complete = True
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for name, unit in wanted.items():
            if name not in res["metrics"][group]:
                complete = False
                continue
            metrics[prefix + name] = {"value": res["metrics"][group][name][0], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if attempted == 0:  # nothing ran: one failed attempt
        attempted = failed = 1
    return {"correct": complete and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full results as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "focalpo" / "cli.py").is_file():
        print(f"error: no focalpo sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except FatalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        print_human(res)
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    line = summary_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
