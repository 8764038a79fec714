"""One workload iteration in a fresh interpreter.

perfbench/run.py starts this script in an empty working directory, with
PYTHONPATH pointing at the checkout's `src`:

    python3 perfbench/child.py SPEC_JSON SPAWN_MONOTONIC

It imports focalpo.cli, runs each command of SPEC through focalpo.cli.main
one after another, and writes result.json (and spans.npz when traced) into
the working directory. It starts no process or thread of its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback

# Where each traced function is looked up by its caller, and the span name
# ("<layer>.<function>") its calls are recorded under.
TRACE_TARGETS = {
    "focalpo.cli": {
        "train": "trainer.train",
        "evaluate": "trainer.evaluate",
        "_ordering_summary": "trainer.ordering_summary",
        "synthesize_dataset": "data.synthesize_dataset",
        "load_dataset": "data.load_dataset",
        "save_dataset": "data.save_dataset",
        "classify_pair": "data.classify_pair",
        "load_policy": "policy.load_policy",
        "save_policy": "policy.save_policy",
        "random_policy": "policy.random_policy",
        "pair_loss": "losses.pair_loss",
        "gradient_weight": "losses.gradient_weight",
        "modulating_factor": "losses.modulating_factor",
    },
    "focalpo.trainer": {
        "train_step": "trainer.train_step",
        "assemble_gradient": "trainer.assemble_gradient",
        "evaluate": "trainer.evaluate",
        "subgroup_weight_profile": "trainer.subgroup_weight_profile",
        "pair_margin": "policy.pair_margin",
        "classify_pair": "data.classify_pair",
        "pair_loss": "losses.pair_loss",
        "gradient_weight": "losses.gradient_weight",
    },
    # policy and trainer reach the kernels through this module's attributes.
    "focalpo._kernels": {
        "seq_log_prob": "kernels.seq_log_prob",
        "add_scaled_seq_grad": "kernels.add_scaled_seq_grad",
    },
}

# Counter of kernel calls on the reference table, suffixed with the command.
REFERENCE_CALLS = "kernels.seq_log_prob.reference_calls"


def trace_targets() -> list:
    """(module, attribute, span name) for every target module that imports."""
    targets = []
    for module_name, attrs in TRACE_TARGETS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        targets.extend((module, attr, name) for attr, name in attrs.items())
    return targets


class TraceHooks:
    """Per-call hooks of the traced run. They count dataset bytes written and
    read, and the kernel calls made on the frozen reference table: the table
    that synth draws with random_policy, or that a command loads from its
    --reference path."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.path = None
        self.logits = None
        self.counter = REFERENCE_CALLS

    def command(self, argv) -> None:
        self.path = argv[argv.index("--reference") + 1] if "--reference" in argv else None
        self.logits = None
        self.counter = f"{REFERENCE_CALLS}.{argv[0]}"

    def by_span(self) -> dict:
        counters = self.tracer.counters

        def loaded(args, policy):
            if self.path is not None and str(args[0]) == self.path:
                self.logits = policy.logits

        def drawn(args, policy):
            self.logits = policy.logits

        def log_prob(args, _):
            if args[0] is self.logits:
                counters[self.counter] += 1

        def dataset_written(args, _):
            counters["data.bytes_written"] += os.path.getsize(args[0])

        def dataset_read(args, _):
            counters["data.bytes_read"] += os.path.getsize(args[0])

        return {
            "policy.load_policy": loaded,
            "policy.random_policy": drawn,
            "kernels.seq_log_prob": log_prob,
            "data.save_dataset": dataset_written,
            "data.load_dataset": dataset_read,
        }


def _digest(path: str):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def environment() -> dict:
    import numpy

    import focalpo

    try:
        from focalpo._kernels import BACKEND as backend
    except ImportError:
        backend = "none"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "focalpo": focalpo.__version__,
        "backend": backend,
        "focalpo_file": focalpo.__file__,
    }


def run_commands(commands, stdout, tracer=None, hooks=None) -> tuple[list, list]:
    import focalpo.cli

    records, unchanged = [], []
    for command in commands:
        argv = command["argv"]
        before = {path: _digest(path) for path in command.get("unchanged", [])}
        for _ in range(command.get("repeat", 1)):
            if hooks is not None:
                hooks.command(argv)
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), span:
                    rc = focalpo.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception:  # report and go on; the checks count it
                traceback.print_exc()
                rc = 1
            records.append({"name": argv[0], "rc": rc, "seconds": time.perf_counter() - start})
        unchanged.extend(
            {"command": argv[0], "path": path, "ok": digest is not None and _digest(path) == digest}
            for path, digest in before.items()
        )
    return records, unchanged


def main() -> int:
    spec = json.loads(sys.argv[1])
    spawned = float(sys.argv[2])
    import focalpo.cli  # noqa: F401  (the set-up being timed)

    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "env": environment()}
    if spec["commands"]:
        with open("stdout.txt", "w", encoding="utf-8") as stdout:
            if spec["trace"]:
                from spans import Tracer

                tracer = Tracer()
                hooks = TraceHooks(tracer)
                with tracer.installed(trace_targets(), hooks.by_span()) as missing:
                    records, unchanged = run_commands(spec["commands"], stdout, tracer, hooks)
                tracer.save("spans.npz")
                result.update(counters=dict(tracer.counters), untraced=missing)
            else:
                records, unchanged = run_commands(spec["commands"], stdout)
        result.update(commands=records, unchanged=unchanged)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
