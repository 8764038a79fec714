"""Tests of the benchmark's own logic: span arithmetic, metric names, output
checks and the traced run's wrapping.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_on_hand_built_tree():
    # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3]; 0 -> 3 [5, 9]; 4 [20, 21] is a second root.
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert spans.root_of(parent).tolist() == [0, 0, 0, 0, 4]


def test_tracer_records_nesting():
    tracer = spans.Tracer()
    inner = tracer.wrap("layer.inner", lambda x: x + 1)
    outer = tracer.wrap("layer.outer", lambda x: inner(x) * 2)
    with tracer.span("cli.cmd"):
        assert outer(1) == 4
    trace = tracer.spans()
    assert [trace.names[i] for i in trace.name] == ["cli.cmd", "layer.outer", "layer.inner"]
    assert trace.parent.tolist() == [-1, 0, 1]
    assert (spans.self_times(trace.parent, trace.start, trace.end) >= 0).all()


def test_metric_names_and_units_follow_the_pattern():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = [*run.END_TO_END, *run.PER_LAYER, *(m for m, _ in run.COMMAND_RATES.values())]
    for name in emitted + [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]:
        assert NAME.fullmatch(name), name
    for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
        assert UNIT.fullmatch(unit), unit
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.PERCENTILES) <= set(run.PER_LAYER)


def test_layer_values_cover_every_per_layer_metric():
    tracer = spans.Tracer()
    with tracer.span("cli.eval"):
        tracer.wrap("policy.pair_margin", lambda: None)()
    values = run.layer_values(tracer.spans(), {}, eval_pairs=1)
    computed = set(values) | set(run.PERCENTILES) | {"cli.bytes_written", "trace.overhead_s"}
    assert computed == set(run.PER_LAYER)
    assert values["policy.pair_margin.per_eval_pair"] == 1.0


def _report(path: Path, initial: float, final: float) -> str:
    text = json.dumps({"final": {"initial_mean_loss": initial, "final_mean_loss": final}})
    path.write_text(text)
    return text


def test_truncated_report_counts_as_a_failure(tmp_path):
    report = tmp_path / "report.json"
    text = _report(report, 0.69, 0.22)
    assert run.train_report_ok(report)
    report.write_text(text[: len(text) // 2])
    assert not run.train_report_ok(report)
    _report(report, 0.22, 0.69)
    assert not run.train_report_ok(report)


def test_failed_iteration_counts_every_command(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "spawn", lambda *a: (None, 1.0))
    checks = run.Checks()
    workload = run.make_workload("toy-pipeline", 0)
    run.run_iteration(workload, False, tmp_path, 0.0, checks, {})
    assert checks.attempted == len(checks.failures) == 2 + 10  # synth, train, 10 x eval


def test_curves_check_uses_closed_forms(tmp_path):
    weights = tmp_path / "weights.csv"
    rows = ["delta,dpo,focal_g0.05"]
    for delta in (-1.0, 0.0, 1.0):
        focal = run.FOCAL_WEIGHT_AT_ZERO if delta == 0.0 else 0.1
        rows.append(f"{delta:.9g},{1.0 / (1.0 + np.exp(delta)):.9g},{focal:.9g}")
    weights.write_text("\n".join(rows) + "\n")
    assert run.curves_ok(weights)
    weights.write_text("\n".join(rows).replace("0.466229763", "0.466229") + "\n")
    assert not run.curves_ok(weights)


def test_traced_run_restores_every_wrapped_function(tmp_path):
    targets = child.trace_targets()
    originals = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in targets]
    assert len(targets) == sum(len(v) for v in child.TRACE_TARGETS.values())
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets) as missing:
            assert missing == []
            assert all(getattr(ns, attr) is not fn for ns, attr, fn in originals)
            import focalpo.cli

            argv = ["curves", "--out", str(tmp_path), "--delta-grid=-1:1:0.5",
                    "--p-grid", "0.25:0.75:0.25"]
            assert focalpo.cli.main(argv) == 0
            raise RuntimeError("leave the block by an exception")
    assert all(getattr(ns, attr) is fn for ns, attr, fn in originals)
    assert "losses.pair_loss" in tracer.spans().names
