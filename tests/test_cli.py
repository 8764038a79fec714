"""CLI tests: file outputs, manifests, notices, exit codes, reproducibility."""

import argparse
import json

import pytest

from focalpo.cli import MAX_GRID_POINTS, _grid, _grid_points, main


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def synth_args(out_dir, pairs=80, extra=()):
    return [
        "synth",
        "--out", str(out_dir),
        "--pairs", str(pairs),
        "--classes", "2",
        "--vocab", "5",
        "--length", "3",
        "--noise", "0.1",
        "--seed", "3",
        "--ref-seed", "4",
        "--reward-seed", "5",
        *extra,
    ]


def train_args(dataset, reference, out_dir, extra=()):
    return [
        "train",
        "--dataset", str(dataset),
        "--reference", str(reference),
        "--out", str(out_dir),
        "--beta", "5.0",
        "--lr", "0.01",
        "--batch-size", "32",
        "--epochs", "2",
        "--eval-every", "2",
        *extra,
    ]


class TestCurves:
    def test_default_grid_and_reference_values(self, tmp_path, capsys):
        assert main(["curves", "--out", str(tmp_path / "c")]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "c" / "weights.csv")
        assert len(rows) == 201
        assert header[:2] == ["delta", "dpo"]
        zero_row = next(r for r in rows if abs(r[0]) < 1e-9)
        by_name = dict(zip(header, zero_row))
        assert by_name["dpo"] == pytest.approx(0.5, abs=1e-12)
        assert by_name["focal_g0.05"] == pytest.approx(0.4662297633875558, abs=1e-7)
        assert by_name["focus_incorrect_g1"] == pytest.approx(0.42328679513998635, abs=1e-7)

        factor_header, factor_rows = read_csv(tmp_path / "c" / "factors.csv")
        half_row = dict(zip(factor_header, next(r for r in factor_rows if abs(r[0] - 0.5) < 1e-9)))
        assert half_row["focal_g0.05"] == pytest.approx(0.9659363289248456, abs=1e-7)
        assert half_row["focus_incorrect_g0.05"] == pytest.approx(0.9659363289248456, abs=1e-7)

        assert (tmp_path / "c" / "losses.csv").exists()
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["command"] == "curves"
        assert manifest["outputs"]["weights"] == "weights.csv"

    def test_malformed_grid_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["curves", "--out", str(tmp_path), "--delta-grid=-1:zz:0.1"])
        assert excinfo.value.code == 2
        assert "zz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [
            # 1e300 points: rejected from the arithmetic, before any is built
            (["--delta-grid=0:1:1e-300"], "points"),
            (["--p-grid", "0:1:0.5"], "open interval (0, 1)"),
            # an infinite step would reach the manifest as a non-JSON value
            (["--delta-grid=0:1:inf"], "finite"),
        ],
    )
    def test_bad_grid_exits_2_before_any_file(self, tmp_path, capsys, grid, message):
        out = tmp_path / "c"
        with pytest.raises(SystemExit) as excinfo:
            main(["curves", "--out", str(out), *grid])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_grid_size_cap(self):
        assert len(_grid_points(_grid(f"0:{MAX_GRID_POINTS - 1}:1"))) == MAX_GRID_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match="points"):
            _grid(f"0:{MAX_GRID_POINTS}:1")

    def test_negative_lower_bound_space_separated(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["curves", "--out", str(out), "--delta-grid", "-5:5:1"]) == 0
        capsys.readouterr()
        _, rows = read_csv(out / "weights.csv")
        assert [row[0] for row in rows] == [float(d) for d in range(-5, 6)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["configuration"]["delta_grid"] == [-5.0, 5.0, 1.0]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        main(["curves", "--out", str(tmp_path / "a"), "--gamma", "0.07"])
        main(["curves", "--out", str(tmp_path / "b"), "--gamma", "0.07"])
        capsys.readouterr()
        for name in ("manifest.json", "factors.csv", "weights.csv", "losses.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSynth:
    def test_zero_pairs_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(synth_args(tmp_path, pairs=0))
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_outputs_and_census(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(synth_args(out, pairs=1000)) == 0
        printed = capsys.readouterr().out
        assert "1000 pairs" in printed
        assert "subgroups vs reference" in printed

        from focalpo.data import load_dataset

        pairs = load_dataset(out / "pairs.jsonl", num_prompt_classes=2, vocab_size=5)
        assert len(pairs) == 1000
        flipped = sum(1 for p in pairs if p.label_flipped)
        assert abs(flipped / 1000 - 0.1) <= 3 * (0.1 * 0.9 / 1000) ** 0.5

    def test_identical_seeds_identical_files(self, tmp_path, capsys):
        main(synth_args(tmp_path / "a"))
        main(synth_args(tmp_path / "b"))
        capsys.readouterr()
        for name in ("manifest.json", "reference.txt", "pairs.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_training_split_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(synth_args(out, pairs=1, extra=("--holdout-fraction", "0.6"))) == 2
        err = capsys.readouterr().err
        assert "--pairs" in err and "--holdout-fraction" in err
        assert not out.exists()

    def test_holdout_split(self, tmp_path, capsys):
        out = tmp_path / "split"
        main(synth_args(out, pairs=100, extra=("--holdout-fraction", "0.2")))
        capsys.readouterr()
        from focalpo.data import load_dataset

        assert len(load_dataset(out / "pairs.jsonl")) == 80
        assert len(load_dataset(out / "holdout.jsonl")) == 20


@pytest.fixture()
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = main(synth_args(out, pairs=96))
    assert code == 0
    return out


class TestTrain:
    def test_outputs_and_summary(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out,
                       extra=("--loss", "focal", "--gamma", "0.05"))
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean loss" in printed
        for name in ("manifest.json", "report.csv", "report.json", "policy.txt", "timing.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["loss"] == "focal"
        assert report["steps"][0]["step"] == 0
        assert report["final"]["final_mean_loss"] < report["final"]["initial_mean_loss"]
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header.startswith("step,mean_loss,mean_abs_weight")

    def test_descent_at_small_beta(self, synth_dir, tmp_path, capsys):
        # even at beta=0.01 the loss strictly decreases (just not by much)
        out = tmp_path / "run"
        code = main([
            "train",
            "--dataset", str(synth_dir / "pairs.jsonl"),
            "--reference", str(synth_dir / "reference.txt"),
            "--out", str(out),
            "--loss", "focal", "--gamma", "0.05", "--beta", "0.01",
            "--lr", "0.003", "--batch-size", "32", "--epochs", "3", "--eval-every", "3",
        ])
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["final"]["final_mean_loss"] < report["final"]["initial_mean_loss"]

    def test_gamma_notice_for_dpo(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(
            train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out,
                       extra=("--loss", "dpo", "--gamma", "0.3"))
        )
        assert "ignored by the dpo loss" in capsys.readouterr().out

    def test_gamma_notice_for_large_focal(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(
            train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out,
                       extra=("--loss", "focal", "--gamma", "2.0"))
        )
        assert "outside the tuned focal range" in capsys.readouterr().out

    def test_zero_learning_rate_keeps_accuracy_flat(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(
            train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out,
                       extra=("--lr", "0",))
        )
        capsys.readouterr()
        _, rows = read_csv(out / "report.csv")
        accuracy_column = [row[5] for row in rows]
        assert len(set(accuracy_column)) == 1

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            main(train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out))
        capsys.readouterr()
        # timing.json is the one run-dependent file and is excluded by design
        for name in ("manifest.json", "report.csv", "report.json", "policy.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--adam-beta1", "1.5", "adam_beta1"),
            ("--adam-beta2", "1.0", "adam_beta2"),
            ("--adam-eps", "-1", "adam_epsilon"),
            ("--adam-eps", "inf", "adam_epsilon"),
            ("--lr", "inf", "learning_rate"),
            ("--beta", "inf", "beta"),
        ],
    )
    def test_out_of_range_value_fails_before_any_file(
        self, synth_dir, tmp_path, capsys, flag, value, field
    ):
        out = tmp_path / "run"
        code = main(
            train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out,
                       extra=(flag, value))
        )
        assert code == 1
        assert f"{field} must" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_runtime_error(self, synth_dir, tmp_path, capsys):
        code = main(
            train_args(tmp_path / "nope.jsonl", synth_dir / "reference.txt", tmp_path / "run")
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_reference_policy_zero_margins(self, synth_dir, capsys):
        code = main([
            "eval",
            "--dataset", str(synth_dir / "pairs.jsonl"),
            "--policy", str(synth_dir / "reference.txt"),
            "--reference", str(synth_dir / "reference.txt"),
            "--beta", "0.01",
        ])
        assert code == 0
        output = json.loads(capsys.readouterr().out)
        assert output["metrics"]["overall_accuracy"] == 0.0
        assert output["metrics"]["flip_incorrect_to_correct"] == 0.0
        assert output["metrics"]["flip_correct_to_incorrect"] == 0.0
        assert set(output["weights"]) == {"dpo", "focal", "focus-incorrect"}

    def test_metrics_match_train_report(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out))
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        code = main([
            "eval",
            "--dataset", str(synth_dir / "pairs.jsonl"),
            "--policy", str(out / "policy.txt"),
            "--reference", str(synth_dir / "reference.txt"),
            "--beta", "5.0",
        ])
        assert code == 0
        output = json.loads(capsys.readouterr().out)
        final = report["final"]
        # the policy text format round-trips value-exactly, so the two code
        # paths must agree to the last bit
        assert output["metrics"]["overall_accuracy"] == final["overall_accuracy"]
        assert output["metrics"]["flip_incorrect_to_correct"] == final["flip_incorrect_to_correct"]
        assert output["metrics"]["mean_margin_by_subgroup"] == final["mean_margin_by_subgroup"]
        assert output["focal_to_dpo_weight_ratio"] == final["focal_to_dpo_weight_ratio"]

    def test_shape_mismatch_names_both_shapes(self, synth_dir, tmp_path, capsys):
        from focalpo.policy import random_policy, save_policy

        other = tmp_path / "other.txt"
        save_policy(other, random_policy(2, 6, seed=1))
        code = main([
            "eval",
            "--dataset", str(synth_dir / "pairs.jsonl"),
            "--policy", str(other),
            "--reference", str(synth_dir / "reference.txt"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "(2, 6)" in err and "(2, 5)" in err

    def test_out_directory(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "evalout"
        main([
            "eval",
            "--dataset", str(synth_dir / "pairs.jsonl"),
            "--policy", str(synth_dir / "reference.txt"),
            "--reference", str(synth_dir / "reference.txt"),
            "--out", str(out),
        ])
        capsys.readouterr()
        assert (out / "manifest.json").exists()
        assert (out / "metrics.json").exists()
