"""CLI tests: file outputs, manifests, notices, exit codes, reproducibility."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import savetxt_csv_text
from focalpo import cli, csvtext
from focalpo.cli import CSV_BLOCK_VALUES, MAX_GRID_POINTS, _grid, _grid_points, _write_csv, main
from focalpo.data import SynthConfig, synthesize_dataset
from focalpo.losses import LossConfig, LossVariant
from focalpo.policy import random_policy
from focalpo.trainer import TrainConfig


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

    def test_bad_gamma_exits_2_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "c"
        with pytest.raises(SystemExit) as excinfo:
            main(["curves", "--out", str(out), "--gamma", "0"])
        assert excinfo.value.code == 2
        assert "--gamma" in capsys.readouterr().err
        assert not out.exists()
        # gammas with one %g tag would write, and overwrite, the same columns
        for gammas, message in (
            (["0.05", "0.05000001"], "gamma 0.05 and gamma 0.05000001 would both write columns g0.05"),
            (["1.0000001"], "gamma 1.0000001 and gamma 1.0 would both write columns g1"),
        ):
            argv = ["curves", "--out", str(out)] + [a for g in gammas for a in ("--gamma", g)]
            assert main(argv) == 2
            assert f"error: {message}\n" == capsys.readouterr().err
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


EDGE_FLOATS = (
    -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
)


# Values at the rounding and layout boundaries of the CSV formatter: exact
# 9th-digit ties (decimal and dyadic), near-ties that the fast arithmetic
# rounds the wrong way, round-ups to the next power of ten, the
# fixed/scientific switch at exponents -5/-4 and 8/9, three-digit exponents
# and the float64 extremes.
KERNEL_EDGES = (
    123456789.5, 1234567895.0, 1234567885.0, 12345678.25, 12345678.75,
    0.1234567895, 1.234567885e-50,
    9.9999999996e-05, 999999999.6, 9.9999999996e99, 0.99999999951,
    1.23456789e-05, 1e-05, 1.5e-05, 0.000123456789, 0.0001, 0.00010000000001,
    123456789.0, 100000000.0, 120.0, 1234567891.0, 1e9, 1.5e9,
    1e-300, 1e300, 1e-100, 1.23456789e-100, 1e100, 9.87654321e-99,
    0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf,
)


@st.composite
def decimal_floats(draw):
    """A float parsed from 17 significant digits and a decimal exponent in
    [-320, 308]. Some draws put digits 10-17 next to a rounding boundary of
    the 9th digit, which st.floats() rarely reaches."""
    head = draw(st.integers(10**8, 10**9 - 1))
    tail = draw(st.one_of(
        st.integers(0, 10**8 - 1),
        st.sampled_from([0, 1, 5 * 10**7 - 1, 5 * 10**7, 5 * 10**7 + 1, 10**8 - 1]),
    ))
    digits = f"{head}{tail:08d}"
    sign = draw(st.sampled_from("+-"))
    return float(f"{sign}{digits[0]}.{digits[1:]}e{draw(st.integers(-320, 308))}")


def assert_csv_matches_savetxt(columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        _write_csv(path, columns)
        assert path.read_bytes() == savetxt_csv_text(columns).encode("ascii")


@st.composite
def csv_shapes(draw):
    """(rows, columns), with the row count next to a block boundary or
    spanning several blocks."""
    ncols = draw(st.integers(1, 20))
    block_rows = CSV_BLOCK_VALUES // ncols
    nrows = draw(st.sampled_from(
        [1, 2, block_rows - 1, block_rows, block_rows + 1, 3 * block_rows + 1]
    ))
    return nrows, ncols


class TestCsvWriter:
    @settings(max_examples=80, deadline=None)
    @given(
        csv_shapes(),
        st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)), min_size=1, max_size=50),
    )
    def test_bytes_match_savetxt(self, shape, values):
        # the drawn values fill the table cyclically, so each one lands in
        # many rows and columns
        table = np.resize(np.array(values, dtype=np.float64), shape)
        columns = {f"c{j}": table[:, j] for j in range(shape[1])}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            _write_csv(path, columns)
            assert path.read_bytes() == savetxt_csv_text(columns).encode("ascii")

    @pytest.mark.parametrize("value", KERNEL_EDGES + tuple(-v for v in KERNEL_EDGES))
    def test_edge_value_bytes_match_savetxt(self, value):
        # alone, so the value decides whether its block is formatted fast
        assert_csv_matches_savetxt({"c": np.array([value])})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(decimal_floats(), min_size=1, max_size=12))
    def test_decimal_exponent_bytes_match_savetxt(self, values):
        for value in values:
            assert_csv_matches_savetxt({"c": np.array([value])})
        assert_csv_matches_savetxt({f"c{j}": np.array([v]) for j, v in enumerate(values)})

    def test_fast_and_fallback_blocks(self, monkeypatch):
        # two 4-column blocks: the first all fast, the second holding one
        # zero, which sends the whole block to the `%` path
        rows = CSV_BLOCK_VALUES // 4
        table = np.random.default_rng(3).standard_normal((2 * rows, 4))
        table[rows + 5, 2] = 0.0
        results = []
        kernel = csvtext.format_block

        def recorded(*args):
            results.append(kernel(*args))
            return results[-1]

        monkeypatch.setattr(csvtext, "format_block", recorded)
        assert_csv_matches_savetxt({f"c{j}": table[:, j] for j in range(4)})
        assert [text is None for text in results] == [False, True]


class TestFlagTypes:
    @pytest.mark.parametrize(
        "flag_type, text, message",
        [
            (cli._positive_int, "x", "invalid integer 'x'"),
            (cli._positive_int, "1.5", "invalid integer '1.5'"),
            (cli._positive_int, "0", "must be >= 1, got 0"),
            (cli._non_negative_int, "-1", "must be >= 0, got -1"),
            (cli._unit_fraction, "abc", "invalid number 'abc'"),
            (cli._unit_fraction, "1", "must lie in [0, 1), got 1.0"),
            (cli._unit_fraction, "nan", "must lie in [0, 1), got nan"),
            (cli._gamma, "0", "must lie in (0, 5.0], got 0.0"),
            (cli._gamma, "9", "must lie in (0, 5.0], got 9.0"),
            (cli._positive_finite, "inf", "must be finite and > 0, got inf"),
            (cli._positive_finite, "-0", "must be finite and > 0, got -0.0"),
            (cli._non_negative_finite, "-1e-3", "must be finite and >= 0, got -0.001"),
            (cli._non_negative_finite, "nan", "must be finite and >= 0, got nan"),
        ],
    )
    def test_error_text(self, flag_type, text, message):
        with pytest.raises(argparse.ArgumentTypeError) as info:
            flag_type(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "flag_type, text, value",
        [
            (cli._positive_int, "7", 7),
            (cli._non_negative_int, "0", 0),
            (cli._unit_fraction, "0", 0.0),
            (cli._gamma, "5", 5.0),
            (cli._positive_finite, "1e-8", 1e-8),
            (cli._non_negative_finite, "0", 0.0),
        ],
    )
    def test_accepted_value(self, flag_type, text, value):
        result = flag_type(text)
        assert result == value and type(result) is type(value)


class TestSynth:
    def test_zero_pairs_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(synth_args(tmp_path, pairs=0))
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_vocab_below_two_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as excinfo:
            main(synth_args(out, extra=("--vocab", "1")))
        assert excinfo.value.code == 2
        assert "argument --vocab: must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()
        # library callers get the same bound from synthesize_dataset
        with pytest.raises(ValueError, match="vocab_size must be >= 2"):
            synthesize_dataset(SynthConfig(num_pairs=1), np.zeros((1, 1)), random_policy(1, 1, 0))

    def test_outputs_and_census(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(synth_args(out, pairs=1000)) == 0
        printed = capsys.readouterr().out
        assert "1000 pairs" in printed
        assert "subgroups vs reference" in printed

        from focalpo.data import load_dataset

        pairs = load_dataset(out / "pairs.jsonl", num_prompt_classes=2, vocab_size=5)
        assert len(pairs) == 1000
        flipped = int(pairs.label_flipped.sum())
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

    @pytest.mark.parametrize(
        "extra, flags, cap",
        [
            (("--classes", "1", "--vocab", "2048"), ("--classes", "--vocab"), cli.MAX_TABLE_VALUES),
            (("--pairs", "1048577", "--length", "4"), ("--pairs", "--length"),
             cli.MAX_DATASET_TOKENS),
        ],
    )
    def test_size_cap_exits_2_before_any_file(self, tmp_path, capsys, extra, flags, cap):
        # each case sits just above its cap, and nothing is allocated for it
        out = tmp_path / "data"
        tracemalloc.start()
        try:
            code = main(synth_args(out, extra=extra))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags) and str(cap) in err
        assert not out.exists()
        assert peak < 1_000_000

    @pytest.mark.parametrize("pairs, fraction, holdout", [(10, "0.05", False), (10, "0.1", True)])
    def test_manifest_lists_exactly_the_files_written(
        self, tmp_path, capsys, pairs, fraction, holdout
    ):
        # 10 x 0.05 rounds to no held-out pair, so no holdout.jsonl is written
        out = tmp_path / "data"
        assert main(synth_args(out, pairs=pairs, extra=("--holdout-fraction", fraction))) == 0
        capsys.readouterr()
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert ("holdout" in outputs) is holdout
        assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *outputs.values()])

    # SHA-256 of pairs.jsonl, holdout.jsonl, reference.txt and stdout, as
    # written by the object-per-pair synthesizer these bytes were first
    # recorded from. The README config takes distinct-draw retries (first at
    # pair 243), the bradley_terry config one at pair 172.
    GOLDEN = {
        "readme": (
            ["--pairs", "500", "--noise", "0.1", "--holdout-fraction", "0.2",
             "--seed", "9", "--ref-seed", "42", "--reward-seed", "142"],
            "5537006223495ad4ba6bd772ac909086e7a46a1990ed421786916bede65d7277",
            "66c25608c24f7d3836793b7082a0c74dc13f72647fb561fbfb69f5e95184e29d",
            "3d0f051d567845d68e161cc707c7548fc32b8f528331fa6a581886a9b094b1a0",
            "02e9dfcebce8a96f0e0ac318717c0811997bd0908c0d9f77850ac63ba168bb33",
        ),
        "bradley_terry": (
            ["--pairs", "300", "--mode", "bradley_terry", "--noise", "0.2",
             "--holdout-fraction", "0.2", "--seed", "3", "--ref-seed", "5", "--reward-seed", "7"],
            "04cee79f4386640105c681d97d6fb0377247421f062c2870d079cd926e7f0f99",
            "7c4b4dac3e13ed8186fb9cce87c020d1c9dd5313f746e58e36073e5b3f7f0061",
            "aa080a15cdc6e5bab1ef605c44ab3f945952a70866221d0a6385f9dae39b9e2d",
            "c1c1999339551f672f7cb8105fddd677195e847be4acdbab01fbd0427ca8f0fa",
        ),
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, capsys, config):
        flags, *expected = self.GOLDEN[config]
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), *flags]) == 0
        stdout = capsys.readouterr().out.encode()
        names = ("pairs.jsonl", "holdout.jsonl", "reference.txt")
        outputs = [(out / name).read_bytes() for name in names] + [stdout]
        digests = [hashlib.sha256(data).hexdigest() for data in outputs]
        assert digests == expected

    def test_holdout_split(self, tmp_path, capsys):
        out = tmp_path / "split"
        main(synth_args(out, pairs=100, extra=("--holdout-fraction", "0.2")))
        capsys.readouterr()
        from focalpo.data import load_dataset

        assert len(load_dataset(out / "pairs.jsonl", 2, 5)) == 80
        assert len(load_dataset(out / "holdout.jsonl", 2, 5)) == 20


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

    def test_report_and_configuration_schemas(self, synth_dir, tmp_path, capsys):
        # Literal layouts, so that renaming or reordering a StepRecord or
        # TrainConfig field, which the report and manifest follow, fails here.
        echo_keys = [
            "loss", "beta", "gamma", "learning_rate", "batch_size", "num_epochs", "optimizer",
            "adam_beta1", "adam_beta2", "adam_epsilon", "shuffle_seed", "eval_every",
        ]
        header = (
            "step,mean_loss,mean_abs_weight,mean_weight_correct,mean_weight_incorrect,"
            "accuracy_overall,accuracy_correct,accuracy_incorrect"
        )
        assert list(TrainConfig(LossConfig(LossVariant.DPO)).echo()) == echo_keys
        out = tmp_path / "run"
        assert main(train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out)) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["configuration"]) == ["dataset", "reference", *echo_keys]
        report = json.loads((out / "report.json").read_text())
        assert list(report["config"]) == echo_keys
        steps = report["steps"]
        assert [list(step) for step in steps] == [header.split(",")] * len(steps)
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == header
        assert [line.split(",")[0] for line in lines[1:]] == [str(s["step"]) for s in steps]

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
            ("--gamma", "9", "gamma"),
        ],
    )
    def test_out_of_range_value_fails_before_any_file(
        self, synth_dir, tmp_path, capsys, flag, value, field
    ):
        extra = (flag, value) + (("--loss", "focal") if flag == "--gamma" else ())
        out = tmp_path / "run"
        # the second run names absent inputs, so reading either before the
        # flag is checked would report the file instead of the flag
        for data_dir in (synth_dir, tmp_path / "absent"):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    train_args(data_dir / "pairs.jsonl", data_dir / "reference.txt", out,
                               extra=extra)
                )
            assert excinfo.value.code == 2
            assert f"argument {flag}:" in capsys.readouterr().err
            assert not out.exists()
        # library callers get the same check from the config classes
        with pytest.raises(ValueError, match=f"{field} must"):
            if field == "gamma":
                LossConfig(LossVariant.FOCAL, gamma=float(value))
            else:
                TrainConfig(LossConfig(LossVariant.DPO), **{field: float(value)})

    @pytest.mark.parametrize("loss", ["dpo", "focal"])
    def test_zero_gamma_is_usage_error(self, synth_dir, tmp_path, capsys, loss):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as excinfo:
            main(train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", out,
                            extra=("--loss", loss, "--gamma", "0")))
        assert excinfo.value.code == 2
        assert "argument --gamma:" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dataset_fails_before_any_file(self, synth_dir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        out = tmp_path / "run"
        assert main(train_args(empty, synth_dir / "reference.txt", out)) == 1
        assert "dataset must be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_runtime_error(self, synth_dir, tmp_path, capsys):
        code = main(
            train_args(tmp_path / "nope.jsonl", synth_dir / "reference.txt", tmp_path / "run")
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_never_imports_the_csv_kernel(self, synth_dir, tmp_path):
        # report.csv is formatted without csvtext, which only curves needs
        argv = train_args(synth_dir / "pairs.jsonl", synth_dir / "reference.txt", tmp_path / "run")
        script = (
            "import sys\nfrom focalpo.cli import main\n"
            f"assert main({[str(a) for a in argv]!r}) == 0\n"
            "print('focalpo.csvtext' in sys.modules)\n"
        )
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "run" / "report.csv").exists()


class TestEmptySubgroup:
    def test_nan_in_csv_and_null_in_json(self, tmp_path, capsys, monkeypatch):
        # the default seeds draw one pair, incorrect at init, so the
        # correct_at_init subgroup is empty at every eval point
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out", "data", "--pairs", "1"]) == 0
        assert main(["train", "--dataset", "data/pairs.jsonl", "--reference",
                     "data/reference.txt", "--out", "run", "--beta", "5", "--epochs", "3",
                     "--eval-every", "1"]) == 0
        capsys.readouterr()
        assert main(["eval", "--dataset", "data/pairs.jsonl", "--policy", "run/policy.txt",
                     "--reference", "data/reference.txt", "--beta", "5", "--out", "eval"]) == 0
        assert capsys.readouterr().out == Path("eval/metrics.json").read_text()
        rows = Path("run/report.csv").read_text().splitlines()
        assert rows[1] == "0,0.693147181,0.5,nan,0.5,0,nan,0"
        step = json.loads(Path("run/report.json").read_text())["steps"][0]
        assert step["mean_weight_correct"] is None and step["accuracy_correct"] is None
        assert step["mean_weight_incorrect"] == 0.5 and step["accuracy_incorrect"] == 0.0
        output = json.loads(Path("eval/metrics.json").read_text())
        assert output["metrics"]["subgroup_counts"] == {
            "correct_at_init": 0, "incorrect_at_init": 1,
        }
        assert output["metrics"]["accuracy_by_subgroup"]["correct_at_init"] is None
        for groups in output["weights"].values():
            assert list(groups) == ["incorrect_at_init"]


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

    def test_bad_beta_exits_2_before_any_file(self, tmp_path, capsys):
        # none of the input files exist, so reading any of them would exit 1
        out = tmp_path / "evalout"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "eval",
                "--dataset", str(tmp_path / "pairs.jsonl"),
                "--policy", str(tmp_path / "policy.txt"),
                "--reference", str(tmp_path / "reference.txt"),
                "--beta", "0",
                "--out", str(out),
            ])
        assert excinfo.value.code == 2
        assert "--beta" in capsys.readouterr().err
        assert not out.exists()

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


class TestGoldenRuns:
    # SHA-256 of train's report.csv, report.json, policy.txt and stdout, and
    # of eval's metrics.json on the held-out split, run from the synth
    # directory with relative paths (the eval manifest records them). The
    # README config is focal at 200 adam steps; the wide config's L=16 rows
    # are summed by numpy's pairwise summation, so a change in how the
    # log-probabilities are gathered or summed shows here.
    SIZES = {
        "readme": (["--classes", "4", "--vocab", "8", "--length", "4"], ["--epochs", "50"]),
        "wide": (["--classes", "16", "--vocab", "64", "--length", "16"],
                 ["--epochs", "1", "--eval-every", "2"]),
    }
    GOLDEN = {
        "readme": (
            "761f92c5d2466b142c45e99a68f7383e4616d0377a4f8f16310e540d1cfdd36b",
            "a4bc2480272d00e82234e7345fc05cbea4d9f5c689d8f04bb3b3496b35b80889",
            "73b5752888a539174b80ddfc12dd03f3863888a911e0bd91a589d3f110eae4ee",
            "47d063b292a6d9335490d877813cbb121a77a13d51eac30edbc5564ae8613d90",
            "c8741fe6f0cb3869b2710bfdf1ed7f278b3eff8067eb5d035fe8f70388fb04d6",
        ),
        "wide": (
            "0f138a8ee00c106f1b57d2bf3ceba7766771445b8fd87dd70ee1f6cc383b804c",
            "37f1be2e083780bc06c3a89abbb3d73356ad857caa4b22bec484f4af505c27aa",
            "cd49ed29eadfa9c57cba561f59b03129808dc82d99bfbfbfab41848eabfca30e",
            "48a364bc70fb14d7fe0cfce348c5b38c76d463c5a3736c2ee79cf3f681fcda58",
            "db94cceb2137d57ebecde897db134a6da1c1fc74338af9f7e610fe38a64d7ecb",
        ),
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, capsys, monkeypatch, config):
        size, schedule = self.SIZES[config]
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--out", "data", "--pairs", "500", *size, "--noise", "0.1",
                     "--holdout-fraction", "0.2", "--seed", "9", "--ref-seed", "42",
                     "--reward-seed", "142"]) == 0
        capsys.readouterr()
        assert main(["train", "--dataset", "data/pairs.jsonl", "--reference",
                     "data/reference.txt", "--out", "run", "--loss", "focal", "--gamma", "0.05",
                     "--beta", "5", "--lr", "3e-3", "--batch-size", "128", *schedule]) == 0
        stdout = capsys.readouterr().out.encode()
        assert main(["eval", "--dataset", "data/holdout.jsonl", "--policy", "run/policy.txt",
                     "--reference", "data/reference.txt", "--beta", "5", "--out", "eval"]) == 0
        capsys.readouterr()
        names = ("run/report.csv", "run/report.json", "run/policy.txt")
        outputs = [Path(name).read_bytes() for name in names]
        outputs += [stdout, Path("eval/metrics.json").read_bytes()]
        digests = [hashlib.sha256(data).hexdigest() for data in outputs]
        assert digests == list(self.GOLDEN[config])
