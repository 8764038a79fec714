"""Atomic outputs: a writer that fails partway leaves no partial file."""

import json
import math

import pytest

from focalpo.cli import _manifest
from focalpo.data import load_dataset, save_dataset
from focalpo.files import atomic_write

from _oracles import make_dataset


def pairs(*rewards):
    """One pair per chosen-side reward, with pair ids from 0."""
    return make_dataset(
        [(pair_id, 0, (1, 0), (0, 1), reward, 0.0, False) for pair_id, reward in enumerate(rewards)]
    )


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir())


class TestAtomicWrite:
    def test_success_replaces_the_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"  # unchanged until the block ends
        assert path.read_bytes() == b"new\n"
        assert leftovers(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("existing", [None, b"old bytes\n"])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_partway_keeps_the_old_state(self, tmp_path, existing, error):
        path = tmp_path / "out.txt"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(error):
            with atomic_write(path) as fh:
                fh.write("partial")
                fh.flush()
                raise error("stop")
        if existing is None:
            assert leftovers(tmp_path) == []
        else:
            assert path.read_bytes() == existing
            assert leftovers(tmp_path) == ["out.txt"]


class TestWriters:
    def test_dataset_with_bad_row_leaves_no_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        # the first row is written before the second fails to encode
        with pytest.raises(ValueError):
            save_dataset(path, pairs(1.0, math.nan))
        assert leftovers(tmp_path) == []
        save_dataset(path, pairs(1.0))
        with pytest.raises(ValueError):
            save_dataset(path, pairs(2.0, math.inf))
        assert load_dataset(path, 1, 2).reward_chosen.tolist() == [1.0]
        assert leftovers(tmp_path) == ["pairs.jsonl"]

    def test_manifest_with_non_json_value_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            _manifest(tmp_path, "train", {"beta": math.inf}, {}, {})
        assert leftovers(tmp_path) == []
        manifest = _manifest(tmp_path, "train", {}, {}, {})
        assert manifest["command"] == "train"
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
