"""Run configuration: each value is checked for its type and range once,
when a command builds its configuration from the file and the flags, and
a fault exits 2 before the command reads or writes anything."""

import json

import numpy as np
import pytest

from molpeco import cli
from molpeco.chemio import serialize_molecules
from molpeco.cli import main
from molpeco.config import RunConfig, UsageError, resolve_config

from synthdata import structure_labeled_set


@pytest.fixture()
def workspace(tmp_path):
    data_path = tmp_path / "molecules.jsonl"
    serialize_molecules(structure_labeled_set(np.random.default_rng(0)), data_path)
    config = {
        "data_path": str(data_path),
        "cache_path": str(tmp_path / "features.cache"),
        "split_path": str(tmp_path / "split.json"),
        "out_dir": str(tmp_path / "out"),
        "min_label_count": 1,
        "variant": "mol-peco-sym",
        "d": 8, "p": 4, "gcn_layers": 1, "transformer_layers": 1, "z_max": 20,
        "fractions": [0.6, 0.2, 0.2],
        "batch_size": 4, "max_epochs": 1, "patience": 10,
    }
    return tmp_path, config


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


WRONG_TYPES = [
    {"max_atoms": "80"},                  # a str for an int
    {"d": "32"},
    {"d": True},                          # a bool for an int
    {"drop_zero_label": 1},               # an int for a bool
    {"seed": 1.5},                        # a float for an int
    {"min_label_count": None},
    {"learning_rate": "x"},
    {"variant": 3},
    {"conflict_labels": "odorless"},      # a string for a list of strings
    {"conflict_labels": ["odorless", 1]},
    {"fractions": [0.5, 0.5]},            # two numbers for three
    {"fractions": [0.8, 0.1, "a"]},
]
OUT_OF_RANGE = [
    {"d": 0},
    {"batch_size": 0},
    {"variant": "bogus"},
    {"cm_normalization": "bogus"},
    {"max_epochs": -1},
    {"patience": 0},
    {"seed": -1},
    {"learning_rate": 0},
    {"threshold": 0.0},                   # reported scores lie in (0, 1)
    {"threshold": 1.0},
    {"threshold": 5.0},
    {"threshold": -1.0},
    {"threshold": float("nan")},
    {"min_label_count": 0},
    {"max_atoms": 0},
    {"fractions": [0.5, 0.6, -0.1]},
    {"fractions": [0.5, 0.3, 0.3]},                # sums to 1.1
    {"fractions": [float("nan"), 0.5, 0.5]},
]


class TestRunConfig:
    def test_default_hash_is_stable(self):
        assert RunConfig().config_hash() == "95fa576369c8c28f"

    @pytest.mark.parametrize("fault", WRONG_TYPES, ids=repr)
    def test_wrong_type_is_usage_error(self, tmp_path, fault):
        (name,) = fault
        with pytest.raises(UsageError, match=f"'{name}' must be "):
            resolve_config(write_config(tmp_path, fault), {})

    @pytest.mark.parametrize("fault", OUT_OF_RANGE, ids=repr)
    def test_out_of_range_is_usage_error(self, tmp_path, fault):
        with pytest.raises(UsageError):
            resolve_config(write_config(tmp_path, fault), {})

    def test_nan_learning_rate_is_usage_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"learning_rate": NaN}', encoding="utf-8")
        with pytest.raises(UsageError, match="invalid training configuration"):
            resolve_config(path, {})

    def test_int_accepted_for_float_and_kept(self, tmp_path):
        config = resolve_config(write_config(tmp_path, {"learning_rate": 1}), {})
        assert type(config.learning_rate) is int and config.learning_rate == 1
        assert config.config_hash() == RunConfig(learning_rate=1).config_hash()
        assert config.config_hash() != RunConfig(learning_rate=1.0).config_hash()

    def test_lists_become_tuples(self, tmp_path):
        config = resolve_config(write_config(tmp_path, {"fractions": [0.6, 0.2, 0.2],
                                                        "conflict_labels": []}), {})
        assert config.fractions == (0.6, 0.2, 0.2) and config.conflict_labels == ()

    def test_flags_win_over_file(self, tmp_path):
        path = write_config(tmp_path, {"seed": 3, "max_epochs": 7, "variant": "coulomb-gcn"})
        config = resolve_config(path, {"seed": 5, "max_epochs": None, "command": "train"})
        assert (config.seed, config.max_epochs, config.variant) == (5, 7, "coulomb-gcn")

    @pytest.mark.parametrize("content, match", [
        (b"\xff\xfe{}", "can't decode"),
        (b'{"seed": 1', "Expecting"),
        (b"[1, 2]", "JSON object"),
        (b'{"no_such_key": 1}', "unknown configuration keys"),
    ])
    def test_malformed_file_is_usage_error(self, tmp_path, content, match):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(UsageError, match=match):
            resolve_config(path, {})

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            resolve_config(tmp_path / "absent.json", {})


class TestCommandsRefuseBadConfig:
    @pytest.mark.parametrize("command", ["featurize", "split"])
    @pytest.mark.parametrize("fault, flags", [
        ({"max_atoms": "80"}, []),
        ({"seed": 1.5}, []),
        ({"min_label_count": None}, []),
        ({"fractions": [0.8, 0.1, "a"]}, []),
        ({"d": 0}, []),
        ({"variant": "bogus"}, []),
        ({}, ["--epochs", "-1"]),
        ({}, ["--batch-size", "0"]),
        ({"threshold": 5.0}, []),
        ({}, ["--min-count", "0"]),
        ({"max_atoms": 0}, []),
        ({"fractions": [0.5, 0.6, -0.1]}, []),
    ], ids=repr)
    def test_exits_2_and_writes_nothing(self, workspace, command, fault, flags):
        tmp_path, config = workspace
        path = write_config(tmp_path, {**config, **fault})
        assert run_cli(command, "--config", path, *flags) == 2
        for artifact in ("features.cache", "split.json", "out"):
            assert not (tmp_path / artifact).exists()

    @pytest.mark.parametrize("command", ["featurize", "split", "train"])
    def test_config_not_utf8_exits_2(self, tmp_path, command):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert run_cli(command, "--config", path) == 2

    @pytest.mark.parametrize("command", ["featurize", "split", "train", "eval", "sweep",
                                         "embed", "retrieve"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestSweepRows:
    @pytest.mark.parametrize("axis", [["--depths", "0"], ["--depths", "1,0"],
                                      ["--depths", "a"], ["--depths", "1.5"],
                                      ["--variants", "bogus"],
                                      ["--variants", "coulomb-gcn,"]], ids=repr)
    def test_bad_row_exits_2_before_training(self, workspace, monkeypatch, axis):
        tmp_path, config = workspace
        path = write_config(tmp_path, config)
        assert run_cli("featurize", "--config", path) == 0
        assert run_cli("split", "--config", path) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("a sweep row was trained")

        monkeypatch.setattr(cli, "train_loop", no_training)
        assert run_cli("sweep", "--config", path, *axis) == 2
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_depth_row_trains_the_depth_it_names(self, workspace, monkeypatch):
        tmp_path, config = workspace
        path = write_config(tmp_path, config)
        assert run_cli("featurize", "--config", path) == 0
        assert run_cli("split", "--config", path) == 0
        trained = []
        real_train_loop = cli.train_loop

        def spy(dataset, split, model_cfg, train_cfg):
            trained.append(model_cfg.transformer_layers)
            return real_train_loop(dataset, split, model_cfg, train_cfg)

        monkeypatch.setattr(cli, "train_loop", spy)
        assert run_cli("sweep", "--config", path, "--depths", "2,1") == 0
        assert trained == [2, 1]
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == ["2", "1"]
