"""End-to-end command-line behaviour: artifact generation, exit codes,
cache validation, and reproducibility."""

import errno
import json
import subprocess
import sys

import numpy as np
import pytest

from molpeco import cli, train
from molpeco.checkpoints import load_checkpoint
from molpeco.chemio import serialize_molecules
from molpeco.cli import cosine_similarity, main, read_embeddings, retrieve_neighbors
from molpeco.metrics import METRIC_NAMES

from synthdata import structure_labeled_set


@pytest.fixture()
def workspace(tmp_path):
    ds = structure_labeled_set(np.random.default_rng(0))
    data_path = tmp_path / "molecules.jsonl"
    serialize_molecules(ds, data_path)
    config = {
        "data_path": str(data_path),
        "cache_path": str(tmp_path / "features.cache"),
        "split_path": str(tmp_path / "split.json"),
        "out_dir": str(tmp_path / "out"),
        "min_label_count": 1,
        "variant": "mol-peco-sym",
        "d": 8,
        "p": 4,
        "gcn_layers": 1,
        "transformer_layers": 1,
        "z_max": 20,
        "fractions": [0.6, 0.2, 0.2],
        "seed": 0,
        "learning_rate": 0.005,
        "batch_size": 4,
        "max_epochs": 2,
        "patience": 10,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, config_path, config


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestPipeline:
    def test_full_pipeline(self, workspace):
        tmp_path, config_path, config = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        assert run_cli("train", "--config", config_path) == 0
        assert run_cli("eval", "--config", config_path, "--part", "val") == 0
        assert run_cli("embed", "--config", config_path, "--part", "val") == 0

        out = tmp_path / "out"
        assert (out / "checkpoint.bin").exists()
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0].startswith("# config_hash=")
        assert history[1] == "epoch,train_loss,val_loss,val_auroc"
        assert len(history) == 2 + config["max_epochs"]
        report = json.loads((out / "report_val.json").read_text())
        assert "macro" in report and "config_hash" in report
        report_csv = (out / "report_val.csv").read_text().strip().split("\n")
        assert report_csv[0] == history[0]
        assert report_csv[1] == "descriptor," + ",".join(METRIC_NAMES)
        assert report_csv[-1].startswith("macro,")
        assert len(report_csv) == 2 + len(report) - 3 + 1  # descriptors and macro
        assert not list(tmp_path.rglob("*.tmp"))

        embeddings = read_embeddings(out / "embeddings_val.csv")
        assert all(vec.shape == (8,) for vec in embeddings.values())
        query = sorted(embeddings)[0]
        assert run_cli("retrieve", "--embeddings", out / "embeddings_val.csv",
                       "--query", query, "--k", "3") == 0

    def test_featurize_idempotent(self, workspace):
        tmp_path, config_path, _ = workspace
        cache = tmp_path / "features.cache"
        assert run_cli("featurize", "--config", config_path) == 0
        first = cache.read_bytes()
        assert run_cli("featurize", "--config", config_path) == 0
        assert cache.read_bytes() == first

    def test_cache_built_at_one_p_trains_at_another(self, workspace):
        # the cache stores each molecule's full spectrum, so p is chosen at
        # training time
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path, "--p", "20") == 0
        assert run_cli("split", "--config", config_path) == 0
        assert run_cli("train", "--config", config_path, "--p", "8") == 0
        metadata, _ = load_checkpoint(tmp_path / "out" / "checkpoint.bin")
        assert metadata["model_config"]["p"] == 8

    def test_split_is_partition(self, workspace):
        tmp_path, config_path, _ = workspace
        assert run_cli("split", "--config", config_path) == 0
        payload = json.loads((tmp_path / "split.json").read_text())
        combined = sorted(payload["train"] + payload["val"] + payload["test"])
        assert combined == list(range(20))

    def test_rerun_is_byte_identical(self, workspace):
        tmp_path, config_path, _ = workspace
        artifacts = ["out/checkpoint.bin", "out/history.csv",
                     "out/report_val.json", "out/embeddings_val.csv"]

        def run_all():
            for command in (["featurize"], ["split"], ["train"],
                            ["eval", "--part", "val"], ["embed", "--part", "val"]):
                assert run_cli(*command, "--config", config_path) == 0
            return {name: (tmp_path / name).read_bytes() for name in artifacts}

        first = run_all()
        second = run_all()
        assert first == second


class TestSweep:
    def test_depth_sweep_rows(self, workspace):
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        assert run_cli("sweep", "--config", config_path, "--depths", "1,2") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
        assert lines[1] == "transformer_layers,auroc,auprc,precision,recall,specificity,accuracy"
        assert len(lines) == 4
        assert lines[2].startswith("1,") and lines[3].startswith("2,")

    def test_variant_sweep_rows(self, workspace):
        tmp_path, config_path, _ = workspace
        assert run_cli("split", "--config", config_path) == 0
        assert run_cli("sweep", "--config", config_path,
                       "--variants", "coulomb-gcn") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
        assert lines[1].startswith("variant,")
        assert lines[2].startswith("coulomb-gcn,")

    def test_sweep_without_axis_is_usage_error(self, workspace):
        _, config_path, _ = workspace
        assert run_cli("sweep", "--config", config_path) == 2


class TestExitCodes:
    def test_missing_dataset_is_data_error(self, workspace):
        tmp_path, config_path, _ = workspace
        (tmp_path / "molecules.jsonl").unlink()
        assert run_cli("featurize", "--config", config_path) == 3

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"no_such_key": 1}', encoding="utf-8")
        assert run_cli("featurize", "--config", config_path) == 2

    def test_degenerate_geometry_is_data_error(self, tmp_path):
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps({
            "id": "twin", "atoms": [["H", 0, 0, 0], ["H", 0, 0, 1e-9]],
            "labels": ["x"],
        }) + "\n", encoding="utf-8")
        assert run_cli("featurize", "--data", data,
                       "--cache", tmp_path / "c.bin") == 3

    def test_cache_in_previous_layout_is_data_error(self, workspace, capsys):
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        cache = tmp_path / "features.cache"
        cache.write_bytes(b"MPEC0001" + cache.read_bytes()[8:])
        capsys.readouterr()
        assert run_cli("train", "--config", config_path) == 3
        assert "re-run featurize" in capsys.readouterr().err

    def test_failed_checkpoint_write_keeps_previous_checkpoint(self, workspace,
                                                               monkeypatch):
        tmp_path, config_path, _ = workspace
        for command in ("featurize", "split", "train"):
            assert run_cli(command, "--config", config_path) == 0
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes()
                  for name in ("checkpoint.bin", "history.csv")}

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        class FailingArray:
            __array__ = full_disk

        real_save = cli.save_checkpoint

        def failing_save(path, state, metadata):
            # the arrays sorted before "zz" are written, then the disk fills
            real_save(path, dict(state, zz=FailingArray()), metadata)

        monkeypatch.setattr(cli, "save_checkpoint", failing_save)
        assert run_cli("train", "--config", config_path, "--seed", "5") == 3
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob
        assert not list(out.glob("*.tmp"))

    def test_cache_signature_mismatch(self, workspace):
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        assert run_cli("train", "--config", config_path, "--normalization",
                       "minmax") == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergent_training_is_numeric_error(self, workspace):
        # the absurd learning rate overflows the forward pass on purpose
        tmp_path, _, config = workspace
        config = dict(config, learning_rate=1e200, max_epochs=3)
        config_path = tmp_path / "diverge.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        assert run_cli("train", "--config", config_path) == 4
        # last good checkpoint is still written
        assert (tmp_path / "out" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_keeps_best_checkpoint(self, workspace, monkeypatch, bad):
        tmp_path, _, config = workspace
        config = dict(config, max_epochs=3)
        config_path = tmp_path / "bad_grad.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        train_size = len(json.loads((tmp_path / "split.json").read_text())["train"])
        steps_per_epoch = -(-train_size // config["batch_size"])
        real_step = train.Adam.step

        def poisoned_step(self):
            # the first step of epoch 2 sees a non-finite gradient
            if self.t == steps_per_epoch:
                self.params[0].tensor.grad = np.full_like(self.params[0].tensor.values,
                                                          bad)
            real_step(self)

        monkeypatch.setattr(train.Adam, "step", poisoned_step)
        assert run_cli("train", "--config", config_path) == 4
        metadata, _ = load_checkpoint(tmp_path / "out" / "checkpoint.bin")
        assert metadata["diverged"] is True
        assert metadata["epoch"] == 1
        assert (tmp_path / "out" / "history.csv").exists()

    @pytest.mark.parametrize("fault", ["negative", "out_of_range", "overlapping"])
    def test_split_file_not_covering_dataset_is_data_error(self, workspace, fault):
        tmp_path, config_path, _ = workspace
        for command in (["featurize"], ["split"], ["train"]):
            assert run_cli(*command, "--config", config_path) == 0
        split_path = tmp_path / "split.json"
        parts = json.loads(split_path.read_text())
        if fault == "negative":
            parts["test"][0] -= 20  # the same molecule, counted from the end
        elif fault == "out_of_range":
            parts["test"][0] = 20
        else:
            parts["test"].append(parts["train"][0])
        split_path.write_text(json.dumps(parts), encoding="utf-8")
        assert run_cli("eval", "--config", config_path, "--part", "test") == 3
        assert run_cli("embed", "--config", config_path, "--part", "test") == 3

    def test_unknown_retrieve_id(self, workspace):
        tmp_path, config_path, _ = workspace
        for command in (["featurize"], ["split"], ["train"], ["embed", "--part", "val"]):
            assert run_cli(*command, "--config", config_path) == 0
        assert run_cli("retrieve", "--embeddings",
                       tmp_path / "out" / "embeddings_val.csv",
                       "--query", "nope") == 3

    def test_console_script_entry(self, workspace):
        _, config_path, _ = workspace
        proc = subprocess.run(
            [sys.executable, "-m", "molpeco.cli", "featurize", "--config",
             str(config_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "featurized" in proc.stdout


class TestRetrieval:
    def test_identical_embedding_ranks_first_with_similarity_one(self):
        embeddings = {
            "query": np.array([1.0, 0.0]),
            "twin": np.array([2.0, 0.0]),
            "other": np.array([0.0, 1.0]),
        }
        ranked = retrieve_neighbors(embeddings, "query", k=2)
        assert ranked[0][0] == "twin"
        assert abs(ranked[0][1] - 1.0) <= 1e-12

    def test_k_clamped_to_corpus(self):
        embeddings = {"a": np.ones(2), "b": np.ones(2), "c": np.ones(2)}
        assert len(retrieve_neighbors(embeddings, "a", k=10)) == 2

    def test_orthogonal_vectors_zero_similarity(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_ties_break_lexicographically(self):
        embeddings = {
            "q": np.array([1.0, 0.0]),
            "zz": np.array([3.0, 0.0]),
            "aa": np.array([2.0, 0.0]),
        }
        ranked = retrieve_neighbors(embeddings, "q", k=2)
        assert [mol_id for mol_id, _ in ranked] == ["aa", "zz"]
