"""End-to-end command-line behaviour: artifact generation, exit codes,
cache validation, and reproducibility."""

import contextlib
import errno
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from molpeco import chemio, cli, train
from molpeco.checkpoints import load_checkpoint, read_arrays, save_checkpoint, write_arrays
from molpeco.chemio import serialize_molecules
from molpeco.cli import main, read_embeddings, retrieve_neighbors
from molpeco.config import RunConfig
from molpeco.errors import DataError
from molpeco.features import CACHE_MAGIC, featurize_molecule
from molpeco.metrics import METRIC_NAMES

from synthdata import organic_molecule, structure_labeled_set

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(cli.__file__).resolve().parent.parent


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

        ids, vectors = read_embeddings(out / "embeddings_val.csv")
        assert vectors.shape == (len(ids), 8)
        query = sorted(ids)[0]
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


class TestParseOnce:
    def test_train_eval_embed_do_not_parse_the_dataset(self, workspace, monkeypatch):
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        artifacts = ["out/checkpoint.bin", "out/history.csv", "out/report_val.json",
                     "out/report_val.csv", "out/embeddings_val.csv"]

        def after_split():
            for command in (["train"], ["eval", "--part", "val"], ["embed", "--part", "val"]):
                assert run_cli(*command, "--config", config_path) == 0
            return {name: (tmp_path / name).read_bytes() for name in artifacts}

        parsed = after_split()

        def no_parse(*args, **kwargs):
            raise AssertionError("the dataset file was parsed")

        monkeypatch.setattr(chemio, "parse_molecules", no_parse)
        assert after_split() == parsed

    def test_depth_sweep_does_not_parse_the_dataset(self, workspace, monkeypatch):
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        sweep_csv = tmp_path / "out" / "sweep.csv"

        def parsed_with_cached_features(config):
            _, features = cli.read_feature_cache(config.cache_path)
            ds = cli._clean(config, cli._parse_dataset(config))
            return chemio.Dataset([features[mol.id] for mol in ds.molecules],
                                  ds.vocabulary, ds.targets)

        # the parsed dataset with the cache's features, as the sweep once read them
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_load_cached", parsed_with_cached_features)
            assert run_cli("sweep", "--config", config_path, "--depths", "1") == 0
        parsed = sweep_csv.read_bytes()
        sweep_csv.unlink()

        def no_parse(*args, **kwargs):
            raise AssertionError("the dataset file was parsed")

        monkeypatch.setattr(chemio, "parse_molecules", no_parse)
        assert run_cli("sweep", "--config", config_path, "--depths", "1") == 0
        assert sweep_csv.read_bytes() == parsed

    @pytest.mark.parametrize("variant", ["coulomb-gcn", "mol-peco-asym"])
    def test_cached_dataset_equals_parsed_dataset(self, tmp_path, variant):
        rng = np.random.default_rng(4)
        bonded = [organic_molecule(rng, f"org/{i}", int(rng.integers(10, 30)))
                  for i in range(6)]
        plain = structure_labeled_set(rng, count=8).molecules
        records = []
        for i, mol in enumerate(bonded + list(plain)):
            record = {"id": mol.id, "atoms": [[a.atomic_number, *a.position]
                                              for a in mol.atoms],
                      "labels": sorted(mol.labels | {f"d{i % 3}"})}
            if mol.bonds is not None:
                record["bonds"] = [list(b) for b in mol.bonds]
            records.append(record)
        records[1]["labels"] = ["odorless", "d0"]  # a conflict: dropped by cleaning
        records[2]["labels"] = ["rare"]             # a descriptor below min count
        records.append({"id": "single", "atoms": [["O", 0.5, -1.25, 3.0]],
                        "bonds": [], "labels": ["d1"]})
        # a duplicate of a bond-less molecule: labels merge, its bonds are kept
        records.append({**records[8], "labels": ["d2", "extra"],
                        "bonds": [[0, 1]]})
        data = tmp_path / "molecules.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = RunConfig(data_path=str(data), cache_path=str(tmp_path / "f.cache"),
                           variant=variant, min_label_count=2)
        assert cli.cmd_featurize(config) == 0

        cached = cli._load_cached(config)
        parsed = cli._clean(config, cli._parse_dataset(config))
        _, features = cli.read_feature_cache(config.cache_path)
        assert list(features) == list(dict.fromkeys(r["id"] for r in records))
        assert [row.id for row in cached.molecules] == [m.id for m in parsed.molecules]
        assert len(parsed) == len(records) - 2
        assert records[1]["id"] not in [m.id for m in parsed.molecules]
        for got, mol in zip(cached.molecules, parsed.molecules):
            assert got.labels == mol.labels
            want = featurize_molecule(mol, variant)
            assert got.kind == want.kind
            assert got.atomic_numbers.tobytes() == want.atomic_numbers.tobytes()
            assert got.matrix.tobytes() == want.matrix.tobytes()
            if variant == "coulomb-gcn":
                assert got.spectrum is None
            else:
                assert got.spectrum.eigenvalues.tobytes() == want.spectrum.eigenvalues.tobytes()
                assert (got.spectrum.eigenvectors.tobytes()
                        == want.spectrum.eigenvectors.tobytes())
        assert np.array_equal(cached.targets, parsed.targets)
        assert cached.targets.dtype == parsed.targets.dtype
        assert cached.vocabulary == parsed.vocabulary


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

    @pytest.mark.parametrize("magic", [b"MPEC0002", b"MPEC0003", b"MPEC0004"])
    def test_cache_in_previous_layout_is_data_error(self, workspace, capsys, magic):
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        cache = tmp_path / "features.cache"
        cache.write_bytes(magic + cache.read_bytes()[8:])
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

    def test_cache_without_dataset_hash_is_data_error(self, workspace, capsys):
        tmp_path, config_path, _ = workspace
        assert run_cli("featurize", "--config", config_path) == 0
        assert run_cli("split", "--config", config_path) == 0
        cache = tmp_path / "features.cache"
        header, arrays = read_arrays(cache, CACHE_MAGIC, "feature cache")
        del header["dataset_sha256"]
        write_arrays(cache, CACHE_MAGIC, arrays, header)
        capsys.readouterr()
        for command in (["train"], ["eval", "--part", "val"], ["embed", "--part", "val"]):
            assert run_cli(*command, "--config", config_path) == 3
            assert "does not record which dataset file" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["unknown model_config key", "no model_config",
                                       "header not an object"])
    def test_bad_checkpoint_metadata_is_data_error(self, workspace, capsys, fault):
        tmp_path, config_path, _ = workspace
        for command in ("featurize", "split", "train"):
            assert run_cli(command, "--config", config_path) == 0
        checkpoint = tmp_path / "out" / "checkpoint.bin"
        metadata, state = load_checkpoint(checkpoint)
        if fault == "unknown model_config key":
            # as in checkpoints written while the model config held the normalization
            metadata["model_config"]["cm_normalization"] = "frobenius"
        elif fault == "no model_config":
            del metadata["model_config"]
        else:
            metadata = list(metadata)
        save_checkpoint(checkpoint, state, metadata)
        capsys.readouterr()
        for command in (["eval", "--part", "val"], ["embed", "--part", "val"]):
            assert run_cli(*command, "--config", config_path) == 3
            assert "re-run train" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["coulomb-gcn", "mol-peco-asym"])
    def test_empty_dataset_featurizes_to_an_empty_cache(self, tmp_path, variant):
        data = tmp_path / "molecules.jsonl"
        data.write_text("", encoding="utf-8")
        config = RunConfig(data_path=str(data), cache_path=str(tmp_path / "f.cache"),
                           variant=variant)
        assert cli.cmd_featurize(config) == 0
        header, features = cli.read_feature_cache(config.cache_path)
        assert header["molecules"] == [] and features == {}

    def test_dataset_edited_after_featurize_is_data_error(self, workspace, capsys):
        tmp_path, config_path, _ = workspace
        for command in ("featurize", "split", "train"):
            assert run_cli(command, "--config", config_path) == 0
        data = tmp_path / "molecules.jsonl"
        lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        record["atoms"][0][1] += 0.5  # still a valid molecule
        data.write_text(json.dumps(record) + "\n" + "".join(lines[1:]), encoding="utf-8")
        capsys.readouterr()
        for command in (["train"], ["eval", "--part", "val"], ["embed", "--part", "val"]):
            assert run_cli(*command, "--config", config_path) == 3
            assert "different dataset file" in capsys.readouterr().err

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

    @pytest.mark.parametrize("fault", ["negative", "out_of_range", "overlapping",
                                       "truncated", "not_utf8", "seed_not_a_number"])
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
        elif fault == "overlapping":
            parts["test"].append(parts["train"][0])
        elif fault == "seed_not_a_number":
            parts["seed"] = "x"
        blob = json.dumps(parts).encode("utf-8")
        if fault == "truncated":
            blob = blob[:-10]
        elif fault == "not_utf8":
            blob = b"\xff" + blob
        split_path.write_bytes(blob)
        assert run_cli("train", "--config", config_path) == 3
        assert run_cli("eval", "--config", config_path, "--part", "test") == 3
        assert run_cli("embed", "--config", config_path, "--part", "test") == 3

    def test_embed_of_empty_part_writes_header_only(self, workspace):
        tmp_path, config_path, _ = workspace
        for command in (["featurize"], ["split"], ["train"]):
            assert run_cli(*command, "--config", config_path) == 0
        split_path = tmp_path / "split.json"
        parts = json.loads(split_path.read_text())
        parts["train"] += parts["test"]
        parts["test"] = []
        split_path.write_text(json.dumps(parts), encoding="utf-8")
        assert run_cli("embed", "--config", config_path, "--part", "test") == 0
        lines = (tmp_path / "out" / "embeddings_test.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("# config_hash=")
        assert lines[1] == "id," + ",".join(f"e{i}" for i in range(8))

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
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0
        assert "featurized" in proc.stdout


def write_embeddings(path, text):
    path.write_text("# config_hash=x\n" + text, encoding="utf-8")
    return path


def names(ranked):
    return [mol_id for mol_id, _ in ranked]


class TestRetrieval:
    def test_identical_embedding_ranks_first_with_similarity_one(self):
        vectors = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        ranked = retrieve_neighbors(["query", "twin", "other"], vectors, "query", k=2)
        assert ranked[0][0] == "twin"
        assert abs(ranked[0][1] - 1.0) <= 1e-12

    def test_k_clamped_to_corpus(self):
        assert len(retrieve_neighbors(["a", "b", "c"], np.ones((3, 2)), "a", k=10)) == 2
        assert retrieve_neighbors(["only"], np.ones((1, 3)), "only", k=5) == []

    def test_orthogonal_vectors_zero_similarity(self):
        vectors = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert retrieve_neighbors(["q", "o"], vectors, "q", k=1) == [("o", 0.0)]

    def test_zero_vector_has_zero_similarity(self):
        ids = ["q", "zero", "back"]
        vectors = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        assert retrieve_neighbors(ids, vectors, "q", k=2) == [("zero", 0.0), ("back", -1.0)]
        assert retrieve_neighbors(ids, vectors, "zero", k=2) == [("back", 0.0), ("q", 0.0)]

    def test_ties_break_lexicographically(self):
        vectors = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])
        ranked = retrieve_neighbors(["q", "zz", "aa"], vectors, "q", k=2)
        assert names(ranked) == ["aa", "zz"]

    @pytest.mark.parametrize("d", [32, 33])
    @pytest.mark.parametrize("query_row", [5000, 4099])
    def test_repeated_vector_ties_bit_identically_at_every_row(self, d, query_row):
        rng = np.random.default_rng(d)
        vectors = rng.normal(size=(8503, d))
        rows = [0, 1, 2, 3, 4, 7, 8, 4099, 8502]
        # the repeated vector is the one closest to the query
        vectors[rows] = vectors[5000] + 0.01 * rng.normal(size=d)
        ids = [f"m{i:05d}" for i in rng.permutation(8503)]
        twins = [row for row in rows if row != query_row]
        ranked = retrieve_neighbors(ids, vectors, ids[query_row], k=len(twins))
        assert names(ranked) == sorted(ids[row] for row in twins)
        assert len({sim for _, sim in ranked}) == 1

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(300, 16))
        vectors[17] = 0.0
        ids = [f"m{i:03d}" for i in rng.permutation(300)]
        for query_row in [17, *rng.choice(300, 9, replace=False)]:
            query = vectors[query_row]
            expected = []
            for mol_id, vector in zip(ids, vectors):
                if mol_id == ids[query_row]:
                    continue
                denom = float(np.linalg.norm(query) * np.linalg.norm(vector))
                expected.append((mol_id, 0.0 if denom == 0.0
                                 else float(np.dot(query, vector) / denom)))
            expected.sort(key=lambda item: (-item[1], item[0]))
            ranked = retrieve_neighbors(ids, vectors, ids[query_row], k=25)
            assert names(ranked) == names(expected[:25])
            worst = max(abs(a - b) for (_, a), (_, b) in zip(ranked, expected))
            assert worst <= 8 * np.finfo(np.float64).eps

    @staticmethod
    def full_sort(ids, vectors, query_id, k):
        """The ranking as a full sort of every row: the reference the
        top-k selection must match exactly."""
        row = ids.index(query_id)
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
        dots = np.einsum("ij,j->i", vectors, vectors[row])
        denom = norms * norms[row]
        sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
        order = np.lexsort((np.array(ids), -sims))
        order = order[order != row][:k]
        return [(ids[i], float(sims[i])) for i in order]

    def assert_same_ranking(self, ids, vectors, query_id, k):
        ranked = retrieve_neighbors(ids, vectors, query_id, k)
        expected = self.full_sort(ids, vectors, query_id, k)
        # bit-equal, not ==: 0.0 and -0.0 print differently, and NaN != NaN
        assert [(mol_id, np.float64(sim).tobytes()) for mol_id, sim in ranked] == \
            [(mol_id, np.float64(sim).tobytes()) for mol_id, sim in expected]

    def test_top_k_matches_full_sort_on_ties(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
            vectors = rng.integers(-2, 3, size=(n, d)).astype(float)
            vectors[rng.integers(n, size=2)] = 0.0
            ids = [f"m{i:02d}" for i in rng.permutation(n)]
            zero_rows = [ids[i] for i in np.flatnonzero(~vectors.any(axis=1))]
            for query_id in [ids[int(rng.integers(n))], zero_rows[0]]:
                for k in [1, n - 1, n + 2, int(rng.integers(1, n + 3))]:
                    self.assert_same_ranking(ids, vectors, query_id, k)

    def test_top_k_matches_full_sort_on_nan_similarities(self):
        # finite values whose squares overflow give NaN similarities,
        # which sort after every number
        vectors = np.array([[1.0, 0.0], [1e200, 1e200], [2.0, 1.0], [0.0, 0.0],
                            [1e200, -1e200], [1.0, 0.0]])
        ids = ["q", "huge", "b", "zero", "huge2", "twin"]
        with np.errstate(over="ignore", invalid="ignore"):
            for query_id in ids:
                for k in range(1, 8):
                    self.assert_same_ranking(ids, vectors, query_id, k)

    def test_top_k_matches_full_sort_on_the_benchmark_library(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import corpus

        # 8,503 x 32 clustered rows, 2% of them exact copies of another row
        ids, vectors = corpus.make_embedding_library(1, 8503, 32, 64, 0.02)
        _, first, counts = np.unique(vectors, axis=0, return_index=True, return_counts=True)
        rows = [*first[counts > 1][:10], *range(0, 8503, 850)]
        for row in rows:
            for k in [1, 5, 20, 100]:
                self.assert_same_ranking(ids, vectors, ids[row], k)

    def test_read_embeddings_bit_equal_to_float_of_repr(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200)
        values = np.concatenate([values, [5e-324, -0.0, 1.7976931348623157e308, 0.1, 1 / 3]])
        cells = [[repr(float(v)) for v in row] for row in values.reshape(41, 5)]
        path = write_embeddings(tmp_path / "e.csv", "id,e0,e1,e2,e3,e4\n" + "".join(
            f"m{i},{','.join(row)}\n" for i, row in enumerate(cells)))
        expected = np.array([[float(cell) for cell in row] for row in cells])
        # the first read parses the text, the second reads the binary copy
        for _ in range(2):
            ids, vectors = read_embeddings(path)
            assert ids == [f"m{i}" for i in range(41)]
            assert vectors.tobytes() == expected.tobytes()
            assert (tmp_path / "e.csv.bin").is_file()

    @pytest.mark.parametrize("rows", [
        "a,1.0,2.0\nb,1.0\n",           # ragged row
        "a,1.0,2.0\nb,1.0,x\n",         # non-numeric cell
        "a,1.0\nb,2.0\n",               # rows narrower than the header
        "a,1.0,2.0\n,1.0,2.0\n",        # empty id
        "a,1.0,2.0\na,3.0,4.0\n",       # repeated id
        "a,1.0,2.0\nb,nan,1.0\n",       # non-finite value
        "a,1.0,2.0\nb,1.0,-inf\n",      # non-finite value
        "a,1.0,2.0\nb\n",               # a row holding only its id
        "",                               # no rows at all
    ])
    def test_malformed_embedding_file_exits_3(self, tmp_path, capsys, rows):
        path = write_embeddings(tmp_path / "e.csv", "id,e0,e1\n" + rows)
        with pytest.raises(DataError):
            read_embeddings(path)
        assert run_cli("retrieve", "--embeddings", path, "--query", "a") == 3
        assert "data error" in capsys.readouterr().err
        # neither a copy nor its temporary file is left behind
        assert [p.name for p in tmp_path.iterdir()] == ["e.csv"]

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_usage_error(self, tmp_path, capsys, k):
        path = write_embeddings(tmp_path / "e.csv", "id,e0\na,1.0\nb,2.0\nc,3.0\n")
        assert run_cli("retrieve", "--embeddings", path, "--query", "a", "--k", k) == 2
        assert capsys.readouterr().out == ""

    def test_retrieve_prints_rank_id_similarity(self, tmp_path, capsys):
        path = write_embeddings(tmp_path / "e.csv",
                                "id,e0,e1\na,1.0,0.0\nb,0.0,1.0\nc,2.0,0.0\n")
        assert run_cli("retrieve", "--embeddings", path, "--query", "a", "--k", "5") == 0
        assert capsys.readouterr().out == "1,c,1.0\n2,b,0.0\n"


def copy_layout(csv: bytes, ids, vectors) -> bytes:
    """The bytes of an ``MPEM0002`` embedding copy, field by field."""
    joined = "\n".join(ids).encode("utf-8")
    vectors = np.asarray(vectors, dtype="<f8")
    return (b"MPEM0002" + struct.pack("<Q", len(csv)) + csv
            + struct.pack("<IIQ", *vectors.shape, len(joined)) + vectors.tobytes() + joined)


class TestEmbeddingCopy:
    """``<csv>.bin``, the binary copy holding the CSV bytes it was parsed
    from, which answers a re-read of those bytes without parsing them."""

    ROWS = "id,e0,e1\na,1.0,0.0\nb,0.0,1.0\nc,2.0,0.5\n"
    IDS = ["a", "b", "c"]
    VECTORS = [[1.0, 0.0], [0.0, 1.0], [2.0, 0.5]]

    def retrieve(self, path, capsys, code=0):
        assert run_cli("retrieve", "--embeddings", path, "--query", "a", "--k", "2") == code
        assert not list(path.parent.glob("*.tmp"))
        return capsys.readouterr().out

    def fresh(self, csv: bytes, tmp_path, capsys):
        """The answer and the copy of a first retrieve on ``csv``."""
        work = tmp_path / "fresh"
        work.mkdir()
        path = work / "e.csv"
        path.write_bytes(csv)
        return self.retrieve(path, capsys), (work / "e.csv.bin").read_bytes()

    def test_copy_layout(self, tmp_path, capsys):
        path = write_embeddings(tmp_path / "e.csv", self.ROWS)
        self.retrieve(path, capsys)
        assert (tmp_path / "e.csv.bin").read_bytes() == copy_layout(
            path.read_bytes(), self.IDS, self.VECTORS)

    def test_line_ends_are_universal_newlines(self, tmp_path):
        # \r\n and \r end rows, as in a file read in text mode; \x0c and
        # \u2028 inside an id do not
        path = tmp_path / "e.csv"
        path.write_bytes("id,e0\r\nm\x0c1,1.0\rm\u20282,2.0\nm3,3.0\r\n".encode("utf-8"))
        for _ in range(2):
            ids, vectors = read_embeddings(path)
            assert ids == ["m\x0c1", "m\u20282", "m3"]
            assert vectors.tolist() == [[1.0], [2.0], [3.0]]

    def test_hit_neither_parses_nor_hashes(self, tmp_path, monkeypatch):
        path = write_embeddings(tmp_path / "e.csv", self.ROWS)
        ids, vectors = read_embeddings(path)

        def forbidden(*args, **kwargs):
            raise AssertionError("a hit must not parse or hash the CSV")

        monkeypatch.setattr(cli, "_parse_embeddings", forbidden)
        monkeypatch.setattr(hashlib, "sha256", forbidden)
        stored_ids, stored = read_embeddings(path)
        assert stored_ids == ids
        assert stored.tobytes() == vectors.tobytes() and stored.shape == vectors.shape
        assert stored.flags.writeable

    def test_edit_keeping_size_and_mtime_is_reparsed(self, tmp_path, capsys):
        path = write_embeddings(tmp_path / "e.csv", self.ROWS)
        assert self.retrieve(path, capsys).startswith("1,c,")
        before = path.stat()
        path.write_bytes(path.read_bytes().replace(b"b,0.0,1.0", b"b,9.0,1.0"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert self.retrieve(path, capsys).startswith("1,b,")

    @pytest.mark.parametrize("base, edited", [
        (ROWS, ROWS[:-1] + "9"),          # only the last byte: c,2.0,0.59
        (ROWS[:-1], ROWS[:-1] + "1"),     # one byte longer, the old bytes its prefix
        (ROWS[:-1] + "1", ROWS[:-1]),     # one byte shorter, the new bytes the prefix
    ], ids=["last byte", "grown", "shrunk"])
    def test_csv_edit_beside_unchanged_copy_is_reparsed(self, tmp_path, capsys, base, edited):
        path = write_embeddings(tmp_path / "e.csv", base)
        before = self.retrieve(path, capsys)
        copy = (tmp_path / "e.csv.bin").read_bytes()
        write_embeddings(path, edited)
        assert (tmp_path / "e.csv.bin").read_bytes() == copy
        answer, rewritten = self.fresh(path.read_bytes(), tmp_path, capsys)
        assert answer != before
        assert self.retrieve(path, capsys) == answer
        assert (tmp_path / "e.csv.bin").read_bytes() == rewritten

    @staticmethod
    def damaged_copies(csv: bytes, good: bytes) -> dict:
        n = len(csv)
        # regions: magic [0, 8), CSV length [8, 16), CSV [16, 16 + n),
        # shape [16 + n, 32 + n), vectors [32 + n, 80 + n), ids [80 + n, end)
        return {
            "truncated in magic": good[:4],
            "truncated in csv length": good[:12],
            "truncated in csv": good[:16 + n // 2],
            "truncated in shape": good[:24 + n],
            "truncated in vectors": good[:52 + n],
            "truncated in ids": good[:-1],
            # a shape that would ask for about 2**64 doubles
            "huge shape": (good[:16 + n] + struct.pack("<IIQ", 2**32 - 1, 2**32 - 1, 1)
                           + good[32 + n:]),
            "trailing bytes": good + b"\n",
            "wrong magic": b"MPEM0000" + good[8:],
            "ids not utf-8": good[:-1] + b"\xff",
            # read as a hit, these vectors would rank b first
            "foreign csv": copy_layout(csv.replace(b"b,0.0,1.0", b"b,9.0,1.0"),
                                       TestEmbeddingCopy.IDS,
                                       [[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]]),
            "ids length": copy_layout(csv, ["a", "c"], TestEmbeddingCopy.VECTORS),
            "too many ids": copy_layout(csv, ["a", "b", "c", "d"], TestEmbeddingCopy.VECTORS),
        }

    @pytest.mark.parametrize("damage", [
        "truncated in magic", "truncated in csv length", "truncated in csv",
        "truncated in shape", "truncated in vectors", "truncated in ids", "huge shape",
        "trailing bytes",
        "wrong magic", "ids not utf-8", "foreign csv", "ids length", "too many ids",
        "MPEM0001 copy"])
    def test_bad_copy_is_reparsed_and_rewritten(self, tmp_path, capsys, damage):
        path = write_embeddings(tmp_path / "e.csv", self.ROWS)
        copy = tmp_path / "e.csv.bin"
        expected = self.retrieve(path, capsys)
        good = copy.read_bytes()
        csv = path.read_bytes()
        if damage == "MPEM0001 copy":
            # the previous layout, keyed by the SHA-256 of these very bytes
            write_arrays(copy, b"MPEM0001", {"vectors": np.array(self.VECTORS)},
                         {"csv_sha256": hashlib.sha256(csv).hexdigest(), "ids": self.IDS})
        else:
            copy.write_bytes(self.damaged_copies(csv, good)[damage])
        assert self.retrieve(path, capsys) == expected
        assert copy.read_bytes() == good

    @pytest.mark.parametrize("room", ["none", "read-only directory", "in the header",
                                      "in the csv", "after the csv", "in the ids"])
    def test_failed_copy_write_still_answers(self, tmp_path, capsys, monkeypatch, room):
        path = write_embeddings(tmp_path / "e.csv", self.ROWS)
        csv = path.read_bytes()
        good = copy_layout(csv, self.IDS, self.VECTORS)
        budget = {"none": 0, "in the header": 12, "in the csv": 16 + len(csv) // 2,
                  "after the csv": 16 + len(csv), "in the ids": len(good) - 1}.get(room)
        real_replacing = cli.replacing

        class FullDisk:
            """Writes what fits in ``budget`` bytes, then fails."""

            def __init__(self, handle):
                self.handle, self.left = handle, budget

            def write(self, data):
                data = bytes(memoryview(data).cast("B"))
                self.handle.write(data[:self.left])
                if len(data) > self.left:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.left -= len(data)

        @contextlib.contextmanager
        def failing_replacing(target, mode="w"):
            if budget is None:
                raise PermissionError(errno.EACCES, "Permission denied")
            with real_replacing(target, mode) as handle:
                yield FullDisk(handle)

        monkeypatch.setattr(cli, "replacing", failing_replacing)
        unwritten = self.retrieve(path, capsys)
        assert unwritten == "1,c,0.9701425001453319\n2,b,0.0\n"
        assert not (tmp_path / "e.csv.bin").exists()
        monkeypatch.undo()
        assert self.retrieve(path, capsys) == unwritten
        assert (tmp_path / "e.csv.bin").read_bytes() == good

    def test_csv_that_is_not_utf8_exits_3_without_a_copy(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_bytes(self.ROWS.replace("b,", "b\xe9,").encode("latin-1"))
        assert self.retrieve(path, capsys, code=3) == ""
        assert not (tmp_path / "e.csv.bin").exists()

    def test_malformed_csv_beside_a_valid_copy_exits_3(self, tmp_path, capsys):
        path = write_embeddings(tmp_path / "e.csv", self.ROWS)
        self.retrieve(path, capsys)
        copy = (tmp_path / "e.csv.bin").read_bytes()
        write_embeddings(path, self.ROWS + "d,1.0\n")
        assert self.retrieve(path, capsys, code=3) == ""
        assert (tmp_path / "e.csv.bin").read_bytes() == copy


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it: no call
    may leave state in it that a later call sees."""

    def test_importing_cli_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    built.append(1)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import molpeco.cli\n"
                "print(len(built), molpeco.cli.build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_calls_in_one_process_share_one_parser(self, workspace, tmp_path, capsys,
                                                   monkeypatch):
        _, config_path, _ = workspace
        path = write_embeddings(tmp_path / "e.csv",
                                "id,e0,e1\na,1.0,0.0\nb,0.0,1.0\nc,2.0,0.5\nd,1.0,0.0\n")
        retrieve = ["retrieve", "--embeddings", path, "--query", "a", "--k", "2"]
        # the same query as the first command of a fresh process
        proc = subprocess.run([sys.executable, "-m", "molpeco.cli", *map(str, retrieve)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.returncode == 0, proc.stderr

        with pytest.raises(SystemExit) as exc:
            run_cli("retrieve", "--embeddings", path, "--no-such-flag")
        assert exc.value.code == 2
        for _ in range(2):
            assert run_cli("retrieve", "--embeddings", path, "--query", "a", "--k", "0") == 2
        parts = []
        monkeypatch.setattr(cli, "cmd_eval", lambda config, part: parts.append(part) or 0)
        monkeypatch.setattr(cli, "cmd_embed", lambda config, part: parts.append(part) or 0)
        assert run_cli("eval", "--config", config_path, "--part", "val") == 0
        assert run_cli("eval", "--config", config_path) == 0
        assert run_cli("embed", "--config", config_path) == 0
        assert parts == ["val", "test", "test"]
        capsys.readouterr()
        assert run_cli(*retrieve) == 0
        assert capsys.readouterr().out == proc.stdout == "1,d,1.0\n2,c,0.9701425001453319\n"
        assert cli.build_parser() is cli.build_parser()
