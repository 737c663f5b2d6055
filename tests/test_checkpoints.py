"""The artifact layer: the shared binary array layout read strictly by
both the checkpoint and the feature cache, the CSV writer, and writes
that leave the previous file in place when they fail."""

import errno
import json
import os
import struct

import numpy as np
import pytest

from molpeco.checkpoints import (
    load_checkpoint,
    read_arrays,
    replacing,
    save_checkpoint,
    write_arrays,
    write_csv,
)
from molpeco.errors import DataError
from molpeco.features import (
    CACHE_MAGIC,
    MolFeatures,
    featurize_molecule,
    read_feature_cache,
    write_feature_cache,
)

from synthdata import random_molecule


class Exploding:
    """A value whose conversion to an array or a CSV cell fails, as a
    disk-full write would, after what comes before it is written."""

    def __array__(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    __str__ = __array__


def _write_checkpoint(path):
    rng = np.random.default_rng(1)
    save_checkpoint(path, {"a.w": rng.normal(size=(3, 2)), "b": rng.normal(size=4)},
                    {"epoch": 2})


def _write_cache(path):
    rng = np.random.default_rng(2)
    feats = [featurize_molecule(random_molecule(rng, f"m{i}"), "mol-peco-sym")
             for i in range(2)]
    write_feature_cache(path, feats, {"variant": "mol-peco-sym"})


# (writer of a valid file, reader) for both files on the shared layout
FILES = {"checkpoint": (_write_checkpoint, load_checkpoint),
         "cache": (_write_cache, read_feature_cache)}


def _header_end(blob: bytes) -> int:
    (meta_len,) = struct.unpack_from("<I", blob, 8)
    return 12 + meta_len


class TestStrictReads:
    @pytest.fixture(params=sorted(FILES))
    def written(self, request, tmp_path):
        write, read = FILES[request.param]
        path = tmp_path / "artifact.bin"
        write(path)
        return path, read

    def test_round_trip_reads_clean(self, written):
        path, read = written
        read(path)

    def test_trailing_bytes_rejected(self, written):
        path, read = written
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="1 bytes after its last array"):
            read(path)

    @pytest.mark.parametrize("where", ["header", "name", "payload"])
    def test_truncation_rejected(self, written, where):
        path, read = written
        blob = path.read_bytes()
        end = _header_end(blob)
        cut = {"header": end - 3,
               "name": end + 4 + 4 + 1,  # count, name length, one name byte
               "payload": len(blob) - 1}[where]
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="truncated"):
            read(path)

    def test_corrupt_header_rejected(self, written):
        path, read = written
        blob = bytearray(path.read_bytes())
        blob[12] = ord("[")  # the JSON header no longer parses
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="corrupt"):
            read(path)

    def test_bad_magic_rejected(self, written):
        path, read = written
        path.write_bytes(b"NOTMAGIC" + path.read_bytes()[8:])
        with pytest.raises(DataError, match="bad magic"):
            read(path)


def test_read_arrays_returns_writable_arrays_that_share_no_memory(tmp_path):
    # checkpoints load into trainable parameters, and the feature cache
    # makes its own copies read-only
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=5),
              "empty": np.zeros((0, 2)), "last": rng.normal(size=(2, 2, 2)),
              "scalar": np.array(2.5), "transposed": rng.normal(size=(2, 3)).T}
    write_arrays(tmp_path / "a.bin", b"TEST0001", arrays, {})
    _, read = read_arrays(tmp_path / "a.bin", b"TEST0001", "test file")
    assert {name: value.tobytes() for name, value in read.items()} == \
        {name: value.tobytes() for name, value in arrays.items()}
    for name, value in read.items():
        assert value.flags.writeable and value.flags.owndata
        assert value.shape == arrays[name].shape
        for other in read.values():
            assert other is value or not np.shares_memory(value, other)


class TestFeatureCacheStructure:
    ONE = {"molecules": [["m", ["x"]]]}

    def _one_molecule(self):
        return {"m/matrix": np.eye(2), "m/z": np.array([1.0, 1.0]),
                "m/xyz": np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.74]])}

    def test_minimal_cache_reads(self, tmp_path):
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, self._one_molecule(), self.ONE)
        _, got = read_feature_cache(tmp_path / "c.bin")
        mol = got["m"].molecule
        assert mol.atomic_numbers().tolist() == [1, 1]
        assert mol.bonds is None and mol.labels == {"x"}

    @pytest.mark.parametrize("drop", ["m/matrix", "m/z", "m/xyz"])
    def test_missing_matrix_or_z_rejected(self, tmp_path, drop):
        arrays = self._one_molecule()
        del arrays[drop]
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, arrays, self.ONE)
        with pytest.raises(DataError, match="molecule 'm' has arrays"):
            read_feature_cache(tmp_path / "c.bin")

    @pytest.mark.parametrize("half", ["eigenvalues", "eigenvectors"])
    def test_half_a_spectrum_rejected(self, tmp_path, half):
        arrays = dict(self._one_molecule(), **{f"m/{half}": np.eye(2)})
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, arrays, self.ONE)
        with pytest.raises(DataError, match="re-run featurize"):
            read_feature_cache(tmp_path / "c.bin")

    def test_count_mismatch_rejected(self, tmp_path):
        header = {"molecules": [["m", []], ["n", []]]}
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, self._one_molecule(), header)
        with pytest.raises(DataError, match="holds 1 molecules, its header lists 2"):
            read_feature_cache(tmp_path / "c.bin")

    @pytest.mark.parametrize("header", [{}, {"molecules": 3}, {"molecules": [["m"]]}])
    def test_missing_or_malformed_molecule_list_rejected(self, tmp_path, header):
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, self._one_molecule(), header)
        with pytest.raises(DataError, match="no valid molecule list.*re-run featurize"):
            read_feature_cache(tmp_path / "c.bin")

    @pytest.mark.parametrize("name, values", [
        ("m/xyz", np.zeros((3, 3))),          # one row per atom expected
        ("m/xyz", np.zeros((2, 2))),
        ("m/bonds", np.array([[0.0, 1.0, 1.0]])),
    ])
    def test_wrong_coordinate_or_bond_shape_rejected(self, tmp_path, name, values):
        arrays = dict(self._one_molecule(), **{name: values})
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, arrays, self.ONE)
        with pytest.raises(DataError, match="wrong shape; re-run featurize"):
            read_feature_cache(tmp_path / "c.bin")

    @pytest.mark.parametrize("name, values", [
        ("m/matrix", np.eye(3)),              # (n, n) expected
        ("m/matrix", np.ones(2)),
        ("m/z", np.array([[1.0], [1.0]])),    # (n,) expected
        ("m/eigenvalues", np.zeros(3)),
        ("m/eigenvalues", np.zeros((2, 2))),
        ("m/eigenvectors", np.eye(3)),
        ("m/eigenvectors", np.zeros((2, 1))),
    ])
    def test_wrong_matrix_or_spectrum_shape_rejected(self, tmp_path, name, values):
        spectrum = {"m/eigenvalues": np.zeros(2), "m/eigenvectors": np.eye(2)}
        arrays = {**self._one_molecule(), **spectrum, name: values}
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, arrays, self.ONE)
        with pytest.raises(DataError, match=f"{name[2:]}.*wrong shape; re-run featurize"):
            read_feature_cache(tmp_path / "c.bin")

    def test_spectrum_of_the_right_shape_reads(self, tmp_path):
        spectrum = {"m/eigenvalues": np.zeros(2), "m/eigenvectors": np.eye(2)}
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, dict(self._one_molecule(), **spectrum),
                     self.ONE)
        _, got = read_feature_cache(tmp_path / "c.bin")
        assert got["m"].spectrum.eigenvectors.shape == (2, 2)

    @pytest.mark.parametrize("z", [[1.5, 1.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_atomic_numbers_not_whole_rejected(self, tmp_path, z):
        arrays = dict(self._one_molecule(), **{"m/z": np.array(z)})
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, arrays, self.ONE)
        with pytest.raises(DataError, match="not whole numbers; re-run featurize"):
            read_feature_cache(tmp_path / "c.bin")

    def test_previous_layout_asks_for_featurize(self, tmp_path):
        header = json.dumps({"count": 0}).encode("utf-8")
        path = tmp_path / "old.cache"
        path.write_bytes(b"MPEC0002" + struct.pack("<I", len(header)) + header)
        with pytest.raises(DataError, match=r"bad magic.*re-run featurize"):
            read_feature_cache(path)

    def test_checkpoint_is_not_a_cache(self, tmp_path):
        _write_checkpoint(tmp_path / "ck.bin")
        with pytest.raises(DataError, match="not a feature cache"):
            read_feature_cache(tmp_path / "ck.bin")


class TestFailedWriteKeepsPreviousFile:
    def _assert_unchanged(self, path, before):
        assert path.read_bytes() == before
        assert not list(path.parent.glob("*.tmp"))

    def test_checkpoint_survives_failing_array(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        _write_checkpoint(path)
        before = path.read_bytes()
        with pytest.raises(OSError):
            save_checkpoint(path, {"a.w": np.ones((3, 2)), "z": Exploding()}, {"epoch": 9})
        self._assert_unchanged(path, before)
        load_checkpoint(path)

    def test_cache_survives_failing_array(self, tmp_path):
        path = tmp_path / "features.cache"
        _write_cache(path)
        before = path.read_bytes()
        good = featurize_molecule(random_molecule(np.random.default_rng(3), "a"),
                                  "coulomb-gcn")
        bad = MolFeatures("b", "coulomb-gcn", good.atomic_numbers, Exploding(),
                          good.molecule)
        with pytest.raises(OSError):
            write_feature_cache(path, [good, bad], {"variant": "coulomb-gcn"})
        self._assert_unchanged(path, before)

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_failing_replace_keeps_previous_file(self, tmp_path, monkeypatch, name):
        write, _ = FILES[name]
        path = tmp_path / "artifact.bin"
        write(path)
        before = path.read_bytes()

        def no_replace(src, dst):
            raise OSError(errno.EIO, "replace failed")

        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(OSError, match="replace failed"):
            write(path)
        self._assert_unchanged(path, before)

    def test_text_block_error_keeps_previous_file(self, tmp_path):
        path = tmp_path / "split.json"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with replacing(path) as handle:
                handle.write("half")
                raise RuntimeError("interrupted")
        self._assert_unchanged(path, b"old\n")

    def test_new_file_not_created_on_error(self, tmp_path):
        path = tmp_path / "fresh.csv"
        with pytest.raises(OSError):
            write_csv(path, "h", ["a"], [[Exploding()]])
        assert not path.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestWriteCsv:
    def test_cells_and_exact_float_round_trip(self, tmp_path):
        third = 1.0 / 3.0
        tiny = np.float64(5e-324)
        write_csv(tmp_path / "t.csv", "cafe", ["name", "a", "b", "c", "d"],
                  [["x", None, third, tiny, 7], ["y", 0.1, -0.0, np.float64(1e300), -2]])
        lines = (tmp_path / "t.csv").read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "# config_hash=cafe"
        assert lines[1] == "name,a,b,c,d"
        assert lines[2] == f"x,,{third!r},5e-324,7"
        assert lines[3] == "y,0.1,-0.0,1e+300,-2"
        assert lines[4] == ""  # every line, the last included, ends in "\n"
        cells = lines[2].split(",")
        assert float(cells[2]) == third and float(cells[3]) == tiny
        assert np.float64(float(lines[3].split(",")[3])) == np.float64(1e300)

    def test_header_only_when_no_rows(self, tmp_path):
        write_csv(tmp_path / "h.csv", "0", ("epoch", "train_loss"), [])
        assert (tmp_path / "h.csv").read_text() == "# config_hash=0\nepoch,train_loss\n"
