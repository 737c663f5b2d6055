"""The artifact layer: the shared binary array layout read strictly by
both the checkpoint and the feature cache, the CSV writer, and writes
that leave the previous file in place when they fail."""

import errno
import json
import os
import struct
import tracemalloc

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

    @pytest.mark.parametrize("where", ["header", "name", "payload", "every cut"])
    def test_truncation_rejected(self, written, where):
        path, read = written
        blob = path.read_bytes()
        end = _header_end(blob)
        cuts = {"header": [end - 3],
                "name": [end + 4 + 4 + 1],  # count, name length, one name byte
                "payload": [len(blob) - 1],
                "every cut": range(1, len(blob))}[where]
        for cut in cuts:
            path.write_bytes(blob[:cut])
            # a cut inside the magic leaves no magic to recognise
            with pytest.raises(DataError, match="truncated" if cut >= 8 else "bad magic"):
                read(path)

    def test_dims_beyond_the_file_rejected_before_allocating(self, written):
        path, read = written
        blob = bytearray(path.read_bytes())
        end = _header_end(blob)
        (name_len,) = struct.unpack_from("<I", blob, end + 4)
        # the first array's first dim, after the count, its name and its ndim
        struct.pack_into("<I", blob, end + 4 + 4 + name_len + 4, 2 ** 32 - 1)
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated"):
                read(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("fault", ["repeated name", "out-of-order name"])
    def test_names_not_strictly_ascending_rejected(self, written, fault):
        # the second array takes the first one's name, or the two swap
        # names; a reader keeping the last of two equal names would load
        # fewer arrays than the count field says
        path, read = written
        blob = path.read_bytes()
        offset, names = _header_end(blob) + 4, []
        for _ in range(2):
            (name_len,) = struct.unpack_from("<I", blob, offset)
            names.append((offset, blob[offset:offset + 4 + name_len]))
            offset += 4 + name_len
            (ndim,) = struct.unpack_from("<I", blob, offset)
            shape = struct.unpack_from(f"<{ndim}I", blob, offset + 4)
            offset += 4 + 4 * ndim + 8 * int(np.prod(shape))
        (first_at, first), (second_at, second) = names
        renamed = (first, first) if fault == "repeated name" else (second, first)
        path.write_bytes(blob[:first_at] + renamed[0] + blob[first_at + len(first):second_at]
                         + renamed[1] + blob[second_at + len(second):])
        with pytest.raises(DataError, match="corrupt"):
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


def test_read_arrays_returns_read_only_aligned_arrays_that_share_no_memory(tmp_path):
    # checkpoints load into writable copies (MolPecoModel.load_state), and
    # the feature cache hands out read-only views
    rng = np.random.default_rng(4)
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=5),
              "empty": np.zeros((0, 2)), "last": rng.normal(size=(2, 2, 2)),
              "scalar": np.array(2.5), "transposed": rng.normal(size=(2, 3)).T}
    write_arrays(tmp_path / "a.bin", b"TEST0001", arrays, {})
    _, read = read_arrays(tmp_path / "a.bin", b"TEST0001", "test file")
    assert {name: value.tobytes() for name, value in read.items()} == \
        {name: value.tobytes() for name, value in arrays.items()}
    for name, value in read.items():
        assert not value.flags.writeable
        assert value.flags.owndata and value.flags.aligned
        assert value.shape == arrays[name].shape
        for other in read.values():
            assert other is value or not np.shares_memory(value, other)


def test_cache_read_holds_each_array_once(tmp_path):
    # 470 molecules of 30 atoms with spectra: about 7 MB. A read that held
    # the file's bytes beside the arrays would peak at twice its size.
    n, count = 30, 470
    rng = np.random.default_rng(6)
    arrays = {"matrix": rng.normal(size=count * n * n), "z": np.ones(count * n),
              "eigenvalues": rng.normal(size=count * n),
              "eigenvectors": rng.normal(size=count * n * n)}
    entries = [[f"m{i}", ["x"], n] for i in range(count)]
    path = tmp_path / "c.bin"
    write_arrays(path, CACHE_MAGIC, arrays, {"molecules": entries})
    del arrays
    tracemalloc.start()
    try:
        read_feature_cache(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_array_written_in_parts_reads_as_one(tmp_path):
    # (shape, parts) writes the parts' values in turn, never concatenated
    rng = np.random.default_rng(5)
    whole = rng.normal(size=(5, 3))
    parts = [whole[:2], whole[2:2], whole[2:].T.copy().T]  # the last one not C-ordered
    write_arrays(tmp_path / "p.bin", b"TEST0001", {"a": ((5, 3), parts)}, {})
    write_arrays(tmp_path / "w.bin", b"TEST0001", {"a": whole}, {})
    assert (tmp_path / "p.bin").read_bytes() == (tmp_path / "w.bin").read_bytes()


@pytest.mark.parametrize("parts", [[np.ones(2)], [np.ones(2), np.ones(2)]])
def test_parts_that_miss_their_shape_are_not_written(tmp_path, parts):
    with pytest.raises(ValueError, match="of shape \\(3,\\) got"):
        write_arrays(tmp_path / "p.bin", b"TEST0001", {"a": ((3,), parts)}, {})
    assert list(tmp_path.iterdir()) == []


class TestFeatureCacheStructure:
    # molecule "m": 2 atoms; molecule "n": 1 atom
    ENTRIES = [["m", ["x"], 2], ["n", [], 1]]

    def _arrays(self, spectrum=False):
        arrays = {"matrix": np.array([1.0, 0.0, 0.0, 1.0, 5.0]),  # 2 x 2, then 1 x 1
                  "z": np.array([1.0, 1.0, 8.0])}
        if spectrum:
            arrays.update(eigenvalues=np.array([0.0, 2.0, 0.0]),
                          eigenvectors=np.array([1.0, 2.0, 3.0, 4.0, 1.0]))
        return arrays

    def _read(self, tmp_path, arrays, header=None):
        header = {"molecules": self.ENTRIES} if header is None else header
        write_arrays(tmp_path / "c.bin", CACHE_MAGIC, arrays, header)
        return read_feature_cache(tmp_path / "c.bin")[1]

    def test_minimal_cache_reads(self, tmp_path):
        got = self._read(tmp_path, self._arrays())
        assert list(got) == ["m", "n"]
        m, n = got["m"], got["n"]
        assert (m.id, n.id) == ("m", "n")
        assert m.atomic_numbers.tolist() == [1, 1] and n.atomic_numbers.tolist() == [8]
        assert m.atomic_numbers.dtype == np.int64
        assert m.labels == {"x"} and n.labels == frozenset()
        assert got["m"].matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert got["n"].matrix.tolist() == [[5.0]]
        assert got["m"].spectrum is None and got["n"].spectrum is None

    @pytest.mark.parametrize("drop", ["matrix", "z"])
    def test_missing_field_rejected(self, tmp_path, drop):
        arrays = self._arrays()
        del arrays[drop]
        with pytest.raises(DataError, match="has arrays .*, not .*; re-run featurize"):
            self._read(tmp_path, arrays)

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(DataError, match="has arrays .*, not .*; re-run featurize"):
            self._read(tmp_path, dict(self._arrays(), extra=np.zeros(3)))

    @pytest.mark.parametrize("half", ["eigenvalues", "eigenvectors"])
    def test_half_a_spectrum_rejected(self, tmp_path, half):
        arrays = dict(self._arrays(), **{half: self._arrays(spectrum=True)[half]})
        with pytest.raises(DataError, match="has arrays .*, not .*; re-run featurize"):
            self._read(tmp_path, arrays)

    @pytest.mark.parametrize("entries, wrong", [
        ([*ENTRIES, ["o", [], 1]], "matrix', 'z"),  # one molecule more
        (ENTRIES[:1], "matrix', 'z"),                # one molecule less
        ([["m", ["x"], 2], ["n", [], 2]], "matrix', 'z"),
        ([["m", ["x"], 3]], "matrix"),                # the same atoms, other squares
    ])
    def test_count_mismatch_rejected(self, tmp_path, entries, wrong):
        with pytest.raises(DataError, match=f"\\['{wrong}'\\] of the wrong shape"):
            self._read(tmp_path, self._arrays(), {"molecules": entries})

    @pytest.mark.parametrize("header", [
        {}, {"molecules": 3}, {"molecules": [["m"]]}, {"molecules": [["m", ["x"]]]},
        {"molecules": [["m", ["x"], 2, 1]]}, {"molecules": [["m", "x", 2]]},
        {"molecules": [[7, ["x"], 2]]}, {"molecules": [["m", [7], 2]]},
        {"molecules": [["m", ["x"], 0]]}, {"molecules": [["m", ["x"], -1]]},
        {"molecules": [["m", ["x"], 2.0]]}, {"molecules": [["m", ["x"], True]]},
        {"molecules": ["m"]}, ["molecules"],
    ], ids=repr)
    def test_missing_or_malformed_molecule_list_rejected(self, tmp_path, header):
        with pytest.raises(DataError, match="no valid molecule list.*re-run featurize"):
            self._read(tmp_path, self._arrays(), header)

    def test_repeated_id_rejected(self, tmp_path):
        entries = [["m", ["x"], 2], ["m", [], 1]]
        with pytest.raises(DataError, match="lists a molecule id more than once"):
            self._read(tmp_path, self._arrays(), {"molecules": entries})

    @pytest.mark.parametrize("name, values", [
        ("matrix", np.ones(4)),               # sum of n^2 = 5 expected
        ("matrix", np.ones((5, 1))),
        ("z", np.array([[1.0], [1.0], [8.0]])),
        ("z", np.ones(4)),                    # sum of n = 3 expected
        ("eigenvalues", np.zeros(5)),         # sum of n = 3 expected
        ("eigenvalues", np.zeros((3, 1))),
        ("eigenvectors", np.zeros(3)),        # sum of n^2 = 5 expected
        ("eigenvectors", np.zeros((5, 1))),
    ])
    def test_wrong_shape_rejected(self, tmp_path, name, values):
        arrays = dict(self._arrays(spectrum=True), **{name: values})
        with pytest.raises(DataError, match=f"\\['{name}'\\] of the wrong shape.*re-run"):
            self._read(tmp_path, arrays)

    def test_spectrum_of_the_right_shape_reads(self, tmp_path):
        got = self._read(tmp_path, self._arrays(spectrum=True))
        assert got["m"].spectrum.eigenvalues.tolist() == [0.0, 2.0]
        assert got["m"].spectrum.eigenvectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert got["n"].spectrum.eigenvectors.tolist() == [[1.0]]
        assert not got["m"].spectrum.eigenvectors.flags.writeable

    @pytest.mark.parametrize("z", [[1.5, 1.0, 8.0], [1.0, 1.0, np.nan], [np.inf, 1.0, 8.0]])
    def test_atomic_numbers_not_whole_rejected(self, tmp_path, z):
        with pytest.raises(DataError, match="atomic numbers that are not whole numbers; re-run"):
            self._read(tmp_path, dict(self._arrays(), z=np.array(z)))

    @pytest.mark.parametrize("magic", [b"MPEC0002", b"MPEC0003", b"MPEC0004"])
    def test_previous_layout_asks_for_featurize(self, tmp_path, magic):
        header = json.dumps({"count": 0}).encode("utf-8")
        path = tmp_path / "old.cache"
        path.write_bytes(magic + struct.pack("<I", len(header)) + header)
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
        bad = MolFeatures("b", "coulomb-gcn", good.atomic_numbers, Exploding(), frozenset())
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
