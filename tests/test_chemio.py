"""Ingestion, cleaning, and stratified-splitting behaviour."""

import json

import numpy as np
import pytest

from molpeco import chemio
from molpeco.chemio import (
    Atom,
    Molecule,
    build_dataset,
    filter_conflicts,
    filter_rare_descriptors,
    load_split,
    merge_duplicates,
    parse_molecules,
    save_split,
    serialize_molecules,
    stratified_split,
)
from molpeco.errors import ConflictError, DataError, ParseError

from synthdata import multilabel_set


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


class TestParseMolecules:
    def test_single_record_schema(self, tmp_path):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "m1", "atoms": [["H", 0, 0, 0], ["H", 0, 0, 0.74]],
             "labels": ["odorless"]},
        ])
        ds = parse_molecules(path)
        assert len(ds) == 1
        assert ds.molecules[0].num_atoms == 2
        assert ds.vocabulary.descriptors == ("odorless",)
        assert ds.targets.tolist() == [[1]]

    def test_empty_label_list_gives_zero_row(self, tmp_path):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "m1", "atoms": [["H", 0, 0, 0]], "labels": ["woody"]},
            {"id": "m2", "atoms": [["C", 0, 0, 0]], "labels": []},
        ])
        ds = parse_molecules(path)
        assert len(ds) == 2
        assert ds.targets[1].tolist() == [0]

    def test_atom_count_above_limit_rejected(self, tmp_path):
        atoms = [["H", float(i), 0, 0] for i in range(81)]
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "big", "atoms": atoms, "labels": []},
        ])
        with pytest.raises(DataError, match="big"):
            parse_molecules(path, max_atoms=80)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "ok", "atoms": [["H",0,0,0]], "labels": []}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            parse_molecules(path)

    @pytest.mark.parametrize("mol_id", ["a,b", 'a"b', "a\rb", "a\nb", "#a"])
    def test_id_that_breaks_the_embedding_csv_rejected(self, tmp_path, mol_id):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "ok#1", "atoms": [["H", 0, 0, 0]], "labels": []},
            {"id": mol_id, "atoms": [["H", 0, 0, 0]], "labels": []},
        ])
        with pytest.raises(ParseError, match="line 2"):
            parse_molecules(path)

    def test_unknown_symbol_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "m1", "atoms": [["Xx", 0, 0, 0]], "labels": []},
        ])
        with pytest.raises(ParseError, match="Xx"):
            parse_molecules(path)

    @pytest.mark.parametrize("atom", [["H", 0, "nan", 0], ["H", 0, 0, float("inf")],
                                      [0, 0, 0, 0], ["H", True, 0, 0], ["H", "1.2", 0, 0],
                                      ["H", 0, None, 0], ["H", 10 ** 400, 0, 0]])
    def test_invalid_atom_names_line_and_molecule(self, tmp_path, atom):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "ok", "atoms": [["H", 0, 0, 0]], "labels": []},
            {"id": "bad", "atoms": [["C", 1, 1, 1], atom], "labels": []},
        ])
        with pytest.raises(ParseError, match="line 2: molecule 'bad'"):
            parse_molecules(path)

    @pytest.mark.parametrize("bond", [[0, 1.7], [0, "1"], [True, 1], [0, 1.0], [0],
                                      [0, 1, 1], "01", [0, 2], [1, 1]])
    def test_invalid_bonds_name_line_and_molecule(self, tmp_path, bond):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "ok", "atoms": [["H", 0, 0, 0]], "bonds": [], "labels": []},
            {"id": "bad", "atoms": [["C", 1, 1, 1], ["O", 0, 0, 0]],
             "bonds": [[0, 1], bond], "labels": []},
        ])
        with pytest.raises(ParseError, match="line 2: molecule 'bad'"):
            parse_molecules(path)

    def test_integer_atomic_numbers_accepted(self, tmp_path):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "m1", "atoms": [[8, 0, 0, 0], [1, 0.96, 0, 0]], "labels": []},
        ])
        ds = parse_molecules(path)
        assert ds.molecules[0].atomic_numbers().tolist() == [8, 1]

    def test_vocabulary_sorted_lexicographically(self, tmp_path):
        path = write_jsonl(tmp_path / "m.jsonl", [
            {"id": "m1", "atoms": [["H", 0, 0, 0]], "labels": ["woody", "apple"]},
            {"id": "m2", "atoms": [["C", 0, 0, 0]], "labels": ["green"]},
        ])
        ds = parse_molecules(path)
        assert ds.vocabulary.descriptors == ("apple", "green", "woody")

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        records = []
        for i in range(12):
            n = int(rng.integers(1, 6))
            atoms = [[int(rng.choice([1, 6, 7, 8])), *(float(x) for x in rng.normal(size=3) * 2)]
                     for _ in range(n)]
            record = {"id": f"m{i}", "atoms": atoms,
                      "labels": sorted(rng.choice(["a", "b", "c"], size=rng.integers(0, 3),
                                                  replace=False).tolist())}
            if i % 2:
                record["bonds"] = [[k, k + 1] for k in range(n - 1)]
            records.append(record)
        first = parse_molecules(write_jsonl(tmp_path / "a.jsonl", records))
        serialize_molecules(first, tmp_path / "b.jsonl")
        second = parse_molecules(tmp_path / "b.jsonl")
        assert first.molecules == second.molecules
        assert first.vocabulary == second.vocabulary
        assert np.array_equal(first.targets, second.targets)


class TestMergeDuplicates:
    def _mol(self, mol_id, labels, x=0.0):
        return Molecule(mol_id, (Atom(6, (x, 0.0, 0.0)),), None, frozenset(labels))

    def test_union_of_labels(self):
        ds = build_dataset([self._mol("m1", {"fruity"}), self._mol("m1", {"green"})])
        merged = merge_duplicates(ds)
        assert len(merged) == 1
        assert merged.molecules[0].labels == {"fruity", "green"}

    def test_no_duplicates_is_identity(self):
        ds = build_dataset([self._mol("m1", {"fruity"}), self._mol("m2", {"green"})])
        merged = merge_duplicates(ds)
        assert merged.molecules == ds.molecules
        assert np.array_equal(merged.targets, ds.targets)

    def test_conflicting_coordinates_raise(self):
        ds = build_dataset([self._mol("m1", {"fruity"}), self._mol("m1", {"green"}, x=1.0)])
        with pytest.raises(ConflictError, match="m1"):
            merge_duplicates(ds)


class TestFilterConflicts:
    def test_odorless_with_other_labels_drops_molecule(self):
        mols = [
            Molecule("a", (Atom(6, (0, 0, 0)),), None, frozenset({"odorless", "fruity"})),
            Molecule("b", (Atom(6, (0, 0, 0)),), None, frozenset({"odorless"})),
            Molecule("c", (Atom(6, (0, 0, 0)),), None, frozenset({"fruity"})),
        ]
        filtered = filter_conflicts(build_dataset(mols))
        assert [m.id for m in filtered.molecules] == ["b", "c"]


class TestFilterRareDescriptors:
    def _dataset(self, counts):
        mols = []
        idx = 0
        for name, count in counts.items():
            for _ in range(count):
                mols.append(Molecule(f"m{idx}", (Atom(6, (0, 0, 0)),), None,
                                     frozenset({name})))
                idx += 1
        return build_dataset(mols)

    def test_descriptor_below_threshold_removed(self):
        ds = self._dataset({"common": 30, "rare": 29})
        filtered = filter_rare_descriptors(ds, min_count=30)
        assert filtered.vocabulary.descriptors == ("common",)
        assert len(filtered) == len(ds)  # molecules retained as negatives

    def test_min_count_one_is_identity(self):
        ds = self._dataset({"a": 3, "b": 2})
        filtered = filter_rare_descriptors(ds, min_count=1)
        assert filtered.vocabulary.descriptors == ds.vocabulary.descriptors
        assert np.array_equal(filtered.targets, ds.targets)

    def test_empty_vocabulary_is_error(self):
        ds = self._dataset({"rare": 2})
        with pytest.raises(DataError, match="empty"):
            filter_rare_descriptors(ds, min_count=30)

    def test_idempotent(self):
        ds = self._dataset({"common": 35, "rare": 4})
        once = filter_rare_descriptors(ds, min_count=30)
        twice = filter_rare_descriptors(once, min_count=30)
        assert once.vocabulary == twice.vocabulary
        assert np.array_equal(once.targets, twice.targets)

    def test_drop_zero_label_flag(self):
        ds = self._dataset({"common": 30, "rare": 5})
        filtered = filter_rare_descriptors(ds, min_count=30, drop_zero_label=True)
        assert len(filtered) == 30


class TestStratifiedSplit:
    def test_homogeneous_sizes(self):
        mols = [Molecule(f"m{i}", (Atom(6, (0, 0, 0)),), None, frozenset({"x"}))
                for i in range(10)]
        split = stratified_split(build_dataset(mols), (0.8, 0.1, 0.1), seed=3)
        assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)

    def test_partition_covers_all_indices(self):
        ds = multilabel_set(np.random.default_rng(0), count=200)
        split = stratified_split(ds, (0.8, 0.1, 0.1), seed=11)
        combined = sorted(split.train + split.val + split.test)
        assert combined == list(range(len(ds)))

    def test_deterministic_under_seed(self):
        ds = multilabel_set(np.random.default_rng(1), count=150)
        a = stratified_split(ds, (0.8, 0.1, 0.1), seed=42)
        b = stratified_split(ds, (0.8, 0.1, 0.1), seed=42)
        assert a == b
        c = stratified_split(ds, (0.8, 0.1, 0.1), seed=43)
        assert a != c

    def test_label_ratios_preserved(self):
        # Independent oracle: exhaustively recompute per-fold positive
        # ratios from the target matrix after splitting.
        ds = multilabel_set(np.random.default_rng(5), count=500)
        split = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
        targets = ds.targets
        global_ratio = targets.mean(axis=0)
        for part in (split.train, split.val, split.test):
            part_targets = targets[np.asarray(part)]
            ratio = part_targets.mean(axis=0)
            for col in range(targets.shape[1]):
                if targets[:, col].sum() >= 30:
                    assert abs(ratio[col] - global_ratio[col]) <= 0.2 * global_ratio[col]

    def test_too_small_dataset_rejected(self):
        mols = [Molecule("a", (Atom(6, (0, 0, 0)),), None, frozenset())]
        with pytest.raises(DataError):
            stratified_split(build_dataset(mols), (0.8, 0.1, 0.1), seed=0)

    def test_bad_fractions_rejected(self):
        ds = multilabel_set(np.random.default_rng(2), count=10)
        with pytest.raises(DataError):
            stratified_split(ds, (0.8, 0.1, 0.2), seed=0)

    def test_split_file_round_trip(self, tmp_path):
        ds = multilabel_set(np.random.default_rng(3), count=50)
        split = stratified_split(ds, (0.8, 0.1, 0.1), seed=9)
        save_split(split, tmp_path / "split.json")
        assert load_split(tmp_path / "split.json", 50) == split

    @pytest.mark.parametrize("entry", [1.0, True, "1"])
    def test_split_file_with_non_integer_index_rejected(self, tmp_path, entry):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"seed": 0, "train": [0, entry], "val": [2],
                                    "test": [3]}), encoding="utf-8")
        with pytest.raises(DataError, match="not integers"):
            load_split(path, 4)


def _min_scan_split(ds, fractions, seed):
    """``stratified_split`` as it was before it kept the label-pair keys in
    a heap: each step rescans every key for the minimum (remaining, key)."""
    n = len(ds)
    targets = ds.targets
    sample_keys, key_to_samples = [], {}
    for idx in range(n):
        keys = chemio._label_pairs(np.flatnonzero(targets[idx]).tolist())
        sample_keys.append(keys)
        for key in keys:
            key_to_samples.setdefault(key, []).append(idx)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    capacity = [n * f for f in fractions]
    desired = {key: [len(samples) * f for f in fractions]
               for key, samples in key_to_samples.items()}
    remaining = {key: len(samples) for key, samples in key_to_samples.items()}
    assigned = np.full(n, -1, dtype=np.int64)

    def pick_fold(scores):
        best = max(scores)
        tied = [f for f, s in enumerate(scores) if s == best]
        if len(tied) > 1:
            cap_best = max(capacity[f] for f in tied)
            tied = [f for f in tied if capacity[f] == cap_best]
        return tied[0]

    while True:
        active = [(count, key) for key, count in remaining.items() if count > 0]
        if not active:
            break
        _, scarce_key = min(active)
        for idx in sorted(key_to_samples[scarce_key], key=lambda i: rank[i]):
            if assigned[idx] >= 0:
                continue
            fold = pick_fold(desired[scarce_key])
            assigned[idx] = fold
            capacity[fold] -= 1.0
            for key in sample_keys[idx]:
                desired[key][fold] -= 1.0
                remaining[key] -= 1
    for idx in order:
        if assigned[idx] < 0:
            fold = pick_fold(capacity)
            assigned[idx] = fold
            capacity[fold] -= 1.0
    chemio._repair_label_ratios(targets, assigned)
    folds = [[], [], []]
    for idx in range(n):
        folds[assigned[idx]].append(idx)
    return chemio.Split(tuple(folds[0]), tuple(folds[1]), tuple(folds[2]), seed)


def _many_descriptor_set(seed, count=300, descriptors=118):
    """Molecules with 0-6 of 118 descriptors drawn with Zipf-like
    frequencies, so many label pairs tie on their counts."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, descriptors + 1)
    atoms = (Atom(6, (0.0, 0.0, 0.0)),)
    molecules = []
    for i in range(count):
        k = int(rng.integers(0, 7))
        chosen = rng.choice(descriptors, size=k, replace=False, p=weights / weights.sum())
        molecules.append(Molecule(f"m{i}", atoms, None,
                                  frozenset(f"d{j:03d}" for j in chosen)))
    return build_dataset(molecules)


class TestScarceKeyOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_assignment_equals_min_scan(self, monkeypatch, seed):
        # without the repair pass the split is the greedy assignment alone
        monkeypatch.setattr(chemio, "_repair_label_ratios", lambda targets, assigned: None)
        ds = _many_descriptor_set(seed)
        assert ds.num_descriptors > 100
        fractions = (0.8, 0.1, 0.1)
        assert stratified_split(ds, fractions, seed) == _min_scan_split(ds, fractions, seed)

    def test_split_equals_min_scan(self):
        ds = _many_descriptor_set(3)
        fractions = (0.6, 0.2, 0.2)
        assert stratified_split(ds, fractions, 7) == _min_scan_split(ds, fractions, 7)
