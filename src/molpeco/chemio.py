"""Molecule ingestion, label vocabulary management, dataset cleaning, and
multi-label stratified splitting.

Input is JSONL with one molecule per line:

    {"id": str, "atoms": [[symbol_or_Z, x, y, z], ...],
     "bonds": [[i, j], ...] (optional), "labels": [str, ...]}

Coordinates are in Angstrom. Datasets are immutable after construction.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .checkpoints import replacing
from .errors import ConflictError, DataError, ParseError

DEFAULT_MAX_ATOMS = 80
# bounds of the split's label-ratio repair: swaps, and candidates per swap
REPAIR_MAX_SWAPS = 800
REPAIR_SCAN_LIMIT = 200

# Symbols for elements 1..86 (hydrogen through radon). Unknown symbols in
# input are an error; heavier elements must be given as integers < Z_max.
_ELEMENT_SYMBOLS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca "
    "Sc Ti V Cr Mn Fe Co Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr "
    "Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La Ce Pr Nd "
    "Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg "
    "Tl Pb Bi Po At Rn"
).split()

SYMBOL_TO_Z = {symbol: z for z, symbol in enumerate(_ELEMENT_SYMBOLS, start=1)}
_JSON_NUMBERS = frozenset((int, float))


@dataclass(frozen=True)
class Atom:
    """A nucleus: atomic number (charge Z) and 3D position in Angstrom."""

    atomic_number: int
    position: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.atomic_number < 1:
            raise DataError(f"atomic number must be >= 1, got {self.atomic_number}")
        p = self.position
        if len(p) != 3 or not (math.isfinite(p[0]) and math.isfinite(p[1])
                               and math.isfinite(p[2])):
            raise DataError(f"atom position must be a finite 3-vector, got {p}")


@dataclass(frozen=True)
class Molecule:
    """One molecule: ordered atoms, optional bond list, descriptor labels."""

    id: str
    atoms: tuple[Atom, ...]
    bonds: Optional[tuple[tuple[int, int], ...]] = None
    labels: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        n = len(self.atoms)
        if n < 1:
            raise DataError(f"molecule '{self.id}' has no atoms")
        if self.bonds is not None:
            for i, j in self.bonds:
                if not (0 <= i < n and 0 <= j < n) or i == j:
                    raise DataError(
                        f"molecule '{self.id}' has invalid bond ({i}, {j}) for {n} atoms"
                    )

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def atomic_numbers(self) -> np.ndarray:
        return np.array([a.atomic_number for a in self.atoms], dtype=np.int64)

    def coordinates(self) -> np.ndarray:
        flat = itertools.chain.from_iterable(a.position for a in self.atoms)
        return np.fromiter(flat, np.float64, 3 * len(self.atoms)).reshape(-1, 3)


@dataclass(frozen=True)
class LabelVocabulary:
    """Fixed, ordered descriptor list; index i is the column contract for
    the binary target matrix."""

    descriptors: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.descriptors)) != len(self.descriptors):
            raise DataError("descriptor names must be unique")
        if len(self.counts) != len(self.descriptors):
            raise DataError("counts must align with descriptors")

    def __len__(self) -> int:
        return len(self.descriptors)


class Dataset:
    """Rows plus their binary target matrix under a fixed vocabulary.

    A row is anything with an ``id`` and ``labels``: a ``Molecule`` before
    featurize, its ``features.MolFeatures`` after. The rows are kept in
    ``molecules``. Immutable after construction; the target matrix is
    write-protected.
    """

    def __init__(self, molecules: Sequence, vocabulary: LabelVocabulary,
                 targets: np.ndarray):
        if targets.shape != (len(molecules), len(vocabulary)):
            raise DataError(
                f"targets shape {targets.shape} does not match "
                f"{len(molecules)} molecules x {len(vocabulary)} descriptors"
            )
        self.molecules = tuple(molecules)
        self.vocabulary = vocabulary
        targets = np.ascontiguousarray(targets, dtype=np.uint8)
        targets.flags.writeable = False
        self.targets = targets

    def __len__(self) -> int:
        return len(self.molecules)

    @property
    def num_descriptors(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test index lists covering a dataset.

    ``load_split`` checks that a split file keeps this contract; a Split
    built in memory is taken as it is.
    """

    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]
    seed: int

    def parts(self) -> dict[str, tuple[int, ...]]:
        return {"train": self.train, "val": self.val, "test": self.test}


def build_dataset(molecules: Sequence) -> Dataset:
    """Assemble a Dataset of rows with ``id`` and ``labels`` (molecules or
    their features), building the vocabulary from the union of observed
    labels, sorted lexicographically."""
    descriptors = sorted(set().union(*(m.labels for m in molecules)) if molecules else set())
    index = {name: i for i, name in enumerate(descriptors)}
    targets = np.zeros((len(molecules), len(descriptors)), dtype=np.uint8)
    for row, mol in enumerate(molecules):
        for name in mol.labels:
            targets[row, index[name]] = 1
    counts = tuple(int(c) for c in targets.sum(axis=0))
    vocab = LabelVocabulary(tuple(descriptors), counts)
    return Dataset(molecules, vocab, targets)


def _atom_from_record(entry, mol_id: str, line_no: int) -> Atom:
    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise ParseError(
            f"line {line_no}: atom entry of molecule '{mol_id}' must be "
            f"[symbol_or_Z, x, y, z], got {entry!r}"
        )
    element, x, y, z = entry
    if isinstance(element, str):
        if element not in SYMBOL_TO_Z:
            raise ParseError(f"line {line_no}: unknown element symbol '{element}' "
                             f"in molecule '{mol_id}'")
        atomic_number = SYMBOL_TO_Z[element]
    elif isinstance(element, int) and not isinstance(element, bool):
        atomic_number = element
    else:
        raise ParseError(f"line {line_no}: element must be a symbol or integer, "
                         f"got {element!r}")
    if not {type(x), type(y), type(z)} <= _JSON_NUMBERS:  # type(): a bool is no number
        raise ParseError(f"line {line_no}: molecule '{mol_id}': coordinates must be "
                         f"JSON numbers, got {entry[1:]!r}")
    try:  # Atom checks the atomic number and that the coordinates are finite
        return Atom(atomic_number, (float(x), float(y), float(z)))
    except (DataError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ParseError(f"line {line_no}: molecule '{mol_id}': {exc}") from None


def parse_molecules(path, max_atoms: int = DEFAULT_MAX_ATOMS) -> Dataset:
    """Parse a JSONL molecule file into a Dataset.

    Raises ParseError naming the line for malformed records, and DataError
    naming the molecule for atom counts above ``max_atoms``.
    """
    molecules: list[Molecule] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {line_no}: malformed JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ParseError(f"line {line_no}: record must be a JSON object")
            missing = {"id", "atoms", "labels"} - record.keys()
            if missing:
                raise ParseError(f"line {line_no}: record missing keys {sorted(missing)}")
            mol_id = record["id"]
            if not isinstance(mol_id, str) or not mol_id:
                raise ParseError(f"line {line_no}: 'id' must be a non-empty string")
            # ids are written unquoted into embedding CSVs, whose reader
            # drops '#' lines and splits rows at commas
            if mol_id.startswith("#") or any(c in mol_id for c in ',"\r\n'):
                raise ParseError(f"line {line_no}: id {mol_id!r} must not start with '#' "
                                 "or contain a comma, a double quote or a line break")
            raw_atoms = record["atoms"]
            if not isinstance(raw_atoms, list) or not raw_atoms:
                raise ParseError(f"line {line_no}: molecule '{mol_id}' needs >= 1 atom")
            if len(raw_atoms) > max_atoms:
                raise DataError(
                    f"molecule '{mol_id}' has {len(raw_atoms)} atoms, "
                    f"above the limit of {max_atoms} (line {line_no})"
                )
            atoms = tuple(_atom_from_record(a, mol_id, line_no) for a in raw_atoms)
            bonds = None
            if record.get("bonds") is not None:
                raw_bonds = record["bonds"]
                if not isinstance(raw_bonds, list) or not all(
                        type(b) is list and len(b) == 2 and type(b[0]) is int
                        and type(b[1]) is int for b in raw_bonds):
                    raise ParseError(f"line {line_no}: molecule '{mol_id}': 'bonds' must "
                                     "be a list of [i, j] JSON integers")
                bonds = tuple(map(tuple, raw_bonds))
            labels = record["labels"]
            if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
                raise ParseError(f"line {line_no}: 'labels' must be a list of strings")
            try:  # Molecule checks that each bond joins two of its atoms
                molecules.append(Molecule(mol_id, atoms, bonds, frozenset(labels)))
            except DataError as exc:
                raise ParseError(f"line {line_no}: {exc}") from None
    return build_dataset(molecules)


def serialize_molecules(ds: Dataset, path) -> None:
    """Write a Dataset back to JSONL; parse(serialize(ds)) reproduces ds."""
    with replacing(path) as handle:
        for mol in ds.molecules:
            record: dict = {
                "id": mol.id,
                "atoms": [[a.atomic_number, *a.position] for a in mol.atoms],
            }
            if mol.bonds is not None:
                record["bonds"] = [list(b) for b in mol.bonds]
            record["labels"] = sorted(mol.labels)
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def merge_duplicates(ds: Dataset) -> Dataset:
    """Merge molecules sharing an id: labels become the union of the label
    sets. Duplicates must carry identical atom lists."""
    by_id: dict[str, Molecule] = {}
    order: list[str] = []
    for mol in ds.molecules:
        seen = by_id.get(mol.id)
        if seen is None:
            by_id[mol.id] = mol
            order.append(mol.id)
            continue
        if seen.atoms != mol.atoms:
            raise ConflictError(
                f"duplicate molecule id '{mol.id}' with differing atom lists"
            )
        bonds = seen.bonds if seen.bonds is not None else mol.bonds
        by_id[mol.id] = Molecule(mol.id, seen.atoms, bonds, seen.labels | mol.labels)
    return build_dataset([by_id[mol_id] for mol_id in order])


def filter_conflicts(ds: Dataset,
                     conflict_labels: Iterable[str] = ("odorless",)) -> Dataset:
    """Drop molecules that carry a conflicting descriptor alongside any
    other descriptor.

    Each name in ``conflict_labels`` is treated as incompatible with every
    other label; a molecule with such a label plus at least one more label
    is removed.
    """
    conflicts = frozenset(conflict_labels)
    kept = [
        mol for mol in ds.molecules
        if not (mol.labels & conflicts and len(mol.labels) > 1)
    ]
    return build_dataset(kept)


def filter_rare_descriptors(ds: Dataset, min_count: int = 30,
                            drop_zero_label: bool = False) -> Dataset:
    """Remove descriptors with fewer than ``min_count`` positive molecules
    and re-project the target matrix.

    Molecules left with zero labels are retained by default (they act as
    pure negatives); pass ``drop_zero_label=True`` to remove them.
    """
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    keep = {
        name for name, count in zip(ds.vocabulary.descriptors, ds.vocabulary.counts)
        if count >= min_count
    }
    if not keep:
        raise DataError(
            f"no descriptor has >= {min_count} positive molecules; "
            "vocabulary would be empty"
        )
    # rows are frozen: one whose labels are all kept is reused as it is
    molecules = [m if m.labels <= keep else replace(m, labels=m.labels & keep)
                 for m in ds.molecules]
    if drop_zero_label:
        molecules = [m for m in molecules if m.labels]
        if not molecules:
            raise DataError("all molecules dropped: none carries a retained descriptor")
    return build_dataset(molecules)


def _label_pairs(label_indices: Sequence[int]) -> list[tuple[int, int]]:
    # Order-2 stratification keys: unordered label pairs with replacement,
    # so a single-label sample contributes the pair (l, l).
    return list(itertools.combinations_with_replacement(sorted(label_indices), 2))


def _repair_label_ratios(targets: np.ndarray, assigned: np.ndarray) -> None:
    """Deterministic local search that re-balances per-label fold ratios.

    Swaps pairs of samples between folds (keeping fold sizes fixed) to
    shrink the worst relative deviation of per-fold label counts from
    their proportional targets; candidate swaps are ranked by the
    (max deviation, sum of squared deviations) pair. The greedy pair-first
    assignment balances label pairs well but lets single-label marginals
    drift once samples are consumed through pair keys; this pass restores
    them.
    """
    n, o = targets.shape
    if o == 0:
        return
    t = targets.astype(np.float64)
    counts = t.sum(axis=0)
    sizes = np.array([np.sum(assigned == f) for f in range(3)], dtype=np.float64)
    desired = np.outer(sizes / n, counts)
    scale = np.maximum(desired, 1e-9)
    fold_counts = np.vstack([t[assigned == f].sum(axis=0) for f in range(3)])

    def score(fc: np.ndarray) -> tuple[float, float]:
        rel = np.abs(fc - desired) / scale
        return round(float(rel.max()), 12), float((rel ** 2).sum())

    current = score(fold_counts)
    stalled = 0
    for _ in range(REPAIR_MAX_SWAPS):
        err = (fold_counts - desired) / scale
        f_over, col = np.unravel_index(np.argmax(np.abs(err)), err.shape)
        over = err[f_over, col] > 0
        best_score, best = current, None
        for f_other in range(3):
            if f_other == f_over:
                continue
            give = np.flatnonzero((assigned == f_over) & (targets[:, col] == over))
            take = np.flatnonzero((assigned == f_other) & (targets[:, col] != over))
            if not len(give) or not len(take):
                continue
            third = [f for f in range(3) if f not in (f_over, f_other)][0]
            rel_third = np.abs(fold_counts[third] - desired[third]) / scale[third]
            third_max = rel_third.max()
            third_ss = (rel_third ** 2).sum()
            for a in give[:REPAIR_SCAN_LIMIT]:
                deltas = t[take] - t[a]
                rel_over = np.abs(fold_counts[f_over] + deltas - desired[f_over]) / scale[f_over]
                rel_other = np.abs(fold_counts[f_other] - deltas - desired[f_other]) / scale[f_other]
                worst = np.round(np.maximum(rel_over.max(axis=1),
                                            np.maximum(rel_other.max(axis=1), third_max)), 12)
                total = (rel_over ** 2).sum(axis=1) + (rel_other ** 2).sum(axis=1) + third_ss
                j = int(np.lexsort((total, worst))[0])
                candidate = (float(worst[j]), float(total[j]))
                if candidate < best_score:
                    best_score, best = candidate, (int(a), int(take[j]), f_other)
        if best is None:
            break
        a, b, f_other = best
        stalled = stalled + 1 if best_score[0] == current[0] else 0
        if stalled > 40:
            break
        assigned[a], assigned[b] = f_other, f_over
        fold_counts[f_over] += t[b] - t[a]
        fold_counts[f_other] -= t[b] - t[a]
        current = best_score


def check_fractions(fractions: Sequence[float]) -> None:
    """Raise DataError unless ``fractions`` are three positive numbers that
    sum to 1."""
    if len(fractions) != 3 or not all(f > 0 for f in fractions):  # NaN fails f > 0
        raise DataError(f"fractions must be three positive numbers, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to 1, got {sum(fractions)!r}")


def stratified_split(ds: Dataset, fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
                     seed: int = 0) -> Split:
    """Second-order iterative stratification into train/val/test.

    Samples are assigned scarcest label pair first; each assignment goes to
    the fold with the largest remaining demand for that pair, breaking ties
    by largest remaining fold capacity, then lowest fold index. Samples
    without labels are placed last by remaining capacity, and a final
    size-preserving swap pass re-balances per-label ratios. Deterministic
    given the seed.
    """
    n = len(ds)
    if n < 3:
        raise DataError(f"dataset of {n} molecules is too small to split three ways")
    check_fractions(fractions)

    targets = ds.targets
    sample_keys: list[list[tuple[int, int]]] = []
    key_to_samples: dict[tuple[int, int], list[int]] = {}
    for idx in range(n):
        keys = _label_pairs(np.flatnonzero(targets[idx]).tolist())
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

    def pick_fold(scores: list[float]) -> int:
        best = max(scores)
        tied = [f for f, s in enumerate(scores) if s == best]
        if len(tied) > 1:
            cap_best = max(capacity[f] for f in tied)
            tied = [f for f in tied if capacity[f] == cap_best]
        return tied[0]

    # pops keys in min((remaining, key)) order: each key with remaining > 0
    # has an entry holding its current count, and stale entries are skipped
    heap = [(count, key) for key, count in remaining.items()]
    heapq.heapify(heap)
    while heap:
        count, scarce_key = heapq.heappop(heap)
        if count != remaining[scarce_key]:
            continue
        for idx in sorted(key_to_samples[scarce_key], key=lambda i: rank[i]):
            if assigned[idx] >= 0:
                continue
            fold = pick_fold(desired[scarce_key])
            assigned[idx] = fold
            capacity[fold] -= 1.0
            for key in sample_keys[idx]:
                desired[key][fold] -= 1.0
                remaining[key] -= 1
                if remaining[key] > 0:
                    heapq.heappush(heap, (remaining[key], key))

    for idx in order:
        if assigned[idx] < 0:
            fold = pick_fold(capacity)
            assigned[idx] = fold
            capacity[fold] -= 1.0

    _repair_label_ratios(targets, assigned)

    folds: list[list[int]] = [[], [], []]
    for idx in range(n):
        folds[assigned[idx]].append(idx)
    return Split(tuple(folds[0]), tuple(folds[1]), tuple(folds[2]), seed)


def save_split(split: Split, path) -> None:
    payload = {"seed": split.seed, "train": list(split.train),
               "val": list(split.val), "test": list(split.test)}
    with replacing(path) as handle:
        json.dump(payload, handle)
        handle.write("\n")


def load_split(path, size: int) -> Split:
    """Read a split file written for a dataset of ``size`` molecules. Its
    parts must hold integers only and cover range(size) exactly once."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        split = Split(tuple(payload["train"]), tuple(payload["val"]),
                      tuple(payload["test"]), int(payload["seed"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid split file '{path}': {exc}") from exc
    indices = [i for part in split.parts().values() for i in part]
    if not all(type(i) is int for i in indices):
        raise DataError(f"split file '{path}' holds indices that are not integers")
    if sorted(indices) != list(range(size)):
        raise DataError(f"split file '{path}' does not cover the dataset's {size} "
                        "molecules exactly once; re-run split")
    return split
