"""Seeded synthetic inputs for the benchmark.

Molecules are odorant-sized (10-60 atoms with explicit hydrogens and a
bond list). Their descriptors are functions of structure (element
presence, atom count, spatial extent), so a model can learn them. On top
of that the corpus carries the cases the cleaning steps exist for:
duplicate ids whose labels merge by union, ``odorless`` paired with other
descriptors, and descriptors too rare to keep. The generator returns its
own records, so checks can recount the cleaning without the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

ATOM_RANGE = (10, 60)
# Share of molecules that contain each hetero element, and how many
# atoms of it they carry; the other heavy atoms are carbon.
HETERO = {"O": (0.5, 3), "N": (0.3, 2), "S": (0.2, 1)}
VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2}
BOND_LENGTH = {"H": 1.09, "heavy": 1.5}
MIN_HEAVY_DISTANCE = 1.25
MIN_ANY_DISTANCE = 0.9
EXTENT_THRESHOLD = 9.0  # Angstrom; "balsamic" marks larger diameters

# Frequent descriptors and the structural rule that sets each one.
RULES = {
    "sulfurous": lambda s: "S" in s["elements"],
    "fishy": lambda s: "N" in s["elements"],
    "fruity": lambda s: "O" in s["elements"] and s["n"] < 35,
    "green": lambda s: s["n"] < 22,
    "woody": lambda s: s["n"] >= 40,
    "balsamic": lambda s: s["diameter"] >= EXTENT_THRESHOLD,
}
RARE_DESCRIPTORS = ("camphoreous", "metallic", "smoky")
CONFLICT_LABEL = "odorless"


def _unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _place(rng, coords, anchor, length, min_dist, tries=24):
    """A point ``length`` from ``anchor`` at least ``min_dist`` from every
    placed atom, or None after ``tries`` random directions."""
    candidates = anchor + length * _unit_vectors(rng, tries)
    if not coords:
        return candidates[0]
    placed = np.asarray(coords)
    dist = np.linalg.norm(candidates[:, None, :] - placed[None, :, :], axis=2)
    ok = np.flatnonzero(dist.min(axis=1) >= min_dist)
    return candidates[ok[0]] if ok.size else None


def random_structure(rng: np.random.Generator, target: int) -> dict:
    """One molecule of ``target`` atoms: a random tree of heavy atoms with
    hydrogens on free valences (on any atom once those run out),
    coordinates rounded to 1e-4 Angstrom."""
    heavy_count = max(3, int(round(target * rng.uniform(0.35, 0.5))))
    heavy = ["C"] * heavy_count
    slots = rng.permutation(np.arange(1, heavy_count))
    used = 0
    for element, (share, most) in HETERO.items():
        if rng.random() < share:
            count = int(rng.integers(1, most + 1))
            for slot in slots[used:used + count]:
                heavy[slot] = element
            used += count
    elements: list[str] = []
    coords: list[np.ndarray] = []
    bonds: list[tuple[int, int]] = []
    free: list[int] = []
    while len(elements) < heavy_count:
        element = heavy[len(elements)]
        if not elements:
            point, anchor = np.zeros(3), None
        else:
            open_atoms = [i for i in range(len(elements)) if free[i] > 0]
            if not open_atoms:
                break
            anchor = open_atoms[int(rng.integers(len(open_atoms)))]
            point = _place(rng, coords, coords[anchor], BOND_LENGTH["heavy"],
                           MIN_HEAVY_DISTANCE)
            if point is None:
                free[anchor] = 0
                continue
        elements.append(element)
        coords.append(point)
        free.append(VALENCE[element])
        if anchor is not None:
            bonds.append((anchor, len(elements) - 1))
            free[anchor] -= 1
            free[-1] -= 1
    placed_heavy = len(elements)
    while len(elements) < target:
        open_atoms = ([i for i in range(placed_heavy) if free[i] > 0]
                      or list(range(len(elements))))
        anchor = open_atoms[int(rng.integers(len(open_atoms)))]
        point = _place(rng, coords, coords[anchor], BOND_LENGTH["H"], MIN_ANY_DISTANCE)
        if anchor < placed_heavy:
            free[anchor] = free[anchor] - 1 if point is not None else 0
        if point is None:
            continue
        elements.append("H")
        coords.append(point)
        bonds.append((anchor, len(elements) - 1))
    xyz = np.round(np.asarray(coords), 4)
    diff = xyz[:, None, :] - xyz[None, :, :]
    diameter = float(np.sqrt((diff ** 2).sum(axis=2)).max())
    return {"elements": elements, "coords": xyz, "bonds": bonds,
            "n": len(elements), "diameter": diameter}


def structure_labels(structure: dict) -> list[str]:
    return sorted(name for name, rule in RULES.items() if rule(structure))


def make_molecule_corpus(seed: int, count: int,
                         min_label_count: int) -> tuple[list[dict], dict]:
    """Records in file order, plus the structures by id.

    The atom counts are the same evenly spread multiset of 10-60 for
    every seed (60 three times), and so are the sizes of the special cases below, so the
    work a corpus costs hardly depends on the seed. 5% of molecules pair
    ``odorless`` with their other labels, 2% are ``odorless`` alone, 6%
    more records repeat an earlier id with the same atoms and part of its
    labels (a fifth of them adding ``odorless``), and the rare descriptors
    land on fewer than ``min_label_count`` molecules each.
    """
    rng = np.random.default_rng([seed, 17])
    low, high = ATOM_RANGE
    # the largest size three times over, so that some molecule of the
    # largest size lands in every split part whatever the seed
    sizes = rng.permutation([min(high, low + (high - low) * i // max(1, count - 3))
                             for i in range(count)])
    ids = [f"mol{seed:04d}_{index:05d}" for index in range(count)]
    structures = {mol_id: random_structure(rng, int(n)) for mol_id, n in zip(ids, sizes)}
    labels = {mol_id: structure_labels(s) for mol_id, s in structures.items()}
    labelled = [mol_id for mol_id in ids if labels[mol_id]]
    conflict_count = count * 5 // 100
    alone_count = count * 2 // 100
    repeat_count = count * 6 // 100
    special = rng.choice(labelled, size=conflict_count + alone_count + repeat_count,
                         replace=False)
    conflicted = set(special[:conflict_count])
    alone = set(special[conflict_count:conflict_count + alone_count])
    repeated = special[conflict_count + alone_count:]
    chosen = set(special)
    ordinary = [mol_id for mol_id in ids if mol_id not in chosen]
    records = []
    for mol_id in ids:
        if mol_id in conflicted:
            records.append(_record(mol_id, structures[mol_id],
                                   labels[mol_id] + [CONFLICT_LABEL]))
        elif mol_id in alone:
            records.append(_record(mol_id, structures[mol_id], [CONFLICT_LABEL]))
        else:
            records.append(_record(mol_id, structures[mol_id], labels[mol_id]))
    for position, rare in enumerate(RARE_DESCRIPTORS):
        hits = max(1, min_label_count - 1 - position)
        # kept apart from the special cases, so every seed drops as many
        for mol_id in rng.choice(ordinary, size=hits, replace=False):
            records.append(_record(str(mol_id), structures[str(mol_id)], [rare]))
    for position, mol_id in enumerate(repeated):
        keep = [name for name in labels[mol_id] if rng.random() < 0.5]
        if position < len(repeated) // 5:
            keep.append(CONFLICT_LABEL)
        records.append(_record(str(mol_id), structures[str(mol_id)], keep))
    # each repeat lands somewhere after the first occurrence of its id
    first = {mol_id: float(index) for index, mol_id in enumerate(ids)}
    keys = [first[r["id"]] if i < count else rng.uniform(first[r["id"]] + 0.5, count)
            for i, r in enumerate(records)]
    order = sorted(range(len(records)), key=lambda i: keys[i])
    return [records[i] for i in order], structures


def _record(mol_id: str, structure: dict, labels: list[str]) -> dict:
    atoms = [[element, float(x), float(y), float(z)]
             for element, (x, y, z) in zip(structure["elements"], structure["coords"])]
    return {"id": mol_id, "atoms": atoms,
            "bonds": [[int(i), int(j)] for i, j in structure["bonds"]],
            "labels": list(labels)}


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def make_embedding_library(seed: int, rows: int, dim: int, clusters: int,
                           duplicate_share: float) -> tuple[list[str], np.ndarray]:
    """Clustered embedding rows with ids ``lib#####``. A share of rows
    copies an earlier row exactly, so cosine ties occur and the id
    tie-break decides their order."""
    rng = np.random.default_rng([seed, 29])
    centers = rng.normal(size=(clusters, dim))
    members = rng.integers(clusters, size=rows)
    vectors = centers[members] + 0.35 * rng.normal(size=(rows, dim))
    copies = int(math.floor(rows * duplicate_share))
    targets = rng.choice(np.arange(1, rows), size=copies, replace=False)
    for target in targets:
        vectors[target] = vectors[int(rng.integers(target))]
    ids = [f"lib{index:05d}" for index in rng.permutation(rows)]
    return ids, vectors


def write_embedding_csv(ids: list[str], vectors: np.ndarray, path) -> None:
    lines = ["# synthetic embedding library",
             "id," + ",".join(f"e{i}" for i in range(vectors.shape[1]))]
    lines.extend(f"{mol_id}," + ",".join(repr(float(v)) for v in row)
                 for mol_id, row in zip(ids, vectors))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
