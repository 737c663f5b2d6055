"""Synthetic molecule generators shared by the test suite.

All generators are deterministic given their RNG and produce molecules
satisfying the package invariants (finite coordinates, no coincident
atoms, valid bonds).
"""

from __future__ import annotations

import numpy as np

from molpeco.chemio import Atom, Dataset, Molecule, build_dataset

ELEMENT_POOL = (1, 6, 7, 8, 16)  # H C N O S


def random_coordinates(rng: np.random.Generator, n: int, box: float = 4.0,
                       min_dist: float = 0.8) -> np.ndarray:
    """Uniform coordinates in a cube, rejection-sampled to keep every pair
    at least ``min_dist`` Angstrom apart."""
    coords = np.empty((n, 3))
    placed = 0
    while placed < n:
        candidate = rng.uniform(-box / 2, box / 2, size=3)
        if placed and np.min(np.linalg.norm(coords[:placed] - candidate, axis=1)) < min_dist:
            continue
        coords[placed] = candidate
        placed += 1
    return coords


def random_molecule(rng: np.random.Generator, mol_id: str, n_atoms: int | None = None,
                    elements=ELEMENT_POOL, labels=frozenset(),
                    with_bonds: bool = False) -> Molecule:
    n = n_atoms if n_atoms is not None else int(rng.integers(2, 9))
    z = rng.choice(elements, size=n)
    coords = random_coordinates(rng, n)
    atoms = tuple(Atom(int(z[i]), tuple(float(c) for c in coords[i])) for i in range(n))
    bonds = tuple((i, i + 1) for i in range(n - 1)) if with_bonds else None
    return Molecule(mol_id, atoms, bonds, frozenset(labels))


def organic_molecule(rng: np.random.Generator, mol_id: str, n_atoms: int) -> Molecule:
    """An odorant-sized molecule: a random tree of C/N/O/S heavy atoms
    (about 40% of the atoms, bonds of 1.5 Angstrom, at least 1.25 apart)
    with hydrogens at 1.09 Angstrom (at least 0.9 from every atom), and
    its bond list."""
    heavy = max(3, int(round(0.4 * n_atoms)))
    z = [int(e) for e in rng.choice((6, 6, 6, 7, 8, 16), size=heavy)]
    coords = [np.zeros(3)]
    bonds = []

    def place(anchors, length, min_dist):
        """Bond a new atom to a random anchor; a crowded anchor is redrawn."""
        while True:
            anchor = int(rng.integers(anchors))
            step = rng.normal(size=3)
            candidate = coords[anchor] + length * step / np.linalg.norm(step)
            if np.min(np.linalg.norm(np.asarray(coords) - candidate, axis=1)) >= min_dist:
                coords.append(candidate)
                bonds.append((anchor, len(coords) - 1))
                return

    for _ in range(1, heavy):
        place(len(coords), 1.5, 1.25)
    while len(coords) < n_atoms:
        z.append(1)
        place(heavy, 1.09, 0.9)
    atoms = tuple(Atom(z[k], tuple(float(c) for c in np.round(coords[k], 4)))
                  for k in range(n_atoms))
    return Molecule(mol_id, atoms, tuple(bonds))


def structure_labeled_set(rng: np.random.Generator, count: int = 20) -> Dataset:
    """Molecules whose labels are pure functions of their structure:
    element presence, size, and spatial extent.

    Geometries whose diameter falls in the margin band around the "spread"
    threshold are resampled, so every label is unambiguous and present in
    both classes. Used for overfit checks.
    """
    molecules = []
    for i in range(count):
        n = int(rng.integers(3, 7))
        z = rng.choice(ELEMENT_POOL, size=n)
        while True:
            coords = random_coordinates(rng, n)
            diameter = max(
                float(np.linalg.norm(coords[a] - coords[b]))
                for a in range(n) for b in range(a + 1, n)
            )
            if diameter < 3.1 or diameter > 3.7:
                break
        atoms = tuple(Atom(int(z[k]), tuple(float(c) for c in coords[k])) for k in range(n))
        labels = set()
        if 16 in z:
            labels.add("sulfurous")
        if 7 in z:
            labels.add("aminic")
        if n <= 4:
            labels.add("small")
        if diameter > 3.4:
            labels.add("spread")
        molecules.append(Molecule(f"syn{i:03d}", atoms, None, frozenset(labels)))
    return build_dataset(molecules)


def chain_fold_set(rng: np.random.Generator, count: int = 300,
                   chain_length: int = 8) -> Dataset:
    """Fixed-topology chains whose labels depend on the end-to-end 3D
    distance. Every molecule shares the same bond graph, so bond-only
    models see no geometric signal while Coulomb features do."""
    records = []
    for i in range(count):
        z = rng.choice((6, 7, 8), size=chain_length)
        coords = np.zeros((chain_length, 3))
        for k in range(1, chain_length):
            while True:
                step = rng.normal(size=3)
                step = 1.5 * step / np.linalg.norm(step)
                candidate = coords[k - 1] + step
                if k < 2 or np.min(np.linalg.norm(coords[:k - 1] - candidate, axis=1)) > 0.9:
                    break
            coords[k] = candidate
        end_dist = float(np.linalg.norm(coords[-1] - coords[0]))
        records.append((z, coords, end_dist))

    distances = np.array([r[2] for r in records])
    lo, hi = np.quantile(distances, [1.0 / 3.0, 2.0 / 3.0])
    molecules = []
    for i, (z, coords, end_dist) in enumerate(records):
        labels = set()
        if end_dist < lo:
            labels.add("folded")
        elif end_dist > hi:
            labels.add("elongated")
        atoms = tuple(Atom(int(z[k]), tuple(float(c) for c in coords[k]))
                      for k in range(chain_length))
        bonds = tuple((k, k + 1) for k in range(chain_length - 1))
        molecules.append(Molecule(f"chain{i:04d}", atoms, bonds, frozenset(labels)))
    return build_dataset(molecules)


def multilabel_set(rng: np.random.Generator, count: int = 500) -> Dataset:
    """Multi-label dataset with an imbalanced descriptor distribution and
    correlated label pairs, for stratification checks.

    Descriptor frequencies are chosen so that every descriptor is either
    clearly frequent (>= ~125 positives at count=500, where a +-20%%
    per-fold ratio check is meaningful) or clearly rare (< 30); in a
    50-sample fold the +-20%% band of a mid-frequency descriptor is
    narrower than one molecule, so no splitter could satisfy it.
    """
    probs = np.array([0.5, 0.42, 0.35, 0.3, 0.28, 0.03])
    n_descriptors = probs.shape[0]
    molecules = []
    for i in range(count):
        raw = rng.random(n_descriptors) < probs
        # correlate neighbours: descriptor 2k+1 follows 2k half of the time
        for k in range(0, n_descriptors - 1, 2):
            if raw[k] and rng.random() < 0.5:
                raw[k + 1] = True
        labels = frozenset(f"d{k}" for k in range(n_descriptors) if raw[k])
        atoms = (Atom(6, (0.0, 0.0, 0.0)), Atom(8, (1.2, 0.0, 0.0)))
        molecules.append(Molecule(f"ml{i:04d}", atoms, None, labels))
    return build_dataset(molecules)
