"""Reference computations the benchmark checks the program against.

Everything here is plain numpy written from the definitions the package
documents, and shares no code with ``molpeco``: a check that compares the
program with these functions cannot pass by repeating the program's own
mistake. ``test_reference.py`` pins each function on hand-checkable cases.
"""

from __future__ import annotations

import numpy as np

# Angstrom to Bohr factor and Frobenius epsilon, as molpeco documents them.
BOHR_PER_ANGSTROM = 1.8897259886
FROBENIUS_EPSILON = 1e-9


def coulomb_matrix(z, coords) -> np.ndarray:
    """0.5 * Z_i^2.4 on the diagonal, Z_i Z_j / |R_i - R_j| (Bohr) off it."""
    z = np.asarray(z, dtype=np.float64)
    xyz = np.asarray(coords, dtype=np.float64)
    diff = xyz[:, None, :] - xyz[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2)) * BOHR_PER_ANGSTROM
    np.fill_diagonal(dist, 1.0)
    c = np.outer(z, z) / dist
    np.fill_diagonal(c, 0.5 * z ** 2.4)
    return c


def frobenius_normalized(c: np.ndarray) -> np.ndarray:
    return c / (np.sqrt((c ** 2).sum()) + FROBENIUS_EPSILON)


def sym_normalized_laplacian(w: np.ndarray) -> np.ndarray:
    """D^{-1/2} (D - W) D^{-1/2} with D the full row sums of W."""
    degrees = w.sum(axis=1)
    scale = 1.0 / np.sqrt(degrees)
    return scale[:, None] * (np.diag(degrees) - w) * scale[None, :]


def random_walk_laplacian(w: np.ndarray) -> np.ndarray:
    """D^{-1} (D - W) with D the full row sums of W."""
    degrees = w.sum(axis=1)
    return (np.diag(degrees) - w) / degrees[:, None]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def clip_open_unit(p: np.ndarray) -> np.ndarray:
    """Clamp into (0, 1) at float64 resolution, as ``classify`` documents."""
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def auroc_pairwise(scores, labels) -> float:
    """P(score_pos > score_neg) + P(tie) / 2, counted over every
    positive-negative pair."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def cosine_top_k(ids: list[str], vectors: np.ndarray, query_id: str,
                 k: int) -> list[tuple[str, float]]:
    """Top-k (id, cosine) by brute force, excluding the query, descending,
    ties broken by ascending id.

    The similarity is computed once per distinct vector, so rows that
    repeat a vector exactly tie exactly and the id order decides them.
    """
    query = vectors[ids.index(query_id)]
    unique, inverse = np.unique(vectors, axis=0, return_inverse=True)
    denom = np.linalg.norm(unique, axis=1) * np.linalg.norm(query)
    dots = unique @ query
    sims_unique = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
    sims = sims_unique[inverse.reshape(-1)]
    ranked = sorted((-float(sims[i]), mol_id) for i, mol_id in enumerate(ids)
                    if mol_id != query_id)
    return [(mol_id, -neg_sim) for neg_sim, mol_id in ranked[:k]]


def recount_cleaning(records: list[dict], min_count: int,
                     conflict_labels=("odorless",)) -> tuple[list[str], list[str], dict]:
    """Apply the documented cleaning rules to raw records.

    Duplicate ids merge by label union (first appearance fixes the order),
    molecules pairing a conflict label with any other label go, then
    descriptors with fewer than ``min_count`` positives go. Returns the
    kept ids, the sorted vocabulary and each kept id's label set.
    """
    merged: dict[str, set] = {}
    for record in records:
        merged.setdefault(record["id"], set()).update(record["labels"])
    conflicts = set(conflict_labels)
    kept = {mol_id: labels for mol_id, labels in merged.items()
            if not (labels & conflicts and len(labels) > 1)}
    counts: dict[str, int] = {}
    for labels in kept.values():
        for name in labels:
            counts[name] = counts.get(name, 0) + 1
    vocabulary = sorted(name for name, count in counts.items() if count >= min_count)
    keep = set(vocabulary)
    return list(kept), vocabulary, {mol_id: labels & keep for mol_id, labels in kept.items()}
