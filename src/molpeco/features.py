"""Per-molecule matrix representations and their spectral decomposition.

Covers the adjacency matrix, the Coulomb matrix with Frobenius / minmax
normalization, weighted graph Laplacians, a LAPACK symmetric eigensolver
with deterministic sign conventions, and the positional-encoding input
built from the lowest spectral pairs. Also owns the binary featurization
cache (magic "MPEC0001") written by the CLI.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chemio import Molecule
from .errors import ConvergenceError, DataError, GeometryError, ShapeError

BOHR_PER_ANGSTROM = 1.8897259886
NORM_EPSILON = 1e-9
MIN_ATOM_DISTANCE = 1e-6  # Angstrom; closer pairs are degenerate geometry

CACHE_MAGIC = b"MPEC0001"

NORMALIZATIONS = ("frobenius", "minmax", "none")


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues ascend; eigenvector k lives in column k, has unit 2-norm,
    and is sign-fixed so its largest-magnitude entry is non-negative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class LPEInput:
    """Per-atom spectral pairs feeding the positional encoder.

    ``pairs`` has shape (p, 2): column 0 the eigenvalue, column 1 that
    atom's eigenvector component. ``mask`` is True on valid rows; padded
    rows are zero with mask False.
    """

    pairs: np.ndarray
    mask: np.ndarray


def adjacency_matrix(mol: Molecule) -> np.ndarray:
    """Symmetric 0/1 bond matrix with zero diagonal."""
    if mol.bonds is None:
        raise DataError(
            f"molecule '{mol.id}' has no bond list; the adjacency representation "
            "needs bonds (use the Coulomb representation for bond-free input)"
        )
    n = mol.num_atoms
    a = np.zeros((n, n), dtype=np.float64)
    for i, j in mol.bonds:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def coulomb_matrix(mol: Molecule) -> np.ndarray:
    """Coulomb matrix: 0.5 * Z_i^2.4 on the diagonal, Z_i * Z_j / |R_i - R_j|
    off the diagonal, with distances in Bohr.

    Entries depend only on charges and pairwise distances, so the output is
    exactly symmetric and invariant to rigid motion of the coordinates.
    """
    z = mol.atomic_numbers().astype(np.float64)
    coords = mol.coordinates()
    diff = coords[:, None, :] - coords[None, :, :]
    dist_ang = np.sqrt(np.sum(diff * diff, axis=-1))
    close = np.argwhere(np.triu(dist_ang < MIN_ATOM_DISTANCE, k=1))
    if close.size:
        i, j = (int(k) for k in close[0])
        raise GeometryError(
            f"molecule '{mol.id}': atoms {i} and {j} are "
            f"{dist_ang[i, j]:.2e} Angstrom apart (degenerate geometry)"
        )
    np.fill_diagonal(dist_ang, 1.0)
    c = np.outer(z, z) / (dist_ang * BOHR_PER_ANGSTROM)
    np.fill_diagonal(c, 0.5 * z ** 2.4)
    return c


def normalize_frobenius(c: np.ndarray) -> np.ndarray:
    """Matrix-wise normalization by the Frobenius norm (plus epsilon)."""
    return c / (np.linalg.norm(c) + NORM_EPSILON)


def normalize_minmax(c: np.ndarray) -> np.ndarray:
    """Elementwise (C - C_min) / (C_max - C_min + epsilon)."""
    c_min = c.min()
    c_max = c.max()
    return (c - c_min) / (c_max - c_min + NORM_EPSILON)


def normalize(c: np.ndarray, method: str) -> np.ndarray:
    if method == "frobenius":
        return normalize_frobenius(c)
    if method == "minmax":
        return normalize_minmax(c)
    if method == "none":
        return c
    raise DataError(f"unknown normalization '{method}' (expected one of {NORMALIZATIONS})")


def _check_symmetric(x: np.ndarray, tol: float, what: str) -> None:
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {x.shape}")
    if np.max(np.abs(x - x.T), initial=0.0) > tol:
        raise DataError(f"{what} must be symmetric within {tol}")


def laplacian(x: np.ndarray) -> np.ndarray:
    """Graph Laplacian D - X with D the full-row-sum degree matrix.

    The diagonal of X cancels between D and X, so the Laplacian is built
    from the off-diagonal weights alone; this keeps it bitwise identical
    whether or not the input carries a diagonal. Rows sum to zero.
    """
    _check_symmetric(x, 1e-10, "weight matrix")
    off = x.copy()
    np.fill_diagonal(off, 0.0)
    lap = -off
    np.fill_diagonal(lap, off.sum(axis=1))
    return lap


def _degrees_checked(x: np.ndarray) -> np.ndarray:
    degrees = x.sum(axis=1)
    if np.any(degrees <= 0.0):
        isolated = int(np.argmax(degrees <= 0.0))
        raise DataError(
            f"node {isolated} has non-positive degree {degrees[isolated]!r}; "
            "normalized Laplacians need strictly positive degrees"
        )
    return degrees


def sym_normalized_laplacian(x: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian D^{-1/2} (D - X) D^{-1/2}.

    Positive semi-definite with eigenvalues in [0, 2] for non-negative
    weights; the smallest eigenvalue is 0 for a connected graph.
    """
    _check_symmetric(x, 1e-10, "weight matrix")
    degrees = _degrees_checked(x)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = laplacian(x)
    return inv_sqrt[:, None] * lap * inv_sqrt[None, :]


def asym_normalized_laplacian(x: np.ndarray) -> Spectrum:
    """Spectrum of the random-walk Laplacian D^{-1} (D - X).

    The random-walk Laplacian is similar to the symmetric one, so its
    eigenvalues are taken from the symmetric decomposition and its
    eigenvectors are D^{-1/2} times the symmetric eigenvectors,
    renormalized to unit length and sign-fixed.
    """
    _check_symmetric(x, 1e-10, "weight matrix")
    degrees = _degrees_checked(x)
    sym_spec = eig_symmetric(sym_normalized_laplacian(x))
    vectors = sym_spec.eigenvectors / np.sqrt(degrees)[:, None]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    vectors = _fix_signs(vectors)
    vectors.flags.writeable = False
    return Spectrum(sym_spec.eigenvalues, vectors)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-|entry| component (lowest index on
    ties) is non-negative."""
    vectors = vectors.copy()
    pivot_rows = np.argmax(np.abs(vectors), axis=0)
    for col, row in enumerate(pivot_rows):
        if vectors[row, col] < 0.0:
            vectors[:, col] = -vectors[:, col]
    return vectors


def eig_symmetric(mat: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK
    (``numpy.linalg.eigh``).

    Eigenvalues come back ascending with orthonormal, sign-fixed
    eigenvector columns. A LAPACK failure (for example on a NaN input)
    raises ConvergenceError.
    """
    _check_symmetric(mat, 1e-10, "eigensolver input")
    a = 0.5 * (mat + mat.T)  # exact symmetrization of the tolerated asymmetry
    try:
        eigenvalues, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = _fix_signs(v[:, order])
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return Spectrum(eigenvalues, vectors)


def lpe_input(spectrum: Spectrum, atom_index: int, p: int = 20) -> LPEInput:
    """The p lowest (eigenvalue, eigenvector component) pairs for one atom,
    zero-padded with a validity mask when the molecule has fewer than p
    spectral pairs. The trivial eigenvalue is included."""
    n = spectrum.n
    if not 0 <= atom_index < n:
        raise DataError(f"atom index {atom_index} out of range for {n} atoms")
    pairs = np.zeros((p, 2), dtype=np.float64)
    mask = np.zeros(p, dtype=bool)
    k = min(p, n)
    pairs[:k, 0] = spectrum.eigenvalues[:k]
    pairs[:k, 1] = spectrum.eigenvectors[atom_index, :k]
    mask[:k] = True
    return LPEInput(pairs, mask)


# ---------------------------------------------------------------------------
# Per-molecule feature bundles and the featurization cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MolFeatures:
    """Everything the model forward pass needs for one molecule.

    ``kind`` records which matrix/spectrum combination was built
    ("adjacency-gcn", "coulomb-gcn", "mol-peco-sym", "mol-peco-asym") so
    variant mismatches are detectable.
    """

    mol_id: str
    kind: str
    atomic_numbers: np.ndarray
    matrix: np.ndarray
    spectrum: Optional[Spectrum] = None


def featurize_molecule(mol: Molecule, variant: str,
                       normalization: str = "frobenius") -> MolFeatures:
    """Build the matrix (and spectrum, for the positional-encoding variants)
    a model variant consumes.

    The Laplacian is computed from the same (normalized) matrix the graph
    convolution uses; for Frobenius normalization this matches the raw
    Coulomb spectrum because the symmetric Laplacian is scale-invariant.
    """
    z = mol.atomic_numbers()
    if variant == "adjacency-gcn":
        return MolFeatures(mol.id, variant, z, adjacency_matrix(mol))
    if variant not in ("coulomb-gcn", "mol-peco-sym", "mol-peco-asym"):
        raise DataError(f"unknown model variant '{variant}'")
    matrix = normalize(coulomb_matrix(mol), normalization)
    if variant == "coulomb-gcn":
        return MolFeatures(mol.id, variant, z, matrix)
    if variant == "mol-peco-sym":
        spectrum = eig_symmetric(sym_normalized_laplacian(matrix))
    else:
        spectrum = asym_normalized_laplacian(matrix)
    return MolFeatures(mol.id, variant, z, matrix, spectrum)


def _pack_array(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def write_feature_cache(path, features: list[MolFeatures], header: dict) -> None:
    """Write the per-molecule feature cache.

    Layout: magic, u32 little-endian JSON header length, canonical JSON
    header, then per molecule: u32 id length + id bytes, u32 n, u8 spectrum
    flag, n*n matrix doubles, and if flagged n eigenvalues followed by the
    n*n eigenvector matrix (row-major, little-endian doubles).
    """
    header = dict(header)
    header["count"] = len(features)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CACHE_MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        for feat in features:
            id_bytes = feat.mol_id.encode("utf-8")
            n = feat.matrix.shape[0]
            handle.write(struct.pack("<I", len(id_bytes)))
            handle.write(id_bytes)
            handle.write(struct.pack("<IB", n, 1 if feat.spectrum is not None else 0))
            handle.write(_pack_array(feat.matrix))
            if feat.spectrum is not None:
                handle.write(_pack_array(feat.spectrum.eigenvalues))
                handle.write(_pack_array(feat.spectrum.eigenvectors))
            handle.write(_pack_array(feat.atomic_numbers.astype(np.float64)))


def read_feature_cache(path) -> tuple[dict, dict[str, MolFeatures]]:
    """Read a feature cache, returning (header, id -> MolFeatures)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise DataError(f"'{path}' is not a feature cache (bad magic)")
    offset = len(CACHE_MAGIC)

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise DataError(f"feature cache '{path}' is truncated")
        chunk = blob[offset:offset + count]
        offset += count
        return chunk

    (header_len,) = struct.unpack("<I", take(4))
    header = json.loads(take(header_len).decode("utf-8"))
    kind = header.get("variant", "")
    features: dict[str, MolFeatures] = {}
    for _ in range(header["count"]):
        (id_len,) = struct.unpack("<I", take(4))
        mol_id = take(id_len).decode("utf-8")
        n, has_spectrum = struct.unpack("<IB", take(5))
        matrix = np.frombuffer(take(8 * n * n), dtype="<f8").reshape(n, n).copy()
        spectrum = None
        if has_spectrum:
            eigenvalues = np.frombuffer(take(8 * n), dtype="<f8").copy()
            vectors = np.frombuffer(take(8 * n * n), dtype="<f8").reshape(n, n).copy()
            eigenvalues.flags.writeable = False
            vectors.flags.writeable = False
            spectrum = Spectrum(eigenvalues, vectors)
        z = np.frombuffer(take(8 * n), dtype="<f8").astype(np.int64)
        features[mol_id] = MolFeatures(mol_id, kind, z, matrix, spectrum)
    return header, features
