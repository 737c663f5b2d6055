"""Per-molecule matrix representations and their spectral decomposition.

Covers the adjacency matrix, the Coulomb matrix with Frobenius / minmax
normalization, weighted graph Laplacians, a LAPACK symmetric eigensolver
with deterministic sign conventions, and the positional-encoding input
built from the lowest spectral pairs. Also maps the featurization cache
the CLI writes onto the array layout of ``checkpoints``: magic
"MPEC0005", each field of all molecules packed into one array, and each
molecule's id, labels and atom count in the header (``write_feature_cache``).
After ``featurize`` a dataset row is a molecule's ``MolFeatures``, which
carries its id and labels, so the later commands rebuild the dataset from
the cache alone; a cache in an older layout ("MPEC0001" to "MPEC0004") is
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checkpoints import read_arrays, write_arrays
from .chemio import Molecule
from .errors import ConvergenceError, DataError, GeometryError, ShapeError

BOHR_PER_ANGSTROM = 1.8897259886
NORM_EPSILON = 1e-9
MIN_ATOM_DISTANCE = 1e-6  # Angstrom; closer pairs are degenerate geometry

CACHE_MAGIC = b"MPEC0005"

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
    ties) is non-negative. Returns a new C-ordered array."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    # C order: the column norms in asym_normalized_laplacian round by memory order
    return np.ascontiguousarray(np.where(pivots < 0.0, -vectors, vectors))


def eig_symmetric(mat: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK
    (``numpy.linalg.eigh``).

    Eigenvalues come back ascending, as ``eigh`` returns them, with
    orthonormal, sign-fixed eigenvector columns. A LAPACK failure (for example on a NaN input)
    raises ConvergenceError.
    """
    _check_symmetric(mat, 1e-10, "eigensolver input")
    a = 0.5 * (mat + mat.T)  # exact symmetrization of the tolerated asymmetry
    try:
        eigenvalues, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    vectors = _fix_signs(v)
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return Spectrum(eigenvalues, vectors)


def lpe_input(spectrum: Spectrum, p: int = 20) -> np.ndarray:
    """The min(p, n) lowest spectral pairs of every atom, feeding the
    positional encoder. The trivial eigenvalue is included.

    Returns an (n, min(p, n), 2) array whose entry ``[a, k]`` is
    (eigenvalue k, component a of eigenvector k). A molecule with fewer
    than p atoms has only its n real pairs; nothing is padded.
    """
    k = min(p, spectrum.n)
    values = np.broadcast_to(spectrum.eigenvalues[:k], (spectrum.n, k))
    return np.stack([values, spectrum.eigenvectors[:, :k]], axis=-1)


# ---------------------------------------------------------------------------
# Per-molecule feature bundles and the featurization cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MolFeatures:
    """Everything the model forward pass needs for one molecule, with the
    molecule's id and labels: a dataset row once the molecule is featurized.

    ``kind`` records which matrix/spectrum combination was built
    ("adjacency-gcn", "coulomb-gcn", "mol-peco-sym", "mol-peco-asym") so
    variant mismatches are detectable.
    """

    id: str
    kind: str
    atomic_numbers: np.ndarray
    matrix: np.ndarray
    labels: frozenset[str]
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
        return MolFeatures(mol.id, variant, z, adjacency_matrix(mol), mol.labels)
    if variant not in ("coulomb-gcn", "mol-peco-sym", "mol-peco-asym"):
        raise DataError(f"unknown model variant '{variant}'")
    matrix = normalize(coulomb_matrix(mol), normalization)
    if variant == "coulomb-gcn":
        return MolFeatures(mol.id, variant, z, matrix, mol.labels)
    if variant == "mol-peco-sym":
        spectrum = eig_symmetric(sym_normalized_laplacian(matrix))
    else:
        spectrum = asym_normalized_laplacian(matrix)
    return MolFeatures(mol.id, variant, z, matrix, mol.labels, spectrum)


def _field_shapes(entries: list, spectral: bool) -> dict[str, tuple[int, ...]]:
    """The packed fields' shapes for ``entries``, ``[id, labels, n]`` each:
    per molecule, n x n values of ``matrix`` and ``eigenvectors`` and n of
    ``z`` and ``eigenvalues``."""
    atoms = sum(entry[2] for entry in entries)
    squares = sum(entry[2] ** 2 for entry in entries)
    shapes = {"matrix": (squares,), "z": (atoms,)}
    if spectral:
        shapes.update(eigenvalues=(atoms,), eigenvectors=(squares,))
    return shapes


def write_feature_cache(path, features: list[MolFeatures], header: dict) -> None:
    """Write the feature cache: the header plus ``molecules``, the ``[id,
    sorted labels, atom count]`` of every molecule in the order given, and
    each field of all molecules packed in that order into one array of the
    shape ``_field_shapes`` gives."""
    listed = [[feat.id, sorted(feat.labels), len(feat.atomic_numbers)] for feat in features]
    shapes = _field_shapes(listed, any(feat.spectrum is not None for feat in features))
    # written molecule by molecule: the packed arrays are never built in memory
    parts = {"matrix": (feat.matrix for feat in features),
             "z": (feat.atomic_numbers for feat in features),
             "eigenvalues": (feat.spectrum.eigenvalues for feat in features),
             "eigenvectors": (feat.spectrum.eigenvectors for feat in features)}
    write_arrays(path, CACHE_MAGIC, {name: (shape, parts[name]) for name, shape in shapes.items()},
                 dict(header, molecules=listed))


def _is_entry(entry) -> bool:
    """Whether ``entry`` is ``[id, labels, atom count >= 1]``."""
    return (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
            and isinstance(entry[1], list) and all(isinstance(x, str) for x in entry[1])
            and type(entry[2]) is int and entry[2] >= 1)


def read_feature_cache(path) -> tuple[dict, dict[str, MolFeatures]]:
    """(header, id -> MolFeatures) of a feature cache, in the order of the
    header's ``molecules``, each with its cached labels, and its matrix and
    spectrum read-only views into the packed arrays. Any fault in the file,
    or a cache in an older layout, raises DataError."""
    try:
        header, arrays = read_arrays(path, CACHE_MAGIC, "feature cache")
    except DataError as exc:
        raise DataError(f"{exc}; re-run featurize") from exc

    def fault(what: str) -> DataError:
        return DataError(f"feature cache '{path}' {what}; re-run featurize")

    entries = header.get("molecules") if isinstance(header, dict) else None
    if not (isinstance(entries, list) and all(map(_is_entry, entries))):
        raise fault("has no valid molecule list")
    if len({entry[0] for entry in entries}) != len(entries):
        raise fault("lists a molecule id more than once")
    shapes = _field_shapes(entries, "eigenvalues" in arrays or "eigenvectors" in arrays)
    if arrays.keys() != shapes.keys():
        raise fault(f"has arrays {sorted(arrays)}, not {sorted(shapes)}")
    wrong = [name for name, shape in shapes.items() if arrays[name].shape != shape]
    if wrong:
        raise fault(f"has arrays {wrong} of the wrong shape, not {[shapes[n] for n in wrong]}")
    if not (np.isfinite(arrays["z"]).all() and np.array_equal(arrays["z"], np.trunc(arrays["z"]))):
        raise fault("has atomic numbers that are not whole numbers")

    for values in arrays.values():
        values.flags.writeable = False
    kind = header.get("variant", "")
    z_all = arrays["z"].astype(np.int64)
    features: dict[str, MolFeatures] = {}
    atom = square = 0
    for mol_id, names, n in entries:
        rows, flat = slice(atom, atom + n), slice(square, square + n * n)
        spectrum = None
        if "eigenvalues" in arrays:
            spectrum = Spectrum(arrays["eigenvalues"][rows],
                                arrays["eigenvectors"][flat].reshape(n, n))
        features[mol_id] = MolFeatures(mol_id, kind, z_all[rows],
                                       arrays["matrix"][flat].reshape(n, n),
                                       frozenset(names), spectrum)
        atom, square = rows.stop, flat.stop
    return header, features
