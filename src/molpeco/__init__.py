"""Multi-label odor descriptor prediction from 3D molecular structure.

The pipeline: JSONL molecule ingestion and cleaning, Coulomb-matrix or
adjacency featurization with Laplacian spectral decomposition, a residual
graph-convolution network with an optional learned spectral positional
encoding, a weighted multi-label loss, and retrieval over the learned
molecule embeddings.
"""

__version__ = "0.1.0"

from .chemio import (
    Atom,
    Dataset,
    LabelVocabulary,
    Molecule,
    Split,
    build_dataset,
    filter_conflicts,
    filter_rare_descriptors,
    merge_duplicates,
    parse_molecules,
    serialize_molecules,
    stratified_split,
)
from .features import (
    MolFeatures,
    Spectrum,
    adjacency_matrix,
    asym_normalized_laplacian,
    coulomb_matrix,
    eig_symmetric,
    featurize_molecule,
    laplacian,
    lpe_input,
    normalize_frobenius,
    normalize_minmax,
    sym_normalized_laplacian,
)
from .metrics import EvalReport, confusion_metrics, pr_auc, roc_auc
from .model import ModelConfig, MolPecoModel, forward
from .train import Adam, LossConfig, TrainConfig, compute_loss, evaluate, train_loop

__all__ = [
    "Atom", "Dataset", "LabelVocabulary", "Molecule", "Split",
    "build_dataset", "filter_conflicts", "filter_rare_descriptors",
    "merge_duplicates", "parse_molecules", "serialize_molecules",
    "stratified_split",
    "MolFeatures", "Spectrum", "adjacency_matrix", "asym_normalized_laplacian",
    "coulomb_matrix", "eig_symmetric", "featurize_molecule",
    "laplacian", "lpe_input", "normalize_frobenius", "normalize_minmax",
    "sym_normalized_laplacian",
    "EvalReport", "confusion_metrics", "pr_auc", "roc_auc",
    "ModelConfig", "MolPecoModel", "forward",
    "Adam", "LossConfig", "TrainConfig", "compute_loss", "evaluate", "train_loop",
]
