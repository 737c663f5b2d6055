"""The odor-prediction network and its ablation variants.

Four variants share one architecture skeleton: a learned per-element atom
embedding, an optional spectral positional encoder (a small transformer
over the lowest Laplacian eigenpairs of each atom), a residual graph
convolution stack over either the bond adjacency matrix or the normalized
Coulomb matrix, sum pooling, and a linear multi-label head whose logits
feed the loss directly. ``probabilities`` maps logits to the reported
descriptor scores outside the differentiation graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, TransformerBlockParams
from .errors import DataError, ShapeError
from .features import MolFeatures, Spectrum, lpe_input

VARIANTS = ("adjacency-gcn", "coulomb-gcn", "mol-peco-sym", "mol-peco-asym")
LPE_VARIANTS = ("mol-peco-sym", "mol-peco-asym")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; ``o`` is the descriptor count."""

    variant: str
    o: int
    d: int = 32
    p: int = 20
    gcn_layers: int = 3
    transformer_layers: int = 4
    clf_layers: int = 1
    z_max: int = 87  # embedding rows: atomic numbers 1..86 (H..Rn)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant '{self.variant}' (expected one of {VARIANTS})")
        if min(self.o, self.d, self.p, self.gcn_layers, self.transformer_layers,
               self.clf_layers, self.z_max) < 1:
            raise DataError("all model dimensions and depths must be >= 1")

    @property
    def uses_lpe(self) -> bool:
        return self.variant in LPE_VARIANTS

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


@dataclass
class GCNLayerParams:
    w_graph: Tensor
    w_linear: Tensor


class MolPecoModel:
    """All trainable weights of one variant, created in a fixed order from
    a seeded generator so identical seeds give identical models."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng([seed, 0])
        self._params: list[Parameter] = []
        d = config.d

        self.embedding_table = self._add(
            "embed.table", rng.normal(0.0, 1.0 / np.sqrt(d), size=(config.z_max, d)))

        self.lpe_w0: Optional[Tensor] = None
        self.lpe_blocks: list[TransformerBlockParams] = []
        if config.uses_lpe:
            self.lpe_w0 = self._add("lpe.w0", ad.glorot_uniform(rng, (2, d)))
            for layer in range(config.transformer_layers):
                prefix = f"lpe.block{layer}"
                block = TransformerBlockParams(
                    ln1_gain=self._add(f"{prefix}.ln1.gain", np.ones(d)),
                    ln1_bias=self._add(f"{prefix}.ln1.bias", np.zeros(d)),
                    wq=self._add(f"{prefix}.wq", ad.glorot_uniform(rng, (d, d))),
                    bq=self._add(f"{prefix}.bq", np.zeros(d)),
                    wk=self._add(f"{prefix}.wk", ad.glorot_uniform(rng, (d, d))),
                    bk=self._add(f"{prefix}.bk", np.zeros(d)),
                    wv=self._add(f"{prefix}.wv", ad.glorot_uniform(rng, (d, d))),
                    bv=self._add(f"{prefix}.bv", np.zeros(d)),
                    wo=self._add(f"{prefix}.wo", ad.glorot_uniform(rng, (d, d))),
                    bo=self._add(f"{prefix}.bo", np.zeros(d)),
                    ln2_gain=self._add(f"{prefix}.ln2.gain", np.ones(d)),
                    ln2_bias=self._add(f"{prefix}.ln2.bias", np.zeros(d)),
                    ffn_w1=self._add(f"{prefix}.ffn.w1", ad.glorot_uniform(rng, (d, 2 * d))),
                    ffn_b1=self._add(f"{prefix}.ffn.b1", np.zeros(2 * d)),
                    ffn_w2=self._add(f"{prefix}.ffn.w2", ad.glorot_uniform(rng, (2 * d, d))),
                    ffn_b2=self._add(f"{prefix}.ffn.b2", np.zeros(d)),
                )
                self.lpe_blocks.append(block)

        self.gcn_layers: list[GCNLayerParams] = []
        for layer in range(config.gcn_layers):
            self.gcn_layers.append(GCNLayerParams(
                w_graph=self._add(f"gcn.{layer}.w_graph", ad.glorot_uniform(rng, (d, d))),
                w_linear=self._add(f"gcn.{layer}.w_linear", ad.glorot_uniform(rng, (d, d))),
            ))

        self.head_hidden: list[tuple[Tensor, Tensor]] = []
        for layer in range(config.clf_layers - 1):
            self.head_hidden.append((
                self._add(f"head.{layer}.w", ad.glorot_uniform(rng, (d, d))),
                self._add(f"head.{layer}.b", np.zeros(d)),
            ))
        self.head_w = self._add("head.w", ad.glorot_uniform(rng, (d, config.o)))

    def _add(self, name: str, values: np.ndarray) -> Tensor:
        tensor = Tensor(values, requires_grad=True)
        self._params.append(Parameter(name, tensor))
        return tensor

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def param_dict(self) -> dict[str, Parameter]:
        return {p.name: p for p in self._params}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameter values, keyed by name."""
        return {p.name: p.tensor.values.copy() for p in self._params}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.param_dict()
        missing = params.keys() - state.keys()
        extra = state.keys() - params.keys()
        if missing or extra:
            raise DataError(
                f"checkpoint does not match model: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for name, values in state.items():
            target = params[name].tensor
            values = np.asarray(values, dtype=np.float64)
            if values.shape != target.values.shape:
                raise ShapeError(
                    f"parameter '{name}' has shape {values.shape}, "
                    f"expected {target.values.shape}"
                )
            target.values = values.copy()
            target.grad = None


def atom_init_embedding(atomic_numbers: np.ndarray, model: MolPecoModel) -> Tensor:
    """Initial atom embedding: a learned row per atomic number, so
    identical elements share identical initial rows."""
    z = np.asarray(atomic_numbers, dtype=np.int64)
    if z.min(initial=1) < 1 or z.max(initial=1) >= model.config.z_max:
        raise DataError(
            f"atomic numbers must lie in [1, {model.config.z_max}), got "
            f"range [{z.min()}, {z.max()}]"
        )
    return ad.gather_rows(model.embedding_table, z)


def lpe_forward(spectrum: Spectrum, model: MolPecoModel) -> Tensor:
    """Per-atom learned positional encoding from each atom's min(p, n)
    lowest spectral pairs: linear lift to width d, a transformer over the
    pairs, then a column sum over the pair axis."""
    config = model.config
    if not config.uses_lpe or model.lpe_w0 is None:
        raise DataError(f"variant '{config.variant}' has no positional encoder")
    h = ad.matmul(ad.constant(lpe_input(spectrum, config.p)), model.lpe_w0)
    return ad.transformer_encoder(h, model.lpe_blocks).sum(axis=-2)


def gcn_forward(matrices: Sequence[np.ndarray], h0: Tensor,
                model: MolPecoModel) -> Tensor:
    """Residual graph convolution stack over a batch whose atom rows are
    stacked in ``h0``, molecule i owning the next ``len(matrices[i])`` rows:
    H_l = SELU(X H_{l-1} W_graph) + H_{l-1} W_linear, with X the
    block-diagonal matrix of the molecules' matrices."""
    h = h0
    for layer in model.gcn_layers:
        h = ad.add(ad.selu(ad.matmul(ad.block_matmul(matrices, h), layer.w_graph)),
                   ad.matmul(h, layer.w_linear))
    return h


def sum_pool(h: Tensor, sizes: Sequence[int]) -> Tensor:
    """Molecule embeddings, one row per molecule of ``sizes`` atoms:
    order-independent column sums of its atom rows, hence bit-identical
    under atom reordering."""
    return ad.sum_rows_exact(h, sizes)


def classify(m: Tensor, model: MolPecoModel) -> Tensor:
    """Multi-label head: optional hidden SELU layers, then a linear map to
    one logit per descriptor, each molecule's row multiplied on its own."""
    h = m
    for w, b in model.head_hidden:
        h = ad.selu(ad.add(ad.rowwise_matmul(h, w), b))
    return ad.rowwise_matmul(h, model.head_w)


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Reported descriptor scores: sigmoid of the logits, clamped into the
    open interval (0, 1) so saturated outputs tie rather than reach 0 or 1."""
    return np.clip(ad.logistic(logits), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def forward(feats: MolFeatures | Sequence[MolFeatures],
            model: MolPecoModel) -> tuple[Tensor, Tensor]:
    """Full forward pass over a batch of molecules, a single ``MolFeatures``
    being a batch of one; returns (descriptor logits B x o, penultimate
    molecule embeddings B x d), row i for molecule i.

    The batch's atom rows are stacked into one (sum of n) x d tensor, so
    the batch builds one graph; each molecule keeps its own LPE and its
    own ``X @ H`` product, and no row depends on the rest of the batch.
    """
    config = model.config
    if isinstance(feats, MolFeatures):
        feats = (feats,)
    for feat in feats:
        if feat.kind != config.variant:
            raise DataError(
                f"features of molecule '{feat.id}' were built for variant "
                f"'{feat.kind}', model expects '{config.variant}'"
            )
        if config.uses_lpe and feat.spectrum is None:
            raise DataError(f"molecule '{feat.id}' lacks the spectrum needed by "
                            f"'{config.variant}'")
    h0 = atom_init_embedding(np.concatenate([feat.atomic_numbers for feat in feats]),
                             model)
    if config.uses_lpe:
        h0 = ad.add(h0, ad.concat_rows([lpe_forward(feat.spectrum, model)
                                        for feat in feats]))
    h = gcn_forward([feat.matrix for feat in feats], h0, model)
    m = sum_pool(h, [feat.matrix.shape[0] for feat in feats])
    return classify(m, model), m
