"""Loss, optimization, the training loop with checkpoint-by-minimum
validation loss, and dataset-level evaluation.

The loss is a per-descriptor weighted sum of binary cross-entropy and a
log-ratio regularizer, computed from the head's logits; weights are
1 - n_pos / n_total computed on the training split only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .chemio import Dataset, Split
from .errors import DataError, NumericError
from .features import MolFeatures, featurize_molecule
from .metrics import EvalReport, eval_report, macro_auroc
from .model import ModelConfig, MolPecoModel, forward, probabilities

LOSS_EPSILON = 1e-9


@dataclass
class LossConfig:
    """Per-descriptor weights and the epsilon guarding the log terms."""

    label_weights: np.ndarray
    epsilon: float = LOSS_EPSILON

    @classmethod
    def from_dataset(cls, dataset: Dataset, train_indices: Sequence[int],
                     epsilon: float = LOSS_EPSILON) -> "LossConfig":
        """Weights w_i = 1 - n_pos_i / n_total over the training split only,
        so no label statistics leak from validation or test."""
        rows = dataset.targets[np.asarray(train_indices, dtype=np.int64)]
        n_total = rows.shape[0]
        if n_total == 0:
            raise DataError("cannot derive loss weights from an empty train split")
        weights = 1.0 - rows.sum(axis=0).astype(np.float64) / n_total
        return cls(weights, epsilon)


def compute_loss(logits: Tensor, y_true, cfg: LossConfig) -> Tensor:
    """Weighted multi-label loss for one molecule from its logits z, with
    p_i = sigmoid(z_i):

    (1/o) * sum_i w_i * (BCE(t_i, p_i) + |log(p_i + eps) - log(t_i + eps)|)

    BCE is evaluated as (1 - t) * z - log sigmoid(z), which stays finite
    with a bounded gradient however far the logits saturate.
    """
    truth = np.asarray(y_true, dtype=np.float64).reshape(-1)
    o = cfg.label_weights.shape[0]
    if logits.values.size != o or truth.shape[0] != o:
        raise DataError(
            f"prediction ({logits.values.size}), target ({truth.shape[0]}) and "
            f"weights ({o}) must share the descriptor count"
        )

    z = ad.reshape(logits, (o,))
    eps = cfg.epsilon
    bce = ad.sub(ad.mul(ad.constant(1.0 - truth), z), ad.log_sigmoid(z))
    log_target = ad.constant(np.log(truth + eps))
    p = ad.sigmoid(z)
    reg = ad.absolute(ad.sub(ad.log(ad.add(p, ad.constant(eps))), log_target))
    weighted = ad.mul(ad.add(bce, reg), ad.constant(cfg.label_weights))
    return weighted.sum() * (1.0 / o)


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = [p for p in params if p.trainable]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.tensor.values) for p in self.params]
        self.v = [np.zeros_like(p.tensor.values) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.tensor.grad = None

    def step(self) -> None:
        """One update of every parameter that has a gradient. A NaN or
        infinite gradient raises NumericError before any parameter moves."""
        for p in self.params:
            if p.tensor.grad is not None and not np.all(np.isfinite(p.tensor.grad)):
                raise NumericError(f"non-finite gradient in parameter '{p.name}'")
        self.t += 1
        for i, p in enumerate(self.params):
            grad = p.tensor.grad
            if grad is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            p.tensor.values = p.tensor.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 1000
    patience: int = 100
    seed: int = 0
    stop_train_loss: Optional[float] = None  # stop once train loss dips below

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 0 \
                or self.patience < 1:
            raise DataError(f"invalid training configuration: {self}")


@dataclass
class TrainResult:
    """Best checkpoint (by validation loss), the last parameter state, and
    the per-epoch history."""

    best_state: dict[str, np.ndarray]
    best_epoch: int
    best_val_loss: Optional[float]
    final_state: dict[str, np.ndarray] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)
    diverged: bool = False

    def history_csv(self, config_hash: Optional[str] = None) -> str:
        lines = []
        if config_hash is not None:
            lines.append(f"# config_hash={config_hash}")
        lines.append("epoch,train_loss,val_loss,val_auroc")
        for row in self.history:
            lines.append(f"{row['epoch']},{row['train_loss']!r},"
                         f"{row['val_loss']!r},{row['val_auroc']!r}")
        return "\n".join(lines) + "\n"


def _feature_list(dataset: Dataset, model_cfg: ModelConfig,
                  features: Optional[dict[str, MolFeatures]]) -> list[MolFeatures]:
    out = []
    for mol in dataset.molecules:
        if features is not None:
            feat = features.get(mol.id)
            if feat is None:
                raise DataError(f"no cached features for molecule '{mol.id}'")
        else:
            feat = featurize_molecule(mol, model_cfg.variant, model_cfg.cm_normalization)
        out.append(feat)
    return out


def _score_split(model: MolPecoModel, feats: list[MolFeatures],
                 indices: Sequence[int]) -> np.ndarray:
    rows = [forward(feats[i], model)[0].values.reshape(-1) for i in indices]
    return probabilities(np.vstack(rows))


def train_loop(dataset: Dataset, split: Split, model_cfg: ModelConfig,
               train_cfg: TrainConfig,
               features: Optional[dict[str, MolFeatures]] = None) -> TrainResult:
    """Train one model, tracking the checkpoint with minimal validation
    loss.

    Each epoch shuffles the training split with a seeded generator, then
    logs train loss, validation loss, and unweighted validation macro
    AUROC. Stops early after ``patience`` epochs without improvement and
    aborts (keeping the best checkpoint) if the loss or a gradient turns
    non-finite.
    """
    if not split.train or not split.val:
        raise DataError("train and validation splits must be non-empty")
    feats = _feature_list(dataset, model_cfg, features)
    loss_cfg = LossConfig.from_dataset(dataset, split.train)
    model = MolPecoModel(model_cfg, seed=train_cfg.seed)
    optimizer = Adam(model.parameters(), lr=train_cfg.learning_rate)
    rng = np.random.default_rng([train_cfg.seed, 1])

    result = TrainResult(best_state=model.state_arrays(), best_epoch=0,
                         best_val_loss=None, final_state=model.state_arrays())
    train_idx = np.asarray(split.train, dtype=np.int64)
    val_idx = list(split.val)
    val_targets = dataset.targets[np.asarray(val_idx, dtype=np.int64)]
    epochs_since_best = 0

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.permutation(train_idx)
        epoch_loss_sum = 0.0
        diverged = False
        for start in range(0, order.shape[0], train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            optimizer.zero_grad()
            losses = []
            for idx in batch:
                logits, _ = forward(feats[idx], model)
                losses.append(compute_loss(logits, dataset.targets[idx], loss_cfg))
            total = losses[0]
            for extra in losses[1:]:
                total = ad.add(total, extra)
            total = total * (1.0 / len(batch))
            if not math.isfinite(total.item()):
                diverged = True
                break
            epoch_loss_sum += total.item() * len(batch)
            ad.backward(total)
            try:
                optimizer.step()
            except NumericError:
                diverged = True
                break
        if diverged:
            result.diverged = True
            break

        train_loss = epoch_loss_sum / order.shape[0]
        val_losses = []
        val_rows = []
        for idx in val_idx:
            logits, _ = forward(feats[idx], model)
            val_losses.append(compute_loss(logits, dataset.targets[idx], loss_cfg).item())
            val_rows.append(logits.values.reshape(-1))
        val_loss = float(np.mean(val_losses))
        val_auroc = macro_auroc(probabilities(np.vstack(val_rows)), val_targets)
        result.history.append({"epoch": epoch, "train_loss": train_loss,
                               "val_loss": val_loss, "val_auroc": val_auroc})

        if not math.isfinite(val_loss):
            result.diverged = True
            break
        if result.best_val_loss is None or val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            result.best_state = model.state_arrays()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= train_cfg.patience:
                break
        if train_cfg.stop_train_loss is not None \
                and train_loss <= train_cfg.stop_train_loss:
            break

    result.final_state = model.state_arrays()
    return result


def evaluate(model: MolPecoModel, dataset: Dataset, indices: Sequence[int],
             features: Optional[dict[str, MolFeatures]] = None,
             threshold: float = 0.5) -> EvalReport:
    """Per-descriptor and macro metrics of a trained model on one split
    part."""
    if not indices:
        raise DataError("cannot evaluate an empty split")
    feats = _feature_list(dataset, model.config, features)
    scores = _score_split(model, feats, indices)
    targets = dataset.targets[np.asarray(indices, dtype=np.int64)]
    return eval_report(scores, targets, dataset.vocabulary.descriptors, threshold)
