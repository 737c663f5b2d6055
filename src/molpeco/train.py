"""Loss, optimization, the training loop with checkpoint-by-minimum
validation loss, and dataset-level evaluation.

The loss is a per-descriptor weighted sum of binary cross-entropy and a
log-ratio regularizer, computed from the head's logits; weights are
1 - n_pos / n_total computed on the training split only. A training batch
runs one forward pass over its molecules, with their atom rows stacked
unpadded, and builds one loss over the (B, o) matrix of their logits;
``predict`` is the one path that scores molecules outside training
(validation, evaluation and embedding export).
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
from .features import MolFeatures
from .metrics import EvalReport, eval_report, macro_auroc
from .model import ModelConfig, MolPecoModel, forward, probabilities

LOSS_EPSILON = 1e-9


@dataclass
class LossConfig:
    """Per-descriptor loss weights."""

    label_weights: np.ndarray

    @classmethod
    def from_dataset(cls, dataset: Dataset, train_indices: Sequence[int]) -> "LossConfig":
        """Weights w_i = 1 - n_pos_i / n_total over the training split only,
        so no label statistics leak from validation or test."""
        rows = dataset.targets[np.asarray(train_indices, dtype=np.int64)]
        n_total = rows.shape[0]
        if n_total == 0:
            raise DataError("cannot derive loss weights from an empty train split")
        weights = 1.0 - rows.sum(axis=0).astype(np.float64) / n_total
        return cls(weights)


def compute_loss(logits: Tensor, y_true, cfg: LossConfig) -> Tensor:
    """Weighted multi-label loss of a batch of molecules from their logits,
    the mean over the rows of per-molecule losses. One row z of the
    (B, o) logit matrix, with p_i = sigmoid(z_i), has the loss

    (1/o) * sum_i w_i * (BCE(t_i, p_i) + |log(p_i + eps) - log(t_i + eps)|)

    with eps = LOSS_EPSILON guarding the log terms.

    BCE is evaluated as (1 - t) * z - log sigmoid(z), which stays finite
    with a bounded gradient however far the logits saturate. The loss is
    one graph node, ``autodiff.multilabel_loss``. The targets are reshaped
    to the logits' shape, so one molecule's (1, o) logits take a 1D target
    row.
    """
    truth = np.asarray(y_true, dtype=np.float64)
    o = cfg.label_weights.shape[0]
    if logits.values.shape[-1:] != (o,) or truth.size != logits.values.size:
        raise DataError(
            f"prediction {logits.values.shape}, target {truth.shape} and "
            f"weights ({o}) must share the descriptor count"
        )

    return ad.multilabel_loss(logits, truth.reshape(logits.values.shape),
                              cfg.label_weights, LOSS_EPSILON)


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
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
            self.m[i] = self.BETA1 * self.m[i] + (1.0 - self.BETA1) * grad
            self.v[i] = self.BETA2 * self.v[i] + (1.0 - self.BETA2) * grad * grad
            m_hat = self.m[i] / (1.0 - self.BETA1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.BETA2 ** self.t)
            p.tensor.values = p.tensor.values - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 1000
    patience: int = 100
    seed: int = 0
    stop_train_loss: Optional[float] = None  # stop once train loss dips below

    def __post_init__(self) -> None:
        if not self.learning_rate > 0 or self.batch_size < 1 or self.max_epochs < 0 \
                or self.patience < 1 or self.seed < 0:
            raise DataError(f"invalid training configuration: {self}")


@dataclass
class TrainResult:
    """Best checkpoint (by validation loss) and the per-epoch history."""

    best_state: dict[str, np.ndarray]
    best_epoch: int
    best_val_loss: Optional[float]
    history: list[dict] = field(default_factory=list)
    diverged: bool = False


def predict(model: MolPecoModel,
            feats: Sequence[MolFeatures]) -> tuple[np.ndarray, np.ndarray]:
    """Logits (B x o) and molecule embeddings (B x d) of B molecules.

    One forward pass scores the whole list without a backward graph, so
    each molecule's positional-encoder intermediates are freed as soon as
    its encoding is computed.
    """
    if not feats:
        return np.empty((0, model.config.o)), np.empty((0, model.config.d))
    with ad.no_grad():
        logits, embeddings = forward(feats, model)
    return logits.values, embeddings.values


def train_loop(dataset: Dataset, split: Split, model_cfg: ModelConfig,
               train_cfg: TrainConfig) -> TrainResult:
    """Train one model on a dataset of ``MolFeatures`` rows, tracking the
    checkpoint with minimal validation loss.

    Each epoch shuffles the training split with a seeded generator, then
    logs train loss, validation loss, and unweighted validation macro
    AUROC. Stops early after ``patience`` epochs without improvement and
    aborts (keeping the best checkpoint) if the loss or a gradient turns
    non-finite.
    """
    if not split.train or not split.val:
        raise DataError("train and validation splits must be non-empty")
    train_feats = [dataset.molecules[i] for i in split.train]
    train_targets = dataset.targets[np.asarray(split.train, dtype=np.int64)]
    val_feats = [dataset.molecules[i] for i in split.val]
    val_targets = dataset.targets[np.asarray(split.val, dtype=np.int64)]
    loss_cfg = LossConfig.from_dataset(dataset, split.train)
    model = MolPecoModel(model_cfg, seed=train_cfg.seed)
    optimizer = Adam(model.parameters(), lr=train_cfg.learning_rate)
    rng = np.random.default_rng([train_cfg.seed, 1])

    result = TrainResult(best_state=model.state_arrays(), best_epoch=0,
                         best_val_loss=None)
    epochs_since_best = 0

    for epoch in range(1, train_cfg.max_epochs + 1):
        order = rng.permutation(len(train_feats))
        epoch_loss_sum = 0.0
        diverged = False
        for start in range(0, order.shape[0], train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            optimizer.zero_grad()
            logits = forward([train_feats[i] for i in batch], model)[0]
            total = compute_loss(logits, train_targets[batch], loss_cfg)
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
        val_logits, _ = predict(model, val_feats)
        val_loss = compute_loss(Tensor(val_logits), val_targets, loss_cfg).item()
        val_auroc = macro_auroc(probabilities(val_logits), val_targets)
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
    return result


def evaluate(model: MolPecoModel, dataset: Dataset, indices: Sequence[int],
             threshold: float = 0.5) -> EvalReport:
    """Per-descriptor and macro metrics of a trained model on one split
    part of a dataset of ``MolFeatures`` rows."""
    if not indices:
        raise DataError("cannot evaluate an empty split")
    logits, _ = predict(model, [dataset.molecules[i] for i in indices])
    targets = dataset.targets[np.asarray(indices, dtype=np.int64)]
    return eval_report(probabilities(logits), targets, dataset.vocabulary.descriptors,
                       threshold)
