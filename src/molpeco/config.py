"""Run configuration: one JSON document merging data paths, cleaning rules,
model and training hyperparameters, identified by a content hash that every
output artifact embeds."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace

from .errors import MolpecoError
from .model import ModelConfig
from .train import TrainConfig


class UsageError(MolpecoError):
    """Bad configuration or command usage (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    # paths
    data_path: str = "molecules.jsonl"
    cache_path: str = "features.cache"
    split_path: str = "split.json"
    out_dir: str = "out"
    # dataset cleaning
    max_atoms: int = 80
    min_label_count: int = 30
    drop_zero_label: bool = False
    conflict_labels: tuple[str, ...] = ("odorless",)
    # model
    variant: str = "mol-peco-asym"
    d: int = 32
    p: int = 20
    gcn_layers: int = 3
    transformer_layers: int = 4
    cm_normalization: str = "frobenius"
    clf_layers: int = 1
    z_max: int = 87
    # splitting
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0
    # training
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 1000
    patience: int = 100
    threshold: float = 0.5

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["conflict_labels"] = list(self.conflict_labels)
        payload["fractions"] = list(self.fractions)
        return payload

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def featurize_signature(self) -> dict:
        """The sub-configuration a feature cache depends on; training
        refuses caches whose signature differs. The cache stores each
        molecule's full spectrum, so ``p`` is not part of it."""
        return {"variant": self.variant, "normalization": self.cm_normalization,
                "max_atoms": self.max_atoms}

    def _shared_fields(self, cls) -> dict:
        """This configuration's values of the fields it shares with the
        dataclass ``cls``."""
        return {f.name: getattr(self, f.name) for f in fields(cls)
                if f.name in _FIELD_TYPES}

    def model_config(self, o: int) -> ModelConfig:
        return ModelConfig(o=o, **self._shared_fields(ModelConfig))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._shared_fields(TrainConfig))


_FIELD_TYPES = {f.name: f for f in fields(RunConfig)}


def _coerce(name: str, value):
    if name == "conflict_labels":
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise UsageError(f"'{name}' must be a list of strings")
        return tuple(value)
    if name == "fractions":
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise UsageError(f"'{name}' must be a list of three numbers")
        return tuple(float(v) for v in value)
    return value


def config_from_dict(payload: dict) -> RunConfig:
    unknown = payload.keys() - _FIELD_TYPES.keys()
    if unknown:
        raise UsageError(f"unknown configuration keys: {sorted(unknown)}")
    coerced = {name: _coerce(name, value) for name, value in payload.items()}
    try:
        return RunConfig(**coerced)
    except TypeError as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError as exc:
        raise UsageError(f"configuration file '{path}' not found") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"configuration file '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError("configuration file must hold a JSON object")
    return config_from_dict(payload)


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Field overrides (from command-line flags) win over the file."""
    cleaned = {name: _coerce(name, value) for name, value in overrides.items()
               if value is not None}
    return replace(config, **cleaned)
