"""Run configuration: one JSON document merging data paths, cleaning rules,
model and training hyperparameters, identified by a content hash that every
output artifact embeds. ``RunConfig`` is the one place where a run setting
is declared, defaulted and checked."""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, fields

from .chemio import DEFAULT_MAX_ATOMS, check_fractions
from .errors import DataError, MolpecoError
from .features import NORMALIZATIONS
from .model import ModelConfig
from .train import TrainConfig


class UsageError(MolpecoError):
    """Bad configuration or command usage (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run. Construction raises UsageError for a value of
    another type than the declared one (a bool is not a number, an int stands
    for a float), for a ``cm_normalization`` not in ``features.NORMALIZATIONS``,
    for a ``threshold`` outside the open interval (0, 1), for a ``max_atoms`` or
    ``min_label_count`` below 1, and for ``fractions`` or any other value out of
    the ranges ``chemio``, ``ModelConfig`` and ``TrainConfig`` take."""

    # paths
    data_path: str = "molecules.jsonl"
    cache_path: str = "features.cache"
    split_path: str = "split.json"
    out_dir: str = "out"
    # dataset cleaning
    max_atoms: int = DEFAULT_MAX_ATOMS
    min_label_count: int = 30
    drop_zero_label: bool = False
    conflict_labels: tuple[str, ...] = ("odorless",)
    # model
    variant: str = "mol-peco-asym"
    d: int = ModelConfig.d
    p: int = ModelConfig.p
    gcn_layers: int = ModelConfig.gcn_layers
    transformer_layers: int = ModelConfig.transformer_layers
    cm_normalization: str = "frobenius"
    clf_layers: int = ModelConfig.clf_layers
    z_max: int = ModelConfig.z_max
    # splitting
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = TrainConfig.seed
    # training
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    threshold: float = 0.5

    def __post_init__(self) -> None:
        for name, hint in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _conforms(value, hint):
                raise UsageError(f"'{name}' must be {self.__annotations__[name]}, got {value!r}")
        if self.cm_normalization not in NORMALIZATIONS:
            raise UsageError(f"'cm_normalization' must be one of {NORMALIZATIONS}, "
                             f"got {self.cm_normalization!r}")
        if not 0.0 < self.threshold < 1.0:  # also false for NaN
            raise UsageError(f"'threshold' must lie in (0, 1), where the reported "
                             f"scores lie, got {self.threshold!r}")
        if min(self.max_atoms, self.min_label_count) < 1:
            raise UsageError(f"'max_atoms' and 'min_label_count' must be >= 1, got "
                             f"{self.max_atoms} and {self.min_label_count}")
        try:
            check_fractions(self.fractions)
            self.model_config(1)
            self.train_config()
        except DataError as exc:
            raise UsageError(str(exc)) from exc

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
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


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the type ``hint``: a bool only for ``bool``,
    an int also for ``float``, and a tuple item by item, of any length
    for ``tuple[T, ...]``."""
    items = typing.get_args(hint)
    if items:
        if not isinstance(value, tuple):
            return False
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        return len(value) == len(items) and all(map(_conforms, value, items))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def resolve_config(path, flags: dict) -> RunConfig:
    """The configuration in the JSON object of the file at ``path`` (none when
    ``path`` is None), lists read as tuples, overridden by each value in
    ``flags`` that is not None and whose key names a field. Raises UsageError
    for a file that cannot be read, is not a UTF-8 JSON object or has an
    unknown key, and for any value RunConfig rejects."""
    payload = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise UsageError(f"cannot read configuration file '{path}': {exc}") from exc
        if not isinstance(payload, dict):
            raise UsageError("configuration file must hold a JSON object")
        unknown = payload.keys() - _FIELD_TYPES.keys()
        if unknown:
            raise UsageError(f"unknown configuration keys: {sorted(unknown)}")
    payload.update((name, value) for name, value in flags.items()
                   if name in _FIELD_TYPES and value is not None)
    return RunConfig(**{name: tuple(value) if isinstance(value, list) else value
                        for name, value in payload.items()})
