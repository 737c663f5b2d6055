"""Command-line surface: featurize, split, train, eval, sweep, embed,
retrieve.

One JSON configuration file drives every command; flags override file
values. Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric
error. Every output artifact embeds the configuration hash, and identical
configurations reproduce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import os
import sys
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import chemio
from .checkpoints import (load_checkpoint, read_arrays, replacing, save_checkpoint,
                          write_arrays, write_csv)
from .config import RunConfig, UsageError, resolve_config
from .errors import DataError, MolpecoError, NumericError
from .features import (NORMALIZATIONS, featurize_molecule, read_feature_cache,
                       write_feature_cache)
from .metrics import METRIC_NAMES
# forward is unused here, but perfbench/layers.py traces it as cli.forward
from .model import VARIANTS, ModelConfig, MolPecoModel, forward
from .train import evaluate, predict, train_loop


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_dataset(config: RunConfig) -> chemio.Dataset:
    """Parse the dataset file and merge duplicate ids."""
    ds = chemio.parse_molecules(config.data_path, max_atoms=config.max_atoms)
    return chemio.merge_duplicates(ds)


def _clean(config: RunConfig, ds: chemio.Dataset) -> chemio.Dataset:
    """Conflict and rare-descriptor filtering (the label-dependent steps)."""
    ds = chemio.filter_conflicts(ds, config.conflict_labels)
    return chemio.filter_rare_descriptors(ds, config.min_label_count,
                                          config.drop_zero_label)


def _load_cached(config: RunConfig) -> chemio.Dataset:
    """The cleaned dataset, one ``MolFeatures`` row per molecule, from a
    feature cache built under this configuration from the dataset file as
    it is, which is only hashed, not parsed."""
    header, features = read_feature_cache(config.cache_path)
    expected = config.featurize_signature()
    actual = {key: header.get(key) for key in expected}
    if actual != expected:
        raise DataError(
            f"feature cache was built with {actual}, configuration expects "
            f"{expected}; re-run featurize"
        )
    data_sha = header.get("dataset_sha256")
    if data_sha is None:
        raise DataError("feature cache does not record which dataset file it was "
                        "built from; re-run featurize")
    if data_sha != _file_sha256(config.data_path):
        raise DataError("feature cache was built from a different dataset file; "
                        "re-run featurize")
    return _clean(config, chemio.build_dataset(list(features.values())))


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_featurize(config: RunConfig) -> int:
    ds = _parse_dataset(config)
    features = [featurize_molecule(mol, config.variant, config.cm_normalization)
                for mol in ds.molecules]
    header = dict(config.featurize_signature())
    header["dataset_sha256"] = _file_sha256(config.data_path)
    header["config_hash"] = config.config_hash()
    write_feature_cache(config.cache_path, features, header)
    print(f"featurized {len(features)} molecules -> {config.cache_path} "
          f"[config {config.config_hash()}]")
    return 0


def cmd_split(config: RunConfig) -> int:
    ds = _clean(config, _parse_dataset(config))
    split = chemio.stratified_split(ds, config.fractions, config.seed)
    chemio.save_split(split, config.split_path)
    print(f"split {len(ds)} molecules into {len(split.train)}/{len(split.val)}/"
          f"{len(split.test)} -> {config.split_path} [config {config.config_hash()}]")
    return 0


def cmd_train(config: RunConfig) -> int:
    ds = _load_cached(config)
    split = chemio.load_split(config.split_path, len(ds))
    model_cfg = config.model_config(ds.num_descriptors)
    result = train_loop(ds, split, model_cfg, config.train_config())

    out = _out_dir(config)
    metadata = {
        "config_hash": config.config_hash(),
        "model_config": asdict(model_cfg),
        "train_config": asdict(config.train_config()),
        "epoch": result.best_epoch,
        "val_loss": result.best_val_loss,
        "descriptors": list(ds.vocabulary.descriptors),
        "diverged": result.diverged,
    }
    save_checkpoint(out / "checkpoint.bin", result.best_state, metadata)
    write_csv(out / "history.csv", config.config_hash(),
              ("epoch", "train_loss", "val_loss", "val_auroc"), map(dict.values, result.history))
    best_auroc = (result.history[result.best_epoch - 1]["val_auroc"]
                  if result.history else float("nan"))
    print(f"best epoch {result.best_epoch}: val_loss={result.best_val_loss!r} "
          f"val_auroc={best_auroc!r} [config {config.config_hash()}]")
    if result.diverged:
        raise NumericError("training diverged (non-finite loss or gradient); "
                           "last good checkpoint retained")
    return 0


def _load_part(config: RunConfig, part: str):
    """The cleaned dataset, the indices of one split part, the output
    directory and the model restored from its checkpoint. A checkpoint
    whose header is not an object or holds no valid model configuration
    raises DataError."""
    ds = _load_cached(config)
    split = chemio.load_split(config.split_path, len(ds))
    indices = split.parts().get(part)
    if indices is None:
        raise UsageError(f"unknown split part '{part}' (expected train, val, or test)")
    out = _out_dir(config)
    metadata, state = load_checkpoint(out / "checkpoint.bin")
    if not isinstance(metadata, dict):
        raise DataError("checkpoint header is not an object; re-run train")
    descriptors = metadata.get("descriptors")
    if descriptors is not None and list(ds.vocabulary.descriptors) != descriptors:
        raise DataError("checkpoint descriptors do not match the configured dataset")
    try:
        model_cfg = ModelConfig.from_dict(metadata["model_config"])
    except (KeyError, TypeError, DataError) as exc:
        raise DataError(f"checkpoint holds no valid model configuration "
                        f"({type(exc).__name__}: {exc}); re-run train") from exc
    model = MolPecoModel(model_cfg, seed=config.seed)
    model.load_state(state)
    return ds, indices, out, model


def cmd_eval(config: RunConfig, part: str) -> int:
    ds, indices, out, model = _load_part(config, part)
    report = evaluate(model, ds, indices, config.threshold)
    with replacing(out / f"report_{part}.json") as handle:
        handle.write(report.to_json(config.config_hash()) + "\n")
    rows = [*report.per_descriptor.items(), ("macro", report.macro)]
    write_csv(out / f"report_{part}.csv", config.config_hash(), ("descriptor", *METRIC_NAMES),
              ([name, *map(metrics.get, METRIC_NAMES)] for name, metrics in rows))
    macro = {name: report.macro[name] for name in METRIC_NAMES}
    print(f"{part} macro: " + " ".join(f"{k}={v!r}" for k, v in macro.items())
          + f" [config {config.config_hash()}]")
    return 0


def cmd_sweep(config: RunConfig, depths: str | None, variants: str | None) -> int:
    """Validation metrics of one model per comma-separated transformer depth
    or variant, each row's configuration checked before anything is read."""
    if bool(depths) == bool(variants):
        raise UsageError("sweep takes one of --depths and --variants")
    if depths:
        axis = "transformer_layers"
        try:
            values = [int(v) for v in depths.split(",")]
        except ValueError:
            raise UsageError(f"--depths must be comma-separated integers, "
                             f"got '{depths}'") from None
    else:
        axis, values = "variant", variants.split(",")
    rows = [replace(config, **{axis: value}) for value in values]
    ds = _load_cached(config) if depths else _clean(config, _parse_dataset(config))
    split = chemio.load_split(config.split_path, len(ds))
    macros = []
    for row in rows:
        featurized = ds
        if variants:
            # the cache holds one variant's features: each row featurizes its own
            featurized = chemio.Dataset([featurize_molecule(mol, row.variant, row.cm_normalization)
                                         for mol in ds.molecules], ds.vocabulary, ds.targets)
        model_cfg = row.model_config(ds.num_descriptors)
        result = train_loop(featurized, split, model_cfg, row.train_config())
        model = MolPecoModel(model_cfg, seed=row.seed)
        model.load_state(result.best_state)
        macros.append(evaluate(model, featurized, split.val, row.threshold).macro)
    out = _out_dir(config)
    write_csv(out / "sweep.csv", config.config_hash(), (axis, *METRIC_NAMES),
              ([value, *map(macro.get, METRIC_NAMES)] for value, macro in zip(values, macros)))
    for value, macro in zip(values, macros):
        print(f"{axis}={value}: auroc={macro['auroc']!r}")
    print(f"sweep -> {out / 'sweep.csv'} [config {config.config_hash()}]")
    return 0


def cmd_embed(config: RunConfig, part: str) -> int:
    ds, indices, out, model = _load_part(config, part)
    _, embeddings = predict(model, [ds.molecules[i] for i in indices])
    path = out / f"embeddings_{part}.csv"
    header = ["id", *(f"e{i}" for i in range(model.config.d))]
    write_csv(path, config.config_hash(), header,
              ([ds.molecules[idx].id, *row] for idx, row in zip(indices, embeddings)))
    print(f"wrote {len(indices)} embeddings -> {path} [config {config.config_hash()}]")
    return 0


EMBEDDINGS_MAGIC = b"MPEM0001"


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    """The ids and the ``(N, d)`` float64 vectors of an embedding CSV.

    A parse that passes every check writes a binary copy, ``<path>.bin``,
    keyed by the SHA-256 of the CSV's bytes; a later read of the same
    bytes returns the copy's ids and vectors without parsing. When the
    copy is missing, stale or unreadable, the CSV is parsed and the copy
    rewritten; a copy that cannot be written is skipped, since the CSV
    stays the source of truth.

    Raises DataError for a file that is not ``id,e0..e{d-1}``, a ragged
    row, a non-numeric or non-finite cell, or an empty or repeated id.
    """
    # the parse decodes the bytes that were hashed; closing the stream after
    # decoding frees them before the numbers are parsed
    with open(path, "rb") as handle:
        data = io.BytesIO(handle.read())
    digest = hashlib.sha256(data.getvalue()).hexdigest()
    copy = os.fspath(path) + ".bin"
    stored = _read_embedding_copy(copy, digest)
    if stored is not None:
        return stored
    ids, vectors = _parse_embeddings(path, data)
    with contextlib.suppress(OSError):
        write_arrays(copy, EMBEDDINGS_MAGIC, {"vectors": vectors},
                     {"csv_sha256": digest, "ids": ids})
    return ids, vectors


def _read_embedding_copy(copy, digest: str) -> tuple[list[str], np.ndarray] | None:
    """The ``(ids, vectors)`` a binary copy holds for CSV bytes hashing to
    ``digest``, or None if it is missing, unreadable or for other bytes."""
    try:
        header, arrays = read_arrays(copy, EMBEDDINGS_MAGIC, "binary embedding copy")
    except (OSError, DataError):
        return None
    if not isinstance(header, dict) or header.get("csv_sha256") != digest:
        return None
    ids, vectors = header.get("ids"), arrays.get("vectors")
    if (isinstance(ids, list) and all(isinstance(mol_id, str) for mol_id in ids)
            and vectors is not None and vectors.ndim == 2 and len(vectors) == len(ids)):
        return ids, vectors
    return None


def _parse_embeddings(path, data: io.BytesIO) -> tuple[list[str], np.ndarray]:
    """Parse and check the CSV bytes ``data`` read from ``path``."""
    # a text stream, not str.splitlines: the same universal-newline
    # splitting as reading the file in text mode
    try:
        with io.TextIOWrapper(data, encoding="utf-8") as handle:
            lines = [line for line in handle if not line.startswith("#")]
    except UnicodeDecodeError as exc:
        raise DataError(f"'{path}' is not UTF-8 text ({exc})") from exc
    if not lines or lines[0].rstrip("\n").split(",")[0] != "id":
        raise DataError(f"'{path}' is not an embedding file")
    width = lines[0].count(",")
    ids, rest = [], []
    for line in lines[1:]:
        mol_id, _, values = line.partition(",")
        ids.append(mol_id)
        rest.append(values)
    if not ids:
        raise DataError(f"'{path}' holds no embeddings")
    try:
        vectors = np.loadtxt(rest, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DataError(f"'{path}': malformed embedding row ({exc})") from exc
    # loadtxt skips empty lines, so a row holding only an id drops out here
    if vectors.shape != (len(ids), width):
        raise DataError(f"'{path}': {len(ids)} rows of {width} values expected, "
                        f"read {vectors.shape[0]} of {vectors.shape[1]}")
    if "" in ids:
        raise DataError(f"'{path}': row {ids.index('') + 1} has an empty id")
    if len(set(ids)) != len(ids):
        repeated = next(mol_id for mol_id, n in Counter(ids).items() if n > 1)
        raise DataError(f"'{path}': id '{repeated}' appears more than once")
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise DataError(f"'{path}': id '{ids[int(np.argmin(finite))]}' has a "
                        "non-finite value")
    return ids, vectors


def retrieve_neighbors(ids: list[str], vectors: np.ndarray, query_id: str,
                       k: int = 5) -> list[tuple[str, float]]:
    """Top-k ids by cosine similarity to the query's row, descending,
    excluding the query; ties break lexicographically by id. A zero
    vector has similarity 0.0 to everything."""
    try:
        row = ids.index(query_id)
    except ValueError:
        raise DataError(f"unknown molecule id '{query_id}'") from None
    # einsum, not BLAS gemv: a vector repeated at any row position must get
    # a bit-identical similarity, so that the id order decides the tie
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    dots = np.einsum("ij,j->i", vectors, vectors[row])
    denom = norms * norms[row]
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
    k = min(k, len(ids) - 1)
    if k < 1:
        return []
    # only rows at or above the k-th similarity, ties included, can reach
    # the top k; sorting just those gives the full sort's first k rows
    keys = -sims
    keys[row] = np.inf
    cut = np.partition(keys, k - 1)[k - 1]
    # not `keys <= cut`: a NaN similarity (overflowed norms) sorts last and
    # a NaN cut must keep every row
    candidates = np.flatnonzero(~(keys > cut))
    candidates = candidates[candidates != row]
    order = np.lexsort((np.array([ids[i] for i in candidates]), keys[candidates]))
    return [(ids[i], float(sims[i])) for i in candidates[order[:k]]]


def cmd_retrieve(embeddings_path, query_id: str, k: int) -> int:
    if k < 1:
        raise UsageError(f"--k must be at least 1, got {k}")
    neighbors = retrieve_neighbors(*read_embeddings(embeddings_path), query_id, k)
    for rank, (mol_id, similarity) in enumerate(neighbors, start=1):
        print(f"{rank},{mol_id},{similarity!r}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--data", dest="data_path", help="molecule JSONL path")
    parser.add_argument("--cache", dest="cache_path", help="feature cache path")
    parser.add_argument("--split-file", dest="split_path", help="split JSON path")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--seed", type=int, dest="seed")
    parser.add_argument("--variant", dest="variant", choices=VARIANTS)
    parser.add_argument("--normalization", dest="cm_normalization",
                        choices=NORMALIZATIONS)
    parser.add_argument("--p", type=int, dest="p")
    parser.add_argument("--min-count", type=int, dest="min_label_count")
    parser.add_argument("--drop-zero-label", action="store_const", const=True,
                        dest="drop_zero_label")
    parser.add_argument("--lr", type=float, dest="learning_rate")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--epochs", type=int, dest="max_epochs")
    parser.add_argument("--patience", type=int, dest="patience")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused by every later
    ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="molpeco",
        description="Multi-label odor descriptor prediction from 3D structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("featurize", "compute per-molecule matrices and spectra"),
        ("split", "clean the dataset and write a stratified split"),
        ("train", "train a model and checkpoint the best epoch"),
        ("eval", "evaluate a checkpoint on one split part"),
        ("sweep", "train one model per depth or variant"),
        ("embed", "export molecule embeddings"),
        ("retrieve", "nearest neighbours by cosine similarity"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name != "retrieve":
            _add_common(p)
        if name in ("eval", "embed"):
            p.add_argument("--part", default="test", choices=["train", "val", "test"])
        if name == "sweep":
            p.add_argument("--depths", help="comma-separated transformer depths")
            p.add_argument("--variants", help="comma-separated model variants")
        if name == "retrieve":
            p.add_argument("--embeddings", required=True, help="embedding CSV path")
            p.add_argument("--query", required=True, help="query molecule id")
            p.add_argument("--k", type=int, default=5)
    return parser


def run(args) -> int:
    if args.command == "retrieve":
        return cmd_retrieve(args.embeddings, args.query, args.k)
    config = resolve_config(args.config, vars(args))
    if args.command == "featurize":
        return cmd_featurize(config)
    if args.command == "split":
        return cmd_split(config)
    if args.command == "train":
        return cmd_train(config)
    if args.command == "eval":
        return cmd_eval(config, args.part)
    if args.command == "sweep":
        return cmd_sweep(config, args.depths, args.variants)
    if args.command == "embed":
        return cmd_embed(config, args.part)
    raise UsageError(f"unknown command '{args.command}'")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MolpecoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
