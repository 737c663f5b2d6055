"""Command-line surface: featurize, split, train, eval, sweep, embed,
retrieve.

One JSON configuration file drives every command; flags override file
values. Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric
error. Every output artifact embeds the configuration hash, and identical
configurations reproduce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import chemio
from .checkpoints import load_checkpoint, save_checkpoint
from .config import RunConfig, UsageError, apply_overrides, load_config
from .errors import DataError, MolpecoError, NumericError
from .features import featurize_molecule, read_feature_cache, write_feature_cache
from .metrics import METRIC_NAMES
from .model import ModelConfig, MolPecoModel, forward
from .train import evaluate, train_loop


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_dataset(config: RunConfig, cleaned: bool) -> chemio.Dataset:
    """Parse and merge the dataset; with ``cleaned`` also apply conflict
    and rare-descriptor filtering (the label-dependent steps)."""
    ds = chemio.parse_molecules(config.data_path, max_atoms=config.max_atoms)
    ds = chemio.merge_duplicates(ds)
    if cleaned:
        ds = chemio.filter_conflicts(ds, config.conflict_labels)
        ds = chemio.filter_rare_descriptors(ds, config.min_label_count,
                                            config.drop_zero_label)
    return ds


def _load_features(config: RunConfig):
    header, features = read_feature_cache(config.cache_path)
    expected = config.featurize_signature()
    actual = {key: header.get(key) for key in expected}
    if actual != expected:
        raise DataError(
            f"feature cache was built with {actual}, configuration expects "
            f"{expected}; re-run featurize"
        )
    data_sha = _file_sha256(config.data_path)
    if header.get("dataset_sha256") not in (None, data_sha):
        raise DataError("feature cache was built from a different dataset file; "
                        "re-run featurize")
    return features


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_once(config: RunConfig, dataset, split, features, variant=None,
                transformer_layers=None):
    model_cfg = config.model_config(dataset.num_descriptors)
    if variant is not None or transformer_layers is not None:
        model_cfg = replace(model_cfg,
                            variant=variant or model_cfg.variant,
                            transformer_layers=transformer_layers
                            or model_cfg.transformer_layers)
    result = train_loop(dataset, split, model_cfg, config.train_config(), features)
    return model_cfg, result


def cmd_featurize(config: RunConfig) -> int:
    ds = _load_dataset(config, cleaned=False)
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
    ds = _load_dataset(config, cleaned=True)
    split = chemio.stratified_split(ds, config.fractions, config.seed)
    chemio.save_split(split, config.split_path)
    print(f"split {len(ds)} molecules into {len(split.train)}/{len(split.val)}/"
          f"{len(split.test)} -> {config.split_path} [config {config.config_hash()}]")
    return 0


def cmd_train(config: RunConfig) -> int:
    ds = _load_dataset(config, cleaned=True)
    split = chemio.load_split(config.split_path)
    features = _load_features(config)
    model_cfg, result = _train_once(config, ds, split, features)

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
    (out / "history.csv").write_text(result.history_csv(config.config_hash()),
                                     encoding="utf-8")
    best_auroc = (result.history[result.best_epoch - 1]["val_auroc"]
                  if result.history else float("nan"))
    print(f"best epoch {result.best_epoch}: val_loss={result.best_val_loss!r} "
          f"val_auroc={best_auroc!r} [config {config.config_hash()}]")
    if result.diverged:
        raise NumericError("training diverged (non-finite loss or gradient); "
                           "last good checkpoint retained")
    return 0


def _restore_model(config: RunConfig, checkpoint_path, dataset) -> MolPecoModel:
    metadata, state = load_checkpoint(checkpoint_path)
    descriptors = metadata.get("descriptors")
    if descriptors is not None and list(dataset.vocabulary.descriptors) != descriptors:
        raise DataError("checkpoint descriptors do not match the configured dataset")
    model = MolPecoModel(ModelConfig.from_dict(metadata["model_config"]),
                         seed=config.seed)
    model.load_state(state)
    return model


def cmd_eval(config: RunConfig, part: str) -> int:
    ds = _load_dataset(config, cleaned=True)
    split = chemio.load_split(config.split_path)
    features = _load_features(config)
    indices = split.parts().get(part)
    if indices is None:
        raise UsageError(f"unknown split part '{part}' (expected train, val, or test)")
    out = _out_dir(config)
    model = _restore_model(config, out / "checkpoint.bin", ds)
    report = evaluate(model, ds, indices, features, config.threshold)
    (out / f"report_{part}.json").write_text(report.to_json(config.config_hash()) + "\n",
                                             encoding="utf-8")
    (out / f"report_{part}.csv").write_text(report.to_csv(config.config_hash()),
                                            encoding="utf-8")
    macro = {name: report.macro[name] for name in METRIC_NAMES}
    print(f"{part} macro: " + " ".join(f"{k}={v!r}" for k, v in macro.items())
          + f" [config {config.config_hash()}]")
    return 0


def cmd_sweep(config: RunConfig, depths, variants) -> int:
    if not depths and not variants:
        raise UsageError("sweep needs --depths or --variants")
    if depths and variants:
        raise UsageError("sweep takes either --depths or --variants, not both")
    ds = _load_dataset(config, cleaned=True)
    split = chemio.load_split(config.split_path)
    axis = "transformer_layers" if depths else "variant"
    cached = _load_features(config) if depths else None
    rows = []
    for value in (depths or variants):
        if depths:
            features = cached
            model_cfg, result = _train_once(config, ds, split, features,
                                            transformer_layers=value)
        else:
            # each variant needs its own featurization
            features = {mol.id: featurize_molecule(mol, value, config.cm_normalization)
                        for mol in ds.molecules}
            model_cfg, result = _train_once(config, ds, split, features, variant=value)
        model = MolPecoModel(model_cfg, seed=config.seed)
        model.load_state(result.best_state)
        report = evaluate(model, ds, split.val, features, config.threshold)
        rows.append((value, report.macro))
    out = _out_dir(config)
    lines = [f"# config_hash={config.config_hash()}",
             axis + "," + ",".join(METRIC_NAMES)]
    for value, macro in rows:
        cells = ["" if macro[name] is None else repr(float(macro[name]))
                 for name in METRIC_NAMES]
        lines.append(f"{value}," + ",".join(cells))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for value, macro in rows:
        print(f"{axis}={value}: auroc={macro['auroc']!r}")
    print(f"sweep -> {out / 'sweep.csv'} [config {config.config_hash()}]")
    return 0


def cmd_embed(config: RunConfig, part: str) -> int:
    ds = _load_dataset(config, cleaned=True)
    split = chemio.load_split(config.split_path)
    features = _load_features(config)
    indices = split.parts().get(part)
    if indices is None:
        raise UsageError(f"unknown split part '{part}' (expected train, val, or test)")
    out = _out_dir(config)
    model = _restore_model(config, out / "checkpoint.bin", ds)
    lines = [f"# config_hash={config.config_hash()}",
             "id," + ",".join(f"e{i}" for i in range(model.config.d))]
    for idx in indices:
        mol = ds.molecules[idx]
        feat = features.get(mol.id)
        if feat is None:
            raise DataError(f"no cached features for molecule '{mol.id}'")
        _, embedding = forward(feat, model)
        values = ",".join(repr(float(v)) for v in embedding.values.reshape(-1))
        lines.append(f"{mol.id},{values}")
    path = out / f"embeddings_{part}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(indices)} embeddings -> {path} [config {config.config_hash()}]")
    return 0


def read_embeddings(path) -> dict[str, np.ndarray]:
    embeddings: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        header = next(reader, None)
        if header is None or header[0] != "id":
            raise DataError(f"'{path}' is not an embedding file")
        for row in reader:
            embeddings[row[0]] = np.array([float(v) for v in row[1:]])
    return embeddings


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def retrieve_neighbors(embeddings: dict[str, np.ndarray], query_id: str,
                       k: int = 5) -> list[tuple[str, float]]:
    """Top-k ids by cosine similarity to the query embedding, descending,
    excluding the query; ties break lexicographically by id."""
    if query_id not in embeddings:
        raise DataError(f"unknown molecule id '{query_id}'")
    query = embeddings[query_id]
    scored = [(mol_id, cosine_similarity(query, vector))
              for mol_id, vector in embeddings.items() if mol_id != query_id]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def cmd_retrieve(embeddings_path, query_id: str, k: int) -> int:
    neighbors = retrieve_neighbors(read_embeddings(embeddings_path), query_id, k)
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
    parser.add_argument("--variant", dest="variant",
                        choices=["adjacency-gcn", "coulomb-gcn",
                                 "mol-peco-sym", "mol-peco-asym"])
    parser.add_argument("--normalization", dest="cm_normalization",
                        choices=["frobenius", "minmax", "none"])
    parser.add_argument("--p", type=int, dest="p")
    parser.add_argument("--min-count", type=int, dest="min_label_count")
    parser.add_argument("--drop-zero-label", action="store_const", const=True,
                        dest="drop_zero_label")
    parser.add_argument("--lr", type=float, dest="learning_rate")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--epochs", type=int, dest="max_epochs")
    parser.add_argument("--patience", type=int, dest="patience")


def _resolve_config(args) -> RunConfig:
    """The configuration file (or the defaults), overridden by every parsed
    flag whose destination names a ``RunConfig`` field."""
    config = load_config(args.config) if args.config else RunConfig()
    names = {f.name for f in fields(RunConfig)}
    overrides = {name: value for name, value in vars(args).items() if name in names}
    return apply_overrides(config, overrides)


def build_parser() -> argparse.ArgumentParser:
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
    config = _resolve_config(args)
    if args.command == "featurize":
        return cmd_featurize(config)
    if args.command == "split":
        return cmd_split(config)
    if args.command == "train":
        return cmd_train(config)
    if args.command == "eval":
        return cmd_eval(config, args.part)
    if args.command == "sweep":
        depths = [int(v) for v in args.depths.split(",")] if args.depths else None
        variants = args.variants.split(",") if args.variants else None
        return cmd_sweep(config, depths, variants)
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
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MolpecoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
