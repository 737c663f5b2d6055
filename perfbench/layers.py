"""The per-layer metrics of a traced run and the wrappers that feed them.

A layer is a module of ``molpeco``. Each public function is wrapped where
its caller looks it up (``molpeco.train.forward`` and
``molpeco.cli.forward`` are the same function reached from two modules).
Times are self time: a span's duration minus the spans nested in it, so
``features.laplacian_s`` excludes the eigensolver it calls. The ``cli.*``
stage times are the exception: they are whole command wall times.
"""

from __future__ import annotations

import os

from spans import Tracer

# name, unit, better, (kind, span or counter name); kind is "self",
# "total", "calls" or "counter"
PER_LAYER = (
    ("cli.featurize_s", "s", "lower", ("total", "cli.featurize")),
    ("cli.split_s", "s", "lower", ("total", "cli.split")),
    ("cli.train_s", "s", "lower", ("total", "cli.train")),
    ("cli.eval_s", "s", "lower", ("total", "cli.eval")),
    ("cli.embed_s", "s", "lower", ("total", "cli.embed")),
    ("cli.retrieve_s", "s", "lower", ("total", "cli.retrieve")),
    ("cli.read_embeddings_s", "s", "lower", ("self", "cli.read_embeddings")),
    ("cli.retrieve_neighbors_s", "s", "lower", ("self", "cli.retrieve_neighbors")),
    ("chemio.parse_s", "s", "lower", ("self", "chemio.parse")),
    ("chemio.parse_calls", "count", "lower", ("calls", "chemio.parse")),
    ("chemio.clean_s", "s", "lower", ("self", "chemio.clean")),
    ("chemio.split_s", "s", "lower", ("self", "chemio.split")),
    ("features.eig_s", "s", "lower", ("self", "features.eig")),
    ("features.eig_calls", "count", "lower", ("calls", "features.eig")),
    ("features.laplacian_s", "s", "lower", ("self", "features.laplacian")),
    ("features.coulomb_s", "s", "lower", ("self", "features.coulomb")),
    ("features.cache_write_s", "s", "lower", ("self", "features.cache_write")),
    ("features.cache_read_s", "s", "lower", ("self", "features.cache_read")),
    ("features.cache_read_calls", "count", "lower", ("calls", "features.cache_read")),
    ("features.cache_mb", "MB", "lower", ("counter", "features.cache_mb")),
    ("model.forward_s", "s", "lower", ("self", "model.forward")),
    ("model.forward_calls", "count", "lower", ("calls", "model.forward")),
    ("model.gcn_s", "s", "lower", ("self", "model.gcn")),
    ("model.head_s", "s", "lower", ("self", "model.head")),
    ("model.lpe_s", "s", "lower", ("self", "model.lpe")),
    ("autodiff.backward_s", "s", "lower", ("self", "autodiff.backward")),
    ("autodiff.backward_calls", "count", "lower", ("calls", "autodiff.backward")),
    ("autodiff.graph_nodes", "count", "lower", ("counter", "autodiff.graph_nodes")),
    ("train.loss_s", "s", "lower", ("self", "train.loss")),
    ("train.adam_s", "s", "lower", ("self", "train.adam")),
    ("train.epochs", "count", "lower", ("counter", "train.epochs")),
    ("train.evaluate_s", "s", "lower", ("self", "train.evaluate")),
    ("metrics.report_s", "s", "lower", ("self", "metrics.report")),
    ("metrics.val_auroc_s", "s", "lower", ("self", "metrics.val_auroc")),
    ("checkpoints.save_s", "s", "lower", ("self", "checkpoints.save")),
    ("checkpoints.load_s", "s", "lower", ("self", "checkpoints.load")),
)


def graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through ``Tensor.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer) -> None:
    from molpeco import autodiff, chemio, cli, features, model, train

    wrap = tracer.wrap
    wrap(chemio, "parse_molecules", "chemio.parse")
    for name in ("merge_duplicates", "filter_conflicts", "filter_rare_descriptors"):
        wrap(chemio, name, "chemio.clean")
    wrap(chemio, "stratified_split", "chemio.split")
    wrap(features, "coulomb_matrix", "features.coulomb")
    for name in ("laplacian", "sym_normalized_laplacian", "asym_normalized_laplacian"):
        wrap(features, name, "features.laplacian")
    wrap(features, "eig_symmetric", "features.eig")
    wrap(cli, "write_feature_cache", "features.cache_write",
         after=lambda result, args: tracer.count("features.cache_mb",
                                                 os.path.getsize(args[0]) / 1e6))
    wrap(cli, "read_feature_cache", "features.cache_read")
    wrap(train, "forward", "model.forward")
    wrap(cli, "forward", "model.forward")
    wrap(model, "lpe_forward", "model.lpe")
    wrap(model, "gcn_forward", "model.gcn")
    wrap(model, "sum_pool", "model.head")
    wrap(model, "classify", "model.head")
    wrap(autodiff, "backward", "autodiff.backward",
         before=lambda args: tracer.count("autodiff.graph_nodes", graph_nodes(args[0])))
    wrap(train, "compute_loss", "train.loss")
    wrap(train.Adam, "step", "train.adam")
    wrap(cli, "train_loop", "train.train_loop",
         after=lambda result, args: tracer.count("train.epochs", len(result.history)))
    wrap(cli, "evaluate", "train.evaluate")
    wrap(train, "eval_report", "metrics.report")
    wrap(train, "macro_auroc", "metrics.val_auroc")
    wrap(cli, "save_checkpoint", "checkpoints.save")
    wrap(cli, "load_checkpoint", "checkpoints.load")
    wrap(cli, "read_embeddings", "cli.read_embeddings")
    wrap(cli, "retrieve_neighbors", "cli.retrieve_neighbors")


def round_values(table: dict[str, float]) -> dict[str, float]:
    """One round's per-layer metrics; a layer that did not run reads 0."""
    values = {}
    for name, _, _, (kind, source) in PER_LAYER:
        key = source if kind == "counter" else f"{source}.{kind}"
        values[name] = float(table.get(key, 0.0))
    return values
