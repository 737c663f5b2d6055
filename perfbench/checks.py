"""Output checks, run once per run after the timed rounds.

Each check compares what the CLI wrote with a computation made apart
from the program (``reference.py``) or with a property the method must
have. A failed check names the CLI operation it condemns; the run then
counts every attempt of that operation as failed.

Tolerances:
- Coulomb entries: the normalized matrix has entries <= 1 and both sides
  evaluate the same closed form, so they agree to a few ulp; 1e-12.
- Eigenvalues: the Jacobi solver stops once the off-diagonal norm is
  below 1e-12 * max(1, |L|_F), and each eigenvalue is then within that
  norm of the diagonal (Weyl); the bound is doubled for rounding.
- Eigenvector residuals: a symmetric Ritz pair's residual is bounded by
  the same norm; the random-walk vector D^-1/2 u / |D^-1/2 u| scales it
  by at most sqrt(d_max / d_min).

``molpeco`` is imported inside the checks that use its public readers
and model: ``run.py`` puts the checkout's ``src`` on the path first.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import corpus
import reference

JACOBI_STOP = 1e-12
AUROC_FLOOR = 0.6
FD_STEP = 1e-5
FD_TOLERANCE = 1e-5
INVARIANCE_MOLECULES = 3
INVARIANCE_TOLERANCE = 1e-10
# A fold may miss its share of the corpus by FOLD_SIZE_SLACK molecules
# plus FOLD_SIZE_SHARE of the corpus. A descriptor is frequent with at
# least FREQUENT_MULTIPLE * min_label_count positives, and a fold's count
# of it may miss its share by FOLD_COUNT_SLACK plus FOLD_RATE_SLACK of
# that share. Over 400 seeds of the 28-molecule corpus the worst misses
# were 2.6 molecules and 1.7 positives beyond the rate slack.
FOLD_SIZE_SLACK = 4.0
FOLD_SIZE_SHARE = 0.02
FREQUENT_MULTIPLE = 2
FOLD_COUNT_SLACK = 3.0
FOLD_RATE_SLACK = 0.1

ATOMIC_NUMBER = {"H": 1, "C": 6, "N": 7, "O": 8, "S": 16}
# the operation a failed check condemns, by artifact and by check
ARTIFACT_OPS = {"cache": "featurize", "split": "split", "checkpoint": "train",
                "history": "train", "report_json": "eval", "report_csv": "eval",
                "embeddings": "embed"}
STEP_OPS = {"check_cleaning": "split", "check_split": "split",
            "check_featurize": "featurize", "check_scores": "eval",
            "check_training": "train", "check_invariance": "embed",
            "check_retrieve": "retrieve", "check_reproducible": "featurize"}


class CheckFailed(Exception):
    def __init__(self, op: str, message: str):
        super().__init__(message)
        self.op = op


def require(ok: bool, op: str, message: str) -> None:
    if not ok:
        raise CheckFailed(op, message)


def read_csv_ids(path) -> list[str]:
    return [row[0] for row in read_csv_rows(path)]


def read_csv_rows(path) -> list[list[str]]:
    """Rows of a CSV the CLI wrote, without ``#`` comments and header."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    return rows[1:]


def read_embedding_csv(path) -> tuple[list[str], np.ndarray]:
    rows = read_csv_rows(path)
    return [row[0] for row in rows], np.array([[float(v) for v in row[1:]] for row in rows])


def run_all(run) -> dict[str, list[str]]:
    """Every check that applies to the run's workload; returns the failed
    ones grouped by the operation they condemn."""
    if run.workload.variant:
        steps = [check_cleaning, check_split, check_featurize, check_scores,
                 check_retrieve, check_reproducible]
        if run.workload.epochs:
            steps += [check_training, check_invariance]
    else:
        steps = [check_retrieve, check_reproducible]
    failures: dict[str, list[str]] = {}
    for step in steps:
        try:
            step(run)
        except CheckFailed as exc:
            failures.setdefault(exc.op, []).append(f"{step.__name__}: {exc}")
        except Exception as exc:  # a check that cannot run condemns its step
            op = STEP_OPS.get(step.__name__, "featurize")
            failures.setdefault(op, []).append(f"{step.__name__}: {exc!r}")
    return failures


def _cleaned(run):
    return reference.recount_cleaning(run.records, run.workload.min_label_count,
                                      (corpus.CONFLICT_LABEL,))


def _split(run) -> dict[str, list[int]]:
    payload = json.loads(run.split_path.read_text(encoding="utf-8"))
    return {part: list(payload[part]) for part in ("train", "val", "test")}


def check_cleaning(run) -> None:
    """1. Cleaned ids and vocabulary equal a recount of the generator's
    records, as the CLI's artifacts show them."""
    ids, vocabulary, _ = _cleaned(run)
    split = _split(run)
    covered = sorted(i for part in split.values() for i in part)
    require(covered == list(range(len(ids))), "split",
            f"split covers {len(covered)} indices, recount keeps {len(ids)} molecules")
    metadata = _checkpoint(run)[0]
    require(metadata.get("descriptors") == vocabulary, "train",
            f"checkpoint descriptors {metadata.get('descriptors')} != {vocabulary}")
    report = json.loads((run.out_dir / f"report_{run.workload.part}.json").read_text())
    named = sorted(set(report) - {"config_hash", "macro", "threshold"})
    require(named == vocabulary, "eval", f"report descriptors {named} != {vocabulary}")
    embedded = read_csv_ids(run.embeddings_path)
    expected = [ids[i] for i in split[run.workload.part]]
    require(embedded == expected, "embed",
            f"embedded ids differ from the recount's {run.workload.part} part")


def check_split(run) -> None:
    """2. Train, val and test are a disjoint cover of near the requested
    sizes, and each frequent descriptor's rate holds in every fold."""
    ids, vocabulary, labels = _cleaned(run)
    split = _split(run)
    n = len(ids)
    seen = [i for part in split.values() for i in part]
    require(len(seen) == len(set(seen)) == n, "split", "folds overlap or miss molecules")
    for part, fraction in zip(("train", "val", "test"), (0.8, 0.1, 0.1)):
        size = len(split[part])
        require(abs(size - fraction * n) <= FOLD_SIZE_SLACK + FOLD_SIZE_SHARE * n, "split",
                f"{part} holds {size} of {n} molecules")
        for name in vocabulary:
            total = sum(name in labels[mol_id] for mol_id in ids)
            if total < FREQUENT_MULTIPLE * run.workload.min_label_count:
                continue
            count = sum(name in labels[ids[i]] for i in split[part])
            slack = FOLD_COUNT_SLACK + FOLD_RATE_SLACK * fraction * total
            require(abs(count - fraction * total) <= slack, "split",
                    f"{part} holds {count} of {total} '{name}' molecules")


def check_featurize(run) -> None:
    """3. Cached matrices equal a numpy Coulomb matrix; cached spectra
    match an independent Laplacian."""
    from molpeco.features import read_feature_cache

    _, features = read_feature_cache(run.cache_path)
    merged = list(dict.fromkeys(record["id"] for record in run.records))
    require(sorted(features) == sorted(merged), "featurize",
            f"cache holds {len(features)} molecules, input has {len(merged)}")
    for mol_id in merged:
        structure = run.structures[mol_id]
        feat = features[mol_id]
        z = [ATOMIC_NUMBER[element] for element in structure["elements"]]
        expected = reference.frobenius_normalized(
            reference.coulomb_matrix(z, structure["coords"]))
        require(list(feat.atomic_numbers) == z, "featurize", f"{mol_id}: atomic numbers")
        deviation = float(np.max(np.abs(feat.matrix - expected)))
        require(deviation <= 1e-12, "featurize",
                f"{mol_id}: Coulomb matrix off by {deviation:.3e}")
        if run.workload.variant == "mol-peco-asym":
            _check_spectrum(mol_id, expected, feat.spectrum)


def _check_spectrum(mol_id: str, weights: np.ndarray, spectrum) -> None:
    require(spectrum is not None, "featurize", f"{mol_id}: no cached spectrum")
    lap = reference.sym_normalized_laplacian(weights)
    stop = JACOBI_STOP * max(1.0, float(np.linalg.norm(lap)))
    values = np.asarray(spectrum.eigenvalues)
    gap = float(np.max(np.abs(values - np.linalg.eigvalsh(lap))))
    require(gap <= 2.0 * stop, "featurize",
            f"{mol_id}: eigenvalues off by {gap:.3e} (bound {2.0 * stop:.3e})")
    degrees = weights.sum(axis=1)
    residual_bound = 2.0 * stop * math.sqrt(degrees.max() / degrees.min())
    lap_rw = reference.random_walk_laplacian(weights)
    vectors = np.asarray(spectrum.eigenvectors)
    norms = np.linalg.norm(vectors, axis=0)
    require(float(np.max(np.abs(norms - 1.0))) <= 1e-12, "featurize",
            f"{mol_id}: eigenvector norms off by {np.max(np.abs(norms - 1.0)):.3e}")
    residual = float(np.max(np.linalg.norm(lap_rw @ vectors - vectors * values, axis=0)))
    require(residual <= residual_bound, "featurize",
            f"{mol_id}: eigen-equation residual {residual:.3e} (bound {residual_bound:.3e})")
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    require(bool(np.all(pivots >= 0.0)), "featurize",
            f"{mol_id}: an eigenvector's largest entry is negative")


def _checkpoint(run):
    from molpeco.checkpoints import load_checkpoint

    return load_checkpoint(run.out_dir / "checkpoint.bin")


def check_scores(run) -> None:
    """5. sigma(embedding . head.w), clipped as ``classify`` documents,
    gives per-descriptor AUROCs equal to the report's."""
    metadata, state = _checkpoint(run)
    require(metadata["model_config"]["clf_layers"] == 1, "eval",
            "scores are recomputed for a one-layer head only")
    ids, embeddings = read_embedding_csv(run.embeddings_path)
    head = state["head.w"]
    # one row at a time, the shape the model multiplies in
    logits = np.vstack([row.reshape(1, -1) @ head for row in embeddings])
    scores = reference.clip_open_unit(reference.sigmoid(logits))
    _, vocabulary, labels = _cleaned(run)
    report = json.loads((run.out_dir / f"report_{run.workload.part}.json").read_text())
    for col, name in enumerate(vocabulary):
        truth = np.array([name in labels[mol_id] for mol_id in ids])
        got = report[name]["auroc"]
        if truth.all() or not truth.any():
            require(got is None, "eval", f"'{name}' has one class but AUROC {got}")
            continue
        expected = reference.auroc_pairwise(scores[:, col], truth)
        require(got is not None and abs(got - expected) <= 1e-12, "eval",
                f"'{name}' AUROC {got} != pairwise count {expected}")


def check_training(run) -> None:
    """4. Finite, falling loss; val AUROC above chance; the gradient at
    the trained checkpoint matches a central finite difference."""
    rows = read_csv_rows(run.out_dir / "history.csv")
    require(len(rows) == run.workload.epochs, "train",
            f"{len(rows)} epochs logged, {run.workload.epochs} requested")
    history = np.array([[float(v) for v in row[1:]] for row in rows])
    require(bool(np.all(np.isfinite(history))), "train", "a logged value is not finite")
    require(history[-1, 0] < history[0, 0], "train",
            f"train loss went {history[0, 0]!r} -> {history[-1, 0]!r}")
    best = float(history[:, 2].max())
    require(best > AUROC_FLOOR, "train", f"best val AUROC {best!r} <= {AUROC_FLOOR}")
    error = gradient_error(run)
    require(error <= FD_TOLERANCE, "train",
            f"gradient vs finite difference: relative error {error:.3e}")


def _restored_model(run):
    from molpeco.model import ModelConfig, MolPecoModel

    metadata, state = _checkpoint(run)
    model = MolPecoModel(ModelConfig.from_dict(metadata["model_config"]), seed=0)
    model.load_state(state)
    return model


def _cleaned_dataset(run):
    from molpeco import chemio

    ds = chemio.merge_duplicates(chemio.parse_molecules(run.data_path))
    ds = chemio.filter_conflicts(ds, (corpus.CONFLICT_LABEL,))
    return chemio.filter_rare_descriptors(ds, run.workload.min_label_count)


def gradient_error(run) -> float:
    """Relative error of the autodiff directional derivative of one train
    molecule's loss against a central difference along a random unit
    direction in parameter space."""
    from molpeco import autodiff
    from molpeco.features import read_feature_cache
    from molpeco.model import forward
    from molpeco.train import LossConfig, compute_loss

    model = _restored_model(run)
    dataset = _cleaned_dataset(run)
    split = _split(run)
    _, features = read_feature_cache(run.cache_path)
    index = split["train"][0]
    feat = features[dataset.molecules[index].id]
    loss_cfg = LossConfig.from_dataset(dataset, split["train"])
    target = dataset.targets[index]

    def loss():
        return compute_loss(forward(feat, model)[0], target, loss_cfg)

    autodiff.backward(loss())
    params = model.parameters()
    rng = np.random.default_rng([run.seed, 41])
    direction = [rng.normal(size=p.tensor.values.shape) for p in params]
    scale = math.sqrt(sum(float((d ** 2).sum()) for d in direction))
    direction = [d / scale for d in direction]
    analytic = sum(float((p.tensor.grad * d).sum()) for p, d in zip(params, direction))
    base = [p.tensor.values.copy() for p in params]
    sides = []
    for sign in (1.0, -1.0):
        for p, b, d in zip(params, base, direction):
            p.tensor.values = b + sign * FD_STEP * d
        sides.append(loss().item())
    numeric = (sides[0] - sides[1]) / (2.0 * FD_STEP)
    return abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)


def check_invariance(run) -> None:
    """5. A few embedded molecules give the same embedding after an atom
    permutation and a rigid motion."""
    from molpeco.chemio import Atom, Molecule
    from molpeco.features import featurize_molecule
    from molpeco.model import forward

    model = _restored_model(run)
    ids, embeddings = read_embedding_csv(run.embeddings_path)
    rng = np.random.default_rng([run.seed, 43])
    for row, mol_id in list(enumerate(ids))[:INVARIANCE_MOLECULES]:
        structure = run.structures[mol_id]
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        coords = structure["coords"] @ rotation.T + rng.normal(size=3) * 5.0
        order = rng.permutation(structure["n"])
        atoms = tuple(Atom(ATOMIC_NUMBER[structure["elements"][i]],
                           tuple(float(c) for c in coords[i])) for i in order)
        feat = featurize_molecule(Molecule(mol_id, atoms), run.workload.variant)
        moved = forward(feat, model)[1].values.reshape(-1)
        scale = max(1.0, float(np.max(np.abs(embeddings[row]))))
        deviation = float(np.max(np.abs(moved - embeddings[row]))) / scale
        require(deviation <= INVARIANCE_TOLERANCE, "embed",
                f"{mol_id}: embedding moved by {deviation:.3e} under permutation "
                "and rigid motion")


def check_retrieve(run) -> None:
    """6. Every query's printed ranking equals a brute-force cosine
    ranking of the same CSV, query excluded, ties broken by id."""
    ids, vectors = read_embedding_csv(run.embeddings_path)
    outputs = run.query_outputs[-1]
    require(bool(outputs), "retrieve", "no query ran")
    for (query_id, k), text in outputs.items():
        printed = [line.split(",") for line in text.splitlines()]
        expected = reference.cosine_top_k(ids, vectors, query_id, k)
        require([row[0] for row in printed] == [str(r) for r in range(1, len(expected) + 1)]
                and [row[1] for row in printed] == [mol_id for mol_id, _ in expected],
                "retrieve", f"query {query_id} k={k}: ranking differs")
        worst = max(abs(float(row[2]) - sim) for row, (_, sim) in zip(printed, expected))
        require(worst <= 1e-12, "retrieve",
                f"query {query_id} k={k}: similarity off by {worst:.3e}")


def check_reproducible(run) -> None:
    """7. Every round wrote byte-identical artifacts and query outputs."""
    for later in run.query_outputs[1:]:
        require(later == run.query_outputs[0], "retrieve", "query output changed")
    for later in run.artifact_hashes[1:]:
        for name, digest in later.items():
            require(digest == run.artifact_hashes[0][name], ARTIFACT_OPS[name],
                    f"{name} differs between rounds")
    for name, digest in (run.artifact_hashes[0].items() if run.artifact_hashes else ()):
        require(digest is not None, ARTIFACT_OPS[name], f"{name} was not written")
