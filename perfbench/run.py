"""molpeco benchmark: runs the real CLI in one process on seeded synthetic
inputs, checks every output, and prints the metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gcn-train --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's public functions and reports the per-layer metrics instead.
The load is one closed loop: each command starts when the previous one
has ended. A run repeats its workload's round until ``--seconds`` have
passed, always finishing the round it is in.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy loads, or OpenBLAS starts one per core
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

WORK_DIR = ".perfbench-work"
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """A workload with a ``variant`` runs the CLI pipeline on a molecule
    corpus; one without queries a generated embedding library.
    ``molecules`` is the input size that ``mols_per_s`` counts."""

    name: str
    molecules: int
    variant: str = ""
    min_label_count: int = 0
    epochs: int = 0
    part: str = ""


# retrieve queries closing a pipeline round: (position among the embedded
# rows as a fraction, k)
PIPELINE_QUERIES = tuple((position / 9, k) for position, k
                         in enumerate((5, 1, 10, 3, 20, 5, 1, 10, 3, 20)))
WORKLOADS = {
    "gcn-train": Workload("gcn-train", molecules=300, variant="coulomb-gcn",
                          min_label_count=12, epochs=10, part="test"),
    "lpe-spectral": Workload("lpe-spectral", molecules=28, variant="mol-peco-asym",
                             min_label_count=3, epochs=0, part="train"),
    "retrieve-library": Workload("retrieve-library", molecules=8503),
}
LIBRARY_DIM = 32
LIBRARY_CLUSTERS = 64
LIBRARY_DUPLICATES = 0.02
LIBRARY_KS = (1, 5, 20, 100)
LIBRARY_QUERIES = 8


@dataclass
class Run:
    """Inputs of one run and what its rounds produced."""

    workload: Workload
    seed: int
    work: Path
    records: list = field(default_factory=list)
    structures: dict = field(default_factory=dict)
    library_ids: list = field(default_factory=list)
    library_vectors: np.ndarray | None = None
    library_queries: list = field(default_factory=list)
    # per round: seconds inside CLI commands, the glue between them excluded
    round_seconds: list = field(default_factory=list)
    query_seconds: list = field(default_factory=list)
    # per round: artifact name -> sha256, and query (id, k) -> printed text
    artifact_hashes: list = field(default_factory=list)
    query_outputs: list = field(default_factory=list)
    attempts: dict = field(default_factory=dict)
    exit_failures: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    @property
    def config_path(self) -> Path:
        return self.work / "run.json"

    @property
    def data_path(self) -> Path:
        return self.work / "molecules.jsonl"

    @property
    def cache_path(self) -> Path:
        return self.work / "features.cache"

    @property
    def split_path(self) -> Path:
        return self.work / "split.json"

    @property
    def out_dir(self) -> Path:
        return self.work / "out"

    @property
    def embeddings_path(self) -> Path:
        if self.workload.part:
            return self.out_dir / f"embeddings_{self.workload.part}.csv"
        return self.work / "library.csv"

    def artifacts(self) -> dict[str, Path]:
        part = self.workload.part
        return {"cache": self.cache_path, "split": self.split_path,
                "checkpoint": self.out_dir / "checkpoint.bin",
                "history": self.out_dir / "history.csv",
                "report_json": self.out_dir / f"report_{part}.json",
                "report_csv": self.out_dir / f"report_{part}.csv",
                "embeddings": self.embeddings_path}


def prepare_inputs(run: Run) -> None:
    """Generate and write the workload's inputs from its seed."""
    workload = run.workload
    if workload.variant:
        run.records, run.structures = corpus.make_molecule_corpus(
            run.seed, workload.molecules, workload.min_label_count)
        corpus.write_jsonl(run.records, run.data_path)
        config = {"data_path": str(run.data_path), "cache_path": str(run.cache_path),
                  "split_path": str(run.split_path), "out_dir": str(run.out_dir),
                  "variant": workload.variant,
                  "min_label_count": workload.min_label_count,
                  "conflict_labels": [corpus.CONFLICT_LABEL], "seed": 0}
        run.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return
    run.library_ids, run.library_vectors = corpus.make_embedding_library(
        run.seed, workload.molecules, LIBRARY_DIM, LIBRARY_CLUSTERS, LIBRARY_DUPLICATES)
    corpus.write_embedding_csv(run.library_ids, run.library_vectors, run.embeddings_path)
    # half the queries sit on a vector that other rows repeat exactly
    _, first, counts = np.unique(run.library_vectors, axis=0, return_index=True,
                                 return_counts=True)
    repeated = first[counts > 1]
    rng = np.random.default_rng([run.seed, 31])
    rows = list(rng.choice(repeated, size=LIBRARY_QUERIES // 2, replace=False))
    rows += list(rng.choice(len(run.library_ids), size=LIBRARY_QUERIES - len(rows),
                            replace=False))
    run.library_queries = [(run.library_ids[int(row)], LIBRARY_KS[i % len(LIBRARY_KS)])
                           for i, row in enumerate(rows)]


def call_cli(run: Run, cli, tracer: Tracer | None, op: str, argv: list[str]):
    """One CLI command in this process: (exit code, stdout, seconds).

    Garbage left by earlier commands is collected first, outside the
    timing: run as its own process, a command would not pay for it.
    """
    out, err = io.StringIO(), io.StringIO()
    run.attempts[op] = run.attempts.get(op, 0) + 1
    gc.collect()
    span = tracer.span(f"cli.{op}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the loop must go on; the failure is counted below
        code = 1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    run.round_seconds[-1] += elapsed
    if code != 0:
        run.exit_failures[op] = run.exit_failures.get(op, 0) + 1
        run.messages.append(f"{op} {argv[1:]} exited {code}: {err.getvalue().strip()}")
    return code, out.getvalue(), elapsed


def pipeline_round(run: Run, cli, tracer) -> dict:
    workload = run.workload
    config = ["--config", str(run.config_path)]
    part = ["--part", workload.part]
    commands = [
        ("featurize", ["featurize", *config]),
        ("split", ["split", *config]),
        ("train", ["train", *config, "--epochs", str(workload.epochs),
                   "--patience", str(max(1, workload.epochs))]),
        ("eval", ["eval", *config, *part]),
        ("embed", ["embed", *config, *part]),
    ]
    for op, argv in commands:
        call_cli(run, cli, tracer, op, argv)
    ids = checks.read_csv_ids(run.embeddings_path) if run.embeddings_path.exists() else []
    queries = [(ids[round(fraction * (len(ids) - 1))], k)
               for fraction, k in PIPELINE_QUERIES] if ids else []
    return run_queries(run, cli, tracer, queries)


def run_queries(run: Run, cli, tracer, queries) -> dict:
    outputs = {}
    for query_id, k in queries:
        _, text, elapsed = call_cli(run, cli, tracer, "retrieve",
                                    ["retrieve", "--embeddings", str(run.embeddings_path),
                                     "--query", query_id, "--k", str(k)])
        outputs[(query_id, k)] = text
        run.query_seconds.append(elapsed)
    return outputs


def file_sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def measure(run: Run, seconds: float, tracer: Tracer | None, cli) -> None:
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.round = len(run.round_seconds)
        run.round_seconds.append(0.0)
        if run.workload.variant:
            outputs = pipeline_round(run, cli, tracer)
        else:
            outputs = run_queries(run, cli, tracer, run.library_queries)
        if tracer:
            tracer.round = None
        run.query_outputs.append(outputs)
        if run.workload.variant:
            run.artifact_hashes.append({name: file_sha256(path)
                                        for name, path in run.artifacts().items()})
        if time.perf_counter() - start >= seconds:
            break


def import_program(root: Path):
    """Import ``molpeco`` from the checkout's ``src``, and only from there."""
    src = root / "src"
    if not (src / "molpeco" / "__init__.py").is_file():
        raise SystemExit(f"no molpeco package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("molpeco.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"molpeco was imported from {cli.__file__}, not {src}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    start = time.perf_counter()
    cli = import_program(root)
    import_seconds = time.perf_counter() - start

    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, work)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepare_inputs(run)
        setup_times.append(time.perf_counter() - start)
    setup_seconds = import_seconds + statistics.median(setup_times)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    try:
        measure(run, args.seconds, tracer, cli)
    finally:
        if tracer:
            tracer.unwrap_all()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = checks.run_all(run)
    for op, problems in sorted(failures.items()):
        for problem in problems:
            print(f"check failed [{op}]: {problem}", file=sys.stderr)
    for message in run.messages:
        print(message, file=sys.stderr)
    attempted = sum(run.attempts.values())
    failed = sum(count if op in failures else run.exit_failures.get(op, 0)
                 for op, count in run.attempts.items())

    mols_per_s = statistics.median(workload.molecules / seconds
                                   for seconds in run.round_seconds)
    if tracer:
        spans_dir = root / WORK_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{workload.name}-seed{args.seed}.jsonl")
        table = tracer.per_round()
        rounds = [layers.round_values(table[index]) for index in range(len(run.round_seconds))]
        metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                   for name, unit, _, _ in layers.PER_LAYER}
        print(f"traced mols_per_s {mols_per_s!r} over {len(run.round_seconds)} rounds")
    else:
        metrics = {
            "setup_s": {"value": setup_seconds, "unit": "s"},
            "mols_per_s": {"value": mols_per_s, "unit": "1/s"},
            "queries_per_s": {"value": len(run.query_seconds) / sum(run.query_seconds)
                              if run.query_seconds else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(work, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"{len(run.round_seconds)} rounds, {attempted} operations, {failed} failed; "
          f"round seconds {[round(seconds, 3) for seconds in run.round_seconds]}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
