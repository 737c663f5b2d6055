"""The benchmark's tracer wraps program functions by name: every name it
looks up must exist, and unwrapping must restore the originals."""

from pathlib import Path

import numpy as np

import json

from molpeco import autodiff, chemio, cli, features, model, train
from molpeco.chemio import serialize_molecules

from synthdata import random_molecule, structure_labeled_set

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_finds_every_traced_name_and_unwraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    owners = (autodiff, chemio, cli, features, model, train, train.Adam)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        assert train.forward is not model.forward
        assert cli.forward is not model.forward
    finally:
        tracer.unwrap_all()
    for owner, names in zip(owners, before):
        for name, value in names.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"


def test_cache_mb_counts_the_written_cache_file(monkeypatch, tmp_path):
    # the tracer reads the cache path from the writer's first argument
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    rng = np.random.default_rng(0)
    feats = [features.featurize_molecule(random_molecule(rng, f"m{i}"), "mol-peco-asym")
             for i in range(3)]
    path = tmp_path / "features.cache"
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        tracer.round = 0
        cli.write_feature_cache(path, feats, {"variant": "mol-peco-asym"})
    finally:
        tracer.round = None
        tracer.unwrap_all()
    assert tracer.counters[(0, "features.cache_mb")] == path.stat().st_size / 1e6
    assert tracer.per_round()[0]["features.cache_write.calls"] == 1


def test_retrieve_calls_the_traced_reader_and_ranker_once(monkeypatch, tmp_path, capsys):
    # the tracer wraps the module globals; a retrieve that bypassed them
    # would report zero read and rank time. The second retrieve of the same
    # file reads the binary copy the first one wrote, through the same
    # traced reader, and parses no text
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    def no_parse(*args, **kwargs):
        raise AssertionError("the embedding CSV was parsed again")

    path = tmp_path / "embeddings.csv"
    path.write_text("id,e0,e1\na,1.0,0.0\nb,0.0,1.0\nc,2.0,0.5\n", encoding="utf-8")
    tracer = spans.Tracer()
    argv = ["retrieve", "--embeddings", str(path), "--query", "a", "--k", "2"]
    try:
        layers.install(tracer)
        tracer.round = 0
        assert cli.main(argv) == 0
        monkeypatch.setattr(np, "loadtxt", no_parse)
        tracer.round = 1
        assert cli.main(argv) == 0
    finally:
        tracer.round = None
        tracer.unwrap_all()
    for round_index in (0, 1):
        table = tracer.per_round()[round_index]
        assert table["cli.read_embeddings.calls"] == 1
        assert table["cli.retrieve_neighbors.calls"] == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1,c,")
    assert lines[:2] == lines[2:]


def test_pipeline_parses_the_dataset_twice_and_reads_the_cache_three_times(
        monkeypatch, tmp_path):
    # featurize and split parse the dataset file; train, eval and embed
    # rebuild it from the feature cache
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    data = tmp_path / "molecules.jsonl"
    serialize_molecules(structure_labeled_set(np.random.default_rng(0)), data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data_path": str(data), "cache_path": str(tmp_path / "features.cache"),
        "split_path": str(tmp_path / "split.json"), "out_dir": str(tmp_path / "out"),
        "variant": "coulomb-gcn", "min_label_count": 1, "d": 8, "gcn_layers": 1,
        "z_max": 20, "fractions": [0.6, 0.2, 0.2], "max_epochs": 1}), encoding="utf-8")
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        tracer.round = 0
        for command in (["featurize"], ["split"], ["train"], ["eval", "--part", "test"],
                        ["embed", "--part", "test"]):
            assert cli.main([*command, "--config", str(config)]) == 0
    finally:
        tracer.round = None
        tracer.unwrap_all()
    table = tracer.per_round()[0]
    assert table["chemio.parse.calls"] == 2
    assert table["features.cache_read.calls"] == 3
    assert table["features.cache_write.calls"] == 1
