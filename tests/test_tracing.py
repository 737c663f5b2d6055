"""The benchmark's tracer wraps program functions by name: every name it
looks up must exist, and unwrapping must restore the originals."""

from pathlib import Path

from molpeco import autodiff, chemio, cli, features, model, train

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
