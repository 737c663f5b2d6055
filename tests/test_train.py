"""Loss values against a scalar oracle, optimizer behaviour, training-loop
semantics, and the checkpoint container."""

import math

import numpy as np
import pytest

from molpeco import autodiff as ad
from molpeco.autodiff import Parameter, Tensor
from molpeco.checkpoints import load_checkpoint, save_checkpoint, write_csv
from molpeco.chemio import build_dataset, stratified_split
from molpeco.errors import DataError, NumericError
from molpeco.features import featurize_molecule
from molpeco.model import ModelConfig, MolPecoModel, forward
from molpeco.train import (Adam, LossConfig, TrainConfig, compute_loss, evaluate, predict,
                           train_loop)

from synthdata import organic_molecule, random_molecule, structure_labeled_set


class TestComputeLoss:
    def test_perfect_prediction_near_zero(self):
        # logit 30: sigmoid is 1 - 9.4e-14
        cfg = LossConfig(np.array([1.0]))
        loss = compute_loss(Tensor([[30.0]]), np.array([1.0]), cfg)
        assert 0.0 <= loss.item() <= 1e-8

    def test_half_prediction_oracle(self):
        # logit 0 is probability 0.5; independent scalar evaluation:
        # BCE = -log(0.5), reg = |log(0.5 + 1e-9) - log(1e-9)|
        cfg = LossConfig(np.array([1.0]))
        loss = compute_loss(Tensor([[0.0]]), np.array([0.0]), cfg)
        bce = -math.log(1.0 - 0.5)
        reg = abs(math.log(0.5 + 1e-9) - math.log(1e-9))
        assert abs(loss.item() - (bce + reg)) <= 1e-12

    def test_weight_formula_zero_positives(self):
        targets = np.zeros((8, 2), dtype=np.uint8)
        targets[:3, 0] = 1
        cfg = LossConfig.from_dataset(_FakeDataset(targets), list(range(8)))
        assert cfg.label_weights[1] == 1.0
        assert abs(cfg.label_weights[0] - (1.0 - 3.0 / 8.0)) <= 1e-15

    def test_weights_use_train_split_only(self):
        targets = np.zeros((10, 1), dtype=np.uint8)
        targets[:5, 0] = 1
        cfg = LossConfig.from_dataset(_FakeDataset(targets), [0, 1, 5, 6])
        assert abs(cfg.label_weights[0] - 0.5) <= 1e-15

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            o = int(rng.integers(1, 6))
            cfg = LossConfig(rng.uniform(0.1, 1.0, size=o))
            pred = Tensor(rng.normal(0.0, 10.0, size=(1, o)))
            truth = rng.integers(0, 2, size=o).astype(float)
            assert compute_loss(pred, truth, cfg).item() >= 0.0

    def test_batch_is_mean_of_row_losses(self):
        rng = np.random.default_rng(2)
        for batch in (1, 3, 17):
            o = int(rng.integers(1, 6))
            cfg = LossConfig(rng.uniform(0.1, 1.0, size=o))
            logits = rng.normal(0.0, 10.0, size=(batch, o))
            truth = rng.integers(0, 2, size=(batch, o)).astype(float)
            rows = [compute_loss(Tensor(logits[i:i + 1]), truth[i], cfg).item()
                    for i in range(batch)]
            expected = math.fsum(rows) / batch
            got = compute_loss(Tensor(logits), truth, cfg).item()
            assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_loss_is_one_graph_node(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        loss = compute_loss(logits, np.zeros((2, 3)), LossConfig(np.ones(3)))
        assert loss.parents == (logits,)

    def test_shape_mismatch_rejected(self):
        cfg = LossConfig(np.array([0.5, 0.5]))
        with pytest.raises(DataError, match="descriptor count"):
            compute_loss(Tensor(np.zeros((2, 2))), np.zeros(2), cfg)
        with pytest.raises(DataError, match="descriptor count"):
            compute_loss(Tensor(np.zeros((1, 3))), np.zeros(3), cfg)

    def test_saturated_wrong_logit_finite_loss_and_gradient(self):
        # both outputs saturated on the wrong side: the BCE gradient
        # sigmoid(z) - t is +-1, not clamped to zero
        cfg = LossConfig(np.array([1.0, 1.0]))
        logits = Tensor([[800.0, -800.0]], requires_grad=True)
        loss = compute_loss(logits, np.array([0.0, 1.0]), cfg)
        assert np.isfinite(loss.item())
        assert loss.item() >= 800.0
        ad.backward(loss)
        assert np.all(np.isfinite(logits.grad))
        assert np.all(logits.grad != 0.0)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        cfg = LossConfig(rng.uniform(0.2, 1.0, size=4))
        truth = np.array([1.0, 0.0, 1.0, 0.0])
        pred_values = rng.uniform(0.2, 0.8, size=(1, 4))
        pred = Tensor(pred_values, requires_grad=True)
        ad.backward(compute_loss(pred, truth, cfg))
        h = 1e-7
        for i in range(4):
            bumped = pred_values.copy()
            bumped[0, i] += h
            up = compute_loss(Tensor(bumped), truth, cfg).item()
            bumped[0, i] -= 2 * h
            down = compute_loss(Tensor(bumped), truth, cfg).item()
            numeric = (up - down) / (2 * h)
            assert abs(numeric - pred.grad[0, i]) / max(abs(numeric), 1.0) <= 1e-6


class _FakeDataset:
    def __init__(self, targets):
        self.targets = targets


class TestAdam:
    def _param(self, values):
        return Parameter("w", Tensor(np.asarray(values, dtype=float), requires_grad=True))

    def test_zero_gradient_keeps_parameters(self):
        p = self._param([1.0, -2.0])
        p.tensor.grad = np.zeros(2)
        Adam([p], lr=0.1).step()
        assert np.array_equal(p.tensor.values, [1.0, -2.0])

    def test_descent_direction_under_constant_gradient(self):
        p = self._param([0.0])
        opt = Adam([p], lr=0.01)
        for _ in range(100):
            p.tensor.grad = np.array([2.5])
            opt.step()
        assert p.tensor.values[0] < -0.5

    def test_single_step_decreases_quadratic(self):
        p = self._param([1.0])
        opt = Adam([p], lr=0.05)
        p.tensor.grad = np.array([2.0])  # d/dx x^2 at x=1
        opt.step()
        assert p.tensor.values[0] ** 2 < 1.0

    def test_nan_gradient_aborts_with_name(self):
        p = self._param([1.0])
        p.tensor.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="'w'"):
            Adam([p]).step()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_gradient_aborts_before_any_update(self, bad):
        good = Parameter("a", Tensor(np.array([1.0]), requires_grad=True))
        p = self._param([1.0, 2.0])
        good.tensor.grad = np.array([0.5])
        p.tensor.grad = np.array([0.0, bad])
        opt = Adam([good, p], lr=0.1)
        with pytest.raises(NumericError, match="'w'"):
            opt.step()
        assert opt.t == 0
        assert good.tensor.values[0] == 1.0


class TestTrainLoop:
    def _setup(self, seed=0):
        ds = structure_labeled_set(np.random.default_rng(seed))
        split = stratified_split(ds, (0.6, 0.2, 0.2), seed=seed)
        model_cfg = ModelConfig(variant="coulomb-gcn", o=ds.num_descriptors,
                                d=8, p=4, gcn_layers=1, transformer_layers=1, z_max=20)
        ds = build_dataset([featurize_molecule(mol, "coulomb-gcn") for mol in ds.molecules])
        return ds, split, model_cfg

    def test_zero_epochs_returns_initial_parameters(self):
        ds, split, model_cfg = self._setup()
        result = train_loop(ds, split, model_cfg, TrainConfig(max_epochs=0, seed=1))
        assert result.history == []
        reference = MolPecoModel(model_cfg, seed=1).state_arrays()
        assert set(result.best_state) == set(reference)
        for name in reference:
            assert np.array_equal(result.best_state[name], reference[name])

    def test_deterministic_history(self):
        ds, split, model_cfg = self._setup()
        cfg = TrainConfig(max_epochs=3, batch_size=4, seed=7)
        a = train_loop(ds, split, model_cfg, cfg)
        b = train_loop(ds, split, model_cfg, cfg)
        assert a.history == b.history
        for name in a.best_state:
            assert np.array_equal(a.best_state[name], b.best_state[name])

    def test_checkpoint_has_minimal_val_loss(self):
        ds, split, model_cfg = self._setup()
        result = train_loop(ds, split, model_cfg,
                            TrainConfig(max_epochs=8, batch_size=4, seed=3))
        val_losses = [row["val_loss"] for row in result.history]
        assert result.best_val_loss <= min(val_losses)
        assert result.history[result.best_epoch - 1]["val_loss"] == result.best_val_loss

    def test_history_csv_schema(self, tmp_path):
        ds, split, model_cfg = self._setup()
        result = train_loop(ds, split, model_cfg,
                            TrainConfig(max_epochs=2, batch_size=4, seed=3))
        columns = list(result.history[0])
        write_csv(tmp_path / "history.csv", "deadbeef", columns,
                  ([row[name] for name in columns] for row in result.history))
        lines = (tmp_path / "history.csv").read_text().strip().split("\n")
        assert lines[0] == "# config_hash=deadbeef"
        assert lines[1] == "epoch,train_loss,val_loss,val_auroc"
        assert len(lines) == 4
        for line, row in zip(lines[2:], result.history):
            epoch, *values = line.split(",")
            assert int(epoch) == row["epoch"]
            assert [float(v) for v in values] == [row[name] for name in columns[1:]]

    def test_empty_split_rejected(self):
        ds, split, model_cfg = self._setup()
        bad = type(split)(split.train, (), split.test, split.seed)
        with pytest.raises(DataError):
            train_loop(ds, bad, model_cfg, TrainConfig(max_epochs=1))

    def test_loss_strictly_decreases_early_on_overfit_set(self):
        # full-batch, small learning rate: the first ten epochs should
        # descend monotonically in at least 9 of 10 seeds
        ds, split, model_cfg = self._setup()
        wins = 0
        for seed in range(10):
            cfg = TrainConfig(learning_rate=3e-4, batch_size=len(split.train),
                              max_epochs=10, patience=100, seed=seed)
            losses = [row["train_loss"]
                      for row in train_loop(ds, split, model_cfg, cfg).history]
            wins += all(b < a for a, b in zip(losses, losses[1:]))
        assert wins >= 9

    def test_stop_train_loss_halts_early(self):
        ds, split, model_cfg = self._setup()
        cfg = TrainConfig(learning_rate=0.01, batch_size=4, max_epochs=200,
                          patience=1000, seed=0, stop_train_loss=2.0)
        result = train_loop(ds, split, model_cfg, cfg)
        assert result.history[-1]["train_loss"] <= 2.0
        assert len(result.history) < 200


class TestPredict:
    def test_rows_equal_per_molecule_forward(self):
        # a molecule's rows are bit-identical alone, in a batch of mixed
        # sizes, and in any batch order
        rng = np.random.default_rng(15)
        mols = [random_molecule(rng, "two", n_atoms=2, with_bonds=True),
                random_molecule(rng, "three", n_atoms=3, with_bonds=True)]
        mols += [organic_molecule(rng, f"m{n}", n) for n in (7, 12, 25, 40, 5, 18)]
        for variant in ("adjacency-gcn", "coulomb-gcn", "mol-peco-sym", "mol-peco-asym"):
            model = MolPecoModel(ModelConfig(variant=variant, o=5), seed=2)
            feats = [featurize_molecule(mol, variant) for mol in mols]
            logits, embeddings = predict(model, feats)
            assert logits.shape == (len(mols), 5)
            assert embeddings.shape == (len(mols), 32)
            for row, feat in enumerate(feats):
                z, m = forward(feat, model)
                assert np.array_equal(logits[row], z.values[0]), (variant, feat.id)
                assert np.array_equal(embeddings[row], m.values[0]), (variant, feat.id)
            order = rng.permutation(len(feats))
            logits_p, embeddings_p = predict(model, [feats[i] for i in order])
            assert np.array_equal(logits_p, logits[order]), variant
            assert np.array_equal(embeddings_p, embeddings[order]), variant

    def test_empty_list_gives_empty_arrays(self):
        model = MolPecoModel(ModelConfig(variant="coulomb-gcn", o=3, d=8), seed=0)
        logits, embeddings = predict(model, [])
        assert logits.shape == (0, 3) and embeddings.shape == (0, 8)

    def test_backward_after_predict_fills_grad(self):
        ds = structure_labeled_set(np.random.default_rng(7))
        model = MolPecoModel(ModelConfig(variant="mol-peco-sym", o=ds.num_descriptors,
                                         d=8, p=4, gcn_layers=1, transformer_layers=1,
                                         z_max=20), seed=0)
        feats = [featurize_molecule(mol, "mol-peco-sym") for mol in ds.molecules[:4]]
        predict(model, feats)
        assert all(p.tensor.grad is None for p in model.parameters())
        loss = compute_loss(forward(feats, model)[0], ds.targets[:4],
                            LossConfig(np.full(ds.num_descriptors, 0.5)))
        ad.backward(loss)
        for param in model.parameters():
            assert param.tensor.grad is not None, param.name
            assert np.all(np.isfinite(param.tensor.grad)), param.name


class TestEvaluate:
    def test_reads_only_the_scored_molecules_features(self):
        # the bond-free molecule, which is not scored, is a row without
        # adjacency features at all
        rng = np.random.default_rng(6)
        bonded = [random_molecule(rng, f"b{i}", labels={"odd"} if i % 2 else {"even"},
                                  with_bonds=True) for i in range(6)]
        ds = build_dataset([featurize_molecule(mol, "adjacency-gcn") for mol in bonded]
                           + [random_molecule(rng, "loose", labels={"odd"})])
        model_cfg = ModelConfig(variant="adjacency-gcn", o=ds.num_descriptors, d=8,
                                gcn_layers=1, z_max=20)
        report = evaluate(MolPecoModel(model_cfg, seed=0), ds, list(range(6)))
        assert len(report.per_descriptor) == ds.num_descriptors

    def test_report_covers_all_descriptors(self):
        ds = structure_labeled_set(np.random.default_rng(2))
        model_cfg = ModelConfig(variant="coulomb-gcn", o=ds.num_descriptors,
                                d=8, p=4, gcn_layers=1, z_max=20)
        model = MolPecoModel(model_cfg, seed=0)
        ds = build_dataset([featurize_molecule(mol, "coulomb-gcn") for mol in ds.molecules])
        report = evaluate(model, ds, list(range(len(ds))))
        assert len(report.per_descriptor) == ds.num_descriptors

    def test_empty_indices_rejected(self):
        ds = structure_labeled_set(np.random.default_rng(2))
        model_cfg = ModelConfig(variant="coulomb-gcn", o=ds.num_descriptors,
                                d=8, p=4, gcn_layers=1, z_max=20)
        with pytest.raises(DataError):
            evaluate(MolPecoModel(model_cfg, seed=0), ds, [])


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        state = {"a.w": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
        metadata = {"epoch": 5, "val_loss": 0.25}
        save_checkpoint(tmp_path / "ck.bin", state, metadata)
        got_meta, got_state = load_checkpoint(tmp_path / "ck.bin")
        assert got_meta == metadata
        assert set(got_state) == set(state)
        for name in state:
            assert np.array_equal(got_state[name], state[name])

    def test_byte_identical_for_identical_state(self, tmp_path):
        rng = np.random.default_rng(4)
        state = {"x": rng.normal(size=(2, 2))}
        save_checkpoint(tmp_path / "a.bin", state, {"epoch": 1})
        save_checkpoint(tmp_path / "b.bin", state, {"epoch": 1})
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_model_load_state_round_trip(self, tmp_path):
        cfg = ModelConfig(variant="mol-peco-sym", o=2, d=8, p=4, gcn_layers=1,
                          transformer_layers=1, z_max=10)
        model = MolPecoModel(cfg, seed=9)
        save_checkpoint(tmp_path / "m.bin", model.state_arrays(), {"epoch": 0})
        _, state = load_checkpoint(tmp_path / "m.bin")
        other = MolPecoModel(cfg, seed=1)
        other.load_state(state)
        for pa, pb in zip(model.parameters(), other.parameters()):
            assert np.array_equal(pa.tensor.values, pb.tensor.values)
