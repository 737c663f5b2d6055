"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its measured result.

Tolerances are fixed here and match the package contracts; runtime budgets
are asserted with time.perf_counter. Criterion 8 is directional evidence
and reports its outcome without gating the suite.
"""

import json
import time

import numpy as np

from molpeco import autodiff as ad
from molpeco.autodiff import Tensor
from molpeco.chemio import Split, build_dataset, serialize_molecules, stratified_split
from molpeco.cli import main as cli_main
from molpeco.features import (
    BOHR_PER_ANGSTROM,
    asym_normalized_laplacian,
    coulomb_matrix,
    eig_symmetric,
    featurize_molecule,
    laplacian,
    sym_normalized_laplacian,
)
from molpeco.metrics import balanced_accuracy, confusion_metrics, pr_auc, roc_auc
from molpeco.model import ModelConfig, MolPecoModel, forward
from molpeco.train import LossConfig, TrainConfig, compute_loss, evaluate, train_loop

from synthdata import (
    chain_fold_set,
    multilabel_set,
    random_molecule,
    structure_labeled_set,
)
from test_features import coulomb_oracle, mol_from
from test_metrics import pr_auc_threshold_oracle, roc_auc_pairwise_oracle


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:02d}] {status} - {detail}")


class TestCriterion1CoulombGolden:
    def test_golden_molecules(self):
        start = time.perf_counter()
        cases = [
            ([1], [(0.0, 0.0, 0.0)]),
            ([1, 1], [(0.0, 0.0, 0.0), (1.0 / BOHR_PER_ANGSTROM, 0.0, 0.0)]),
            ([6], [(0.0, 0.0, 0.0)]),
            ([8, 1, 1], [(0.0, 0.0, 0.0), (0.758602, 0.0, 0.504284),
                         (-0.758602, 0.0, 0.504284)]),
        ]
        worst = 0.0
        for z, coords in cases:
            got = coulomb_matrix(mol_from(z, coords))
            expected = coulomb_oracle(z, coords)
            worst = max(worst, float(np.max(np.abs(got - expected))))
        h2 = coulomb_matrix(mol_from([1, 1], cases[1][1]))
        worst = max(worst, abs(h2[0, 1] - 1.0), abs(h2[0, 0] - 0.5))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and elapsed < 1.0
        report(1, ok, f"max abs dev {worst:.2e} vs oracle, {elapsed:.2f}s")
        assert worst <= 1e-10
        assert elapsed < 1.0


class TestCriterion2LaplacianSuite:
    def test_laplacian_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = {"rowsum": 0.0, "quad": 0.0, "range": 0.0, "resid": 0.0,
                 "ortho": 0.0, "similar": 0.0}
        for _ in range(100):
            n = int(rng.integers(2, 31))
            x = rng.uniform(0.05, 2.0, size=(n, n))
            x = 0.5 * (x + x.T)
            np.fill_diagonal(x, rng.uniform(0.0, 1.0, size=n))

            lap = laplacian(x)
            worst["rowsum"] = max(worst["rowsum"], float(np.max(np.abs(lap.sum(axis=1)))))

            zeroed = x.copy()
            np.fill_diagonal(zeroed, 0.0)
            assert np.array_equal(lap, laplacian(zeroed))

            f = rng.normal(size=n)
            direct = float(f @ lap @ f)
            pairwise = 0.5 * float(np.sum(zeroed * (f[:, None] - f[None, :]) ** 2))
            scale = np.linalg.norm(zeroed) * float(f @ f)
            worst["quad"] = max(worst["quad"], abs(direct - pairwise) / max(scale, 1e-30))

            l2 = sym_normalized_laplacian(x)
            spec = eig_symmetric(l2)
            worst["range"] = max(worst["range"], float(-spec.eigenvalues[0]),
                                 float(spec.eigenvalues[-1] - 2.0))
            residual = l2 @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            worst["resid"] = max(worst["resid"],
                                 float(np.max(np.abs(residual))) / max(1.0, np.linalg.norm(l2)))
            gram = spec.eigenvectors.T @ spec.eigenvectors
            worst["ortho"] = max(worst["ortho"], float(np.linalg.norm(gram - np.eye(n))))

            spec_rw = asym_normalized_laplacian(x)
            worst["similar"] = max(worst["similar"],
                                   float(np.max(np.abs(spec_rw.eigenvalues - spec.eigenvalues))))
        elapsed = time.perf_counter() - start
        ok = (worst["rowsum"] <= 1e-9 and worst["quad"] <= 1e-8
              and worst["range"] <= 1e-8 and worst["resid"] <= 1e-8
              and worst["ortho"] <= 1e-8 and worst["similar"] <= 1e-8
              and elapsed < 10.0)
        report(2, ok, "worst: " + " ".join(f"{k}={v:.1e}" for k, v in worst.items())
               + f", {elapsed:.1f}s")
        assert worst["rowsum"] <= 1e-9
        assert worst["quad"] <= 1e-8
        assert worst["range"] <= 1e-8
        assert worst["resid"] <= 1e-8
        assert worst["ortho"] <= 1e-8
        assert worst["similar"] <= 1e-8
        assert elapsed < 10.0


def _fd_grad(fn, x, h=1e-5):
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        bumped = x.copy().reshape(-1)
        bumped[i] += h
        up = fn(bumped.reshape(x.shape))
        bumped[i] -= 2 * h
        down = fn(bumped.reshape(x.shape))
        flat[i] = (up - down) / (2 * h)
    return grad


def _max_rel(analytic, numeric, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestCriterion3GradientChecks:
    def test_primitive_gradients(self):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x_values = rng.normal(size=(rows, cols))
            weights = rng.normal(size=(rows, cols))
            positive = rng.uniform(0.2, 2.0, size=(rows, cols))

            unary_cases = [(ad.selu, x_values), (ad.sqrt, positive)]
            for op, base in unary_cases:
                x = Tensor(base, requires_grad=True)
                ad.backward(ad.mul(op(x), Tensor(weights)).sum())
                numeric = _fd_grad(
                    lambda v, op=op: float((op(Tensor(v)).values * weights).sum()), base)
                worst = max(worst, _max_rel(x.grad, numeric))

            for build, base in [
                (lambda t: ad.add(t, Tensor(positive)), x_values),
                (lambda t: ad.mul(t, Tensor(positive)), x_values),
                (lambda t: ad.div(t, Tensor(positive)), x_values),
                (lambda t: ad.div(Tensor(positive), t), positive + 1.0),
            ]:
                x = Tensor(base, requires_grad=True)
                ad.backward(ad.mul(build(x), Tensor(weights)).sum())
                numeric = _fd_grad(
                    lambda v, b=build: float((b(Tensor(v)).values * weights).sum()), base)
                worst = max(worst, _max_rel(x.grad, numeric))

            inner = int(rng.integers(1, 5))
            a_values = rng.normal(size=(rows, inner))
            b_values = rng.normal(size=(inner, cols))
            a = Tensor(a_values, requires_grad=True)
            b = Tensor(b_values, requires_grad=True)
            ad.backward(ad.matmul(a, b).sum())
            worst = max(worst, _max_rel(a.grad, _fd_grad(
                lambda v: float((v @ b_values).sum()), a_values)))
            worst = max(worst, _max_rel(b.grad, _fd_grad(
                lambda v: float((a_values @ v).sum()), b_values)))

            batched = rng.normal(size=(3, rows, inner))
            ab = Tensor(batched, requires_grad=True)
            ad.backward(ad.matmul(ab, Tensor(b_values)).sum())
            worst = max(worst, _max_rel(ab.grad, _fd_grad(
                lambda v: float((v @ b_values).sum()), batched)))

            out_weights = rng.normal(size=(rows, cols))
            a = Tensor(a_values, requires_grad=True)
            b = Tensor(b_values, requires_grad=True)
            ad.backward(ad.mul(ad.rowwise_matmul(a, b), Tensor(out_weights)).sum())
            worst = max(worst, _max_rel(a.grad, _fd_grad(
                lambda v: float((v @ b_values * out_weights).sum()), a_values)))
            worst = max(worst, _max_rel(b.grad, _fd_grad(
                lambda v: float((a_values @ v * out_weights).sum()), b_values)))

            sizes = [int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            mats = [rng.normal(size=(n, n)) for n in sizes]
            stacked = rng.normal(size=(sum(sizes), cols))
            block_weights = rng.normal(size=(sum(sizes), cols))
            x = Tensor(stacked, requires_grad=True)
            ad.backward(ad.mul(ad.block_matmul(mats, x), Tensor(block_weights)).sum())
            worst = max(worst, _max_rel(x.grad, _fd_grad(
                lambda v: float((np.concatenate(
                    [m @ v[end - len(m):end] for m, end in zip(mats, np.cumsum(sizes))])
                    * block_weights).sum()), stacked)))

            x = Tensor(x_values, requires_grad=True)
            ad.backward(ad.mul(ad.sum_rows_exact(x, [x_values.shape[0]]),
                               Tensor(weights[:1])).sum())
            worst = max(worst, _max_rel(x.grad, _fd_grad(
                lambda v: float((v.sum(axis=0, keepdims=True) * weights[:1]).sum()),
                x_values)))

            x = Tensor(batched, requires_grad=True)
            pair_weights = rng.normal(size=(3, inner))
            ad.backward(ad.mul(x.sum(axis=-2), Tensor(pair_weights)).sum())
            worst = max(worst, _max_rel(x.grad, _fd_grad(
                lambda v: float((v.sum(axis=-2) * pair_weights).sum()), batched)))

            logits = 4.0 * x_values
            targets = rng.integers(0, 2, size=(rows, cols)).astype(np.float64)
            label_weights = rng.uniform(0.1, 1.0, size=cols)
            x = Tensor(logits, requires_grad=True)
            ad.backward(ad.multilabel_loss(x, targets, label_weights, 1e-9))

            def entry_losses(v):
                # the loss is the sum of these, one per entry, so each entry's
                # central difference needs only its own term, free of the
                # rounding of the whole sum
                return label_weights / v.size * (
                    (1.0 - targets) * v + np.logaddexp(0.0, -v)
                    + np.abs(np.log(1.0 / (1.0 + np.exp(-v)) + 1e-9) - np.log(targets + 1e-9)))
            numeric = (entry_losses(logits + 1e-5) - entry_losses(logits - 1e-5)) / 2e-5
            worst = max(worst, _max_rel(x.grad, numeric))

            saturated = np.where(x_values >= 0.0, 800.0, -800.0)
            x = Tensor(saturated, requires_grad=True)
            out = ad.multilabel_loss(x, targets, label_weights, 1e-9)
            ad.backward(out)
            assert np.isfinite(out.item())
            expected = label_weights * (1.0 / saturated.size) \
                * (ad.logistic(saturated) - targets)
            assert np.array_equal(x.grad, expected)

            table = Tensor(rng.normal(size=(5, cols)), requires_grad=True)
            idx = rng.integers(0, 5, size=rows)
            ad.backward(ad.mul(ad.gather_rows(table, idx), Tensor(weights)).sum())
            worst = max(worst, _max_rel(table.grad, _fd_grad(
                lambda v: float((v[idx] * weights).sum()), table.values)))

            extra_values = rng.normal(size=(int(rng.integers(1, 4)), cols))
            stacked_weights = rng.normal(size=(rows + extra_values.shape[0], cols))
            x = Tensor(x_values, requires_grad=True)
            extra = Tensor(extra_values, requires_grad=True)
            ad.backward(ad.mul(ad.concat_rows([x, extra]), Tensor(stacked_weights)).sum())
            worst = max(worst, _max_rel(x.grad, _fd_grad(
                lambda v: float((np.concatenate([v, extra_values]) * stacked_weights).sum()),
                x_values)))
            worst = max(worst, _max_rel(extra.grad, _fd_grad(
                lambda v: float((np.concatenate([x_values, v]) * stacked_weights).sum()),
                extra_values)))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 30.0
        report(3, ok, f"primitives: worst rel err {worst:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-6

    def test_full_model_gradient(self):
        start = time.perf_counter()
        worst = 0.0
        checked = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            mol = random_molecule(rng, f"g{seed}", n_atoms=3)
            feats = featurize_molecule(mol, "mol-peco-sym")
            config = ModelConfig(variant="mol-peco-sym", o=3, d=8, p=4,
                                 gcn_layers=1, transformer_layers=1, z_max=20)
            model = MolPecoModel(config, seed=seed)
            # keep logits in a well-conditioned range: large logits make
            # the loss large, and its float64 rounding divided by h then
            # swamps the smallest entries of the central differences
            model.head_w.values = model.head_w.values * 0.05
            loss_cfg = LossConfig(rng.uniform(0.3, 1.0, size=3))
            target = rng.integers(0, 2, size=3).astype(float)

            def loss_value():
                y, _ = forward(feats, model)
                return compute_loss(y, target, loss_cfg)

            loss = loss_value()
            ad.backward(loss)
            h = 1e-5
            for param in model.parameters():
                grad = param.tensor.grad
                values = param.tensor.values
                stride = max(1, values.size // 3)
                for flat in range(0, values.size, stride):
                    original = values.reshape(-1)[flat]
                    values.reshape(-1)[flat] = original + h
                    up = loss_value().item()
                    values.reshape(-1)[flat] = original - h
                    down = loss_value().item()
                    values.reshape(-1)[flat] = original
                    numeric = (up - down) / (2 * h)
                    analytic = grad.reshape(-1)[flat]
                    denom = max(abs(numeric), abs(analytic), 1e-6)
                    worst = max(worst, abs(numeric - analytic) / denom)
                    checked += 1
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-4 and elapsed < 30.0
        report(3, ok, f"full model: worst rel err {worst:.2e} over {checked} "
                      f"parameter slots, 20 seeds, {elapsed:.1f}s")
        assert worst <= 1e-4
        assert elapsed < 30.0


class TestCriterion4SymmetrySuite:
    def test_permutation_and_rigid_motion(self):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        worst = 0.0
        for variant in ("adjacency-gcn", "coulomb-gcn", "mol-peco-sym", "mol-peco-asym"):
            config = ModelConfig(variant=variant, o=3, d=8, p=4, gcn_layers=2,
                                 transformer_layers=1, z_max=20)
            model = MolPecoModel(config, seed=0)
            for i in range(10):
                mol = random_molecule(rng, f"s{variant}{i}", with_bonds=True)
                y, m = forward(featurize_molecule(mol, variant), model)

                n = mol.num_atoms
                perm = rng.permutation(n)
                inverse = np.empty(n, dtype=np.int64)
                inverse[perm] = np.arange(n)
                atoms = tuple(mol.atoms[k] for k in perm)
                bonds = tuple((int(inverse[a]), int(inverse[b])) for a, b in mol.bonds)
                permuted = type(mol)(mol.id, atoms, bonds, mol.labels)
                y_p, m_p = forward(featurize_molecule(permuted, variant), model)
                worst = max(worst, float(np.max(np.abs(y.values - y_p.values))),
                            float(np.max(np.abs(m.values - m_p.values))))

                rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                shift = rng.normal(size=3)
                moved_coords = mol.coordinates() @ rotation.T + shift
                moved = mol_from(mol.atomic_numbers().tolist(), moved_coords.tolist(),
                                 bonds=mol.bonds, mol_id=mol.id)
                y_r, m_r = forward(featurize_molecule(moved, variant), model)
                worst = max(worst, float(np.max(np.abs(y.values - y_r.values))),
                            float(np.max(np.abs(m.values - m_r.values))))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 10.0
        report(4, ok, f"worst invariance deviation {worst:.2e} over 4 variants x 10 "
                      f"molecules, {elapsed:.1f}s")
        assert worst <= 1e-9
        assert elapsed < 10.0


class TestCriterion5MetricOracles:
    def test_metric_oracles(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(50):
            n = 50
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            worst = max(worst, abs(roc_auc(scores, labels)
                                   - roc_auc_pairwise_oracle(scores, labels)))
            worst = max(worst, abs(pr_auc(scores, labels)
                                   - pr_auc_threshold_oracle(scores, labels)))
        scores = [0.9, 0.8, 0.7, 0.2] + [0.1] * 6
        labels = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        conf = confusion_metrics(scores, labels, threshold=0.5)
        hand_exact = (conf.precision == 2 / 3 and conf.recall == 2 / 3
                      and conf.specificity == 6 / 7)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12 and hand_exact and elapsed < 5.0
        report(5, ok, f"worst metric dev {worst:.2e} over 50 instances, hand case "
                      f"exact={hand_exact}, {elapsed:.1f}s")
        assert worst <= 1e-12
        assert hand_exact
        assert elapsed < 5.0


class TestCriterion6BalancedAccuracy:
    def test_reported_accuracy_identity(self):
        value = balanced_accuracy(0.827, 0.625)
        ok = value == 0.726
        report(6, ok, f"(0.827 + 0.625) / 2 = {value!r}")
        assert value == 0.726


class TestCriterion7OverfitSmoke:
    def test_overfit_small_structure_set(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        base = structure_labeled_set(rng, count=20)
        extras = [random_molecule(rng, f"extra{i}") for i in range(2)]
        ds = build_dataset(list(base.molecules) + extras)
        # validating on the training molecules makes the kept checkpoint
        # (minimal validation loss) the overfit model
        split = Split(tuple(range(20)), tuple(range(20)), (20, 21), seed=0)
        model_cfg = ModelConfig(variant="mol-peco-sym", o=ds.num_descriptors,
                                d=16, p=8, gcn_layers=2, transformer_layers=1,
                                z_max=20)
        train_cfg = TrainConfig(learning_rate=0.01, batch_size=2, max_epochs=500,
                                patience=10_000, seed=0, stop_train_loss=0.01)
        ds = build_dataset([featurize_molecule(mol, "mol-peco-sym") for mol in ds.molecules])
        result = train_loop(ds, split, model_cfg, train_cfg)
        final_loss = result.history[-1]["train_loss"]
        epochs = len(result.history)
        model = MolPecoModel(model_cfg, seed=0)
        model.load_state(result.best_state)
        train_report = evaluate(model, ds, list(split.train))
        min_auroc = min(v["auroc"] for v in train_report.per_descriptor.values())
        elapsed = time.perf_counter() - start
        ok = (final_loss < 0.05 and min_auroc >= 0.99 and result.best_epoch == epochs
              and epochs <= 500 and elapsed < 120.0)
        report(7, ok, f"train loss {final_loss:.4f} after {epochs} epochs (best "
                      f"{result.best_epoch}), min per-descriptor train AUROC "
                      f"{min_auroc:.3f}, {elapsed:.1f}s")
        assert final_loss < 0.05
        assert min_auroc >= 0.99
        assert result.best_epoch == epochs
        assert epochs <= 500
        assert elapsed < 120.0


class TestCriterion8AblationDirection:
    def test_coulomb_beats_adjacency_on_geometry_task(self, tmp_path):
        # Directional evidence, documented but not gated: labels depend on
        # 3D distances invisible to the (identical) bond graphs.
        ds = chain_fold_set(np.random.default_rng(0), count=300)
        data_path = tmp_path / "chains.jsonl"
        serialize_molecules(ds, data_path)
        gaps = []
        for seed in range(3):
            out_dir = tmp_path / f"run{seed}"
            config = {
                "data_path": str(data_path),
                "cache_path": str(tmp_path / f"cache{seed}.bin"),
                "split_path": str(tmp_path / f"split{seed}.json"),
                "out_dir": str(out_dir),
                "min_label_count": 1,
                "d": 16, "p": 8, "gcn_layers": 2, "transformer_layers": 1,
                "z_max": 10,
                "seed": seed,
                "learning_rate": 3e-3, "batch_size": 16, "max_epochs": 150,
                "patience": 1000,
            }
            config_path = tmp_path / f"config{seed}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            assert cli_main(["split", "--config", str(config_path)]) == 0
            assert cli_main(["sweep", "--config", str(config_path),
                             "--variants", "adjacency-gcn,coulomb-gcn"]) == 0
            rows = {}
            for line in (out_dir / "sweep.csv").read_text().strip().split("\n"):
                if line.startswith("#") or line.startswith("variant"):
                    continue
                cells = line.split(",")
                rows[cells[0]] = float(cells[1])
            assert set(rows) == {"adjacency-gcn", "coulomb-gcn"}
            assert all(0.0 <= v <= 1.0 for v in rows.values())
            gaps.append(rows["coulomb-gcn"] - rows["adjacency-gcn"])
        majority = sum(gap >= 0.02 for gap in gaps) >= 2
        report(8, True, f"val AUROC gaps (coulomb - adjacency) = "
                        f"{[round(g, 3) for g in gaps]}; majority >= 0.02: {majority} "
                        f"(directional, not gated)")
        # the machinery is gated; the direction itself is tolerated as flaky
        assert len(gaps) == 3

    def test_depth_sweep_has_table_schema(self, tmp_path):
        ds = structure_labeled_set(np.random.default_rng(1))
        data_path = tmp_path / "mols.jsonl"
        serialize_molecules(ds, data_path)
        config = {
            "data_path": str(data_path),
            "cache_path": str(tmp_path / "cache.bin"),
            "split_path": str(tmp_path / "split.json"),
            "out_dir": str(tmp_path / "out"),
            "min_label_count": 1,
            "variant": "mol-peco-sym",
            "d": 8, "p": 4, "gcn_layers": 1, "z_max": 20,
            "fractions": [0.6, 0.2, 0.2],
            "max_epochs": 2, "batch_size": 4,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["featurize", "--config", str(config_path)]) == 0
        assert cli_main(["split", "--config", str(config_path)]) == 0
        assert cli_main(["sweep", "--config", str(config_path), "--depths", "1,2"]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
        assert lines[1] == ("transformer_layers,auroc,auprc,precision,recall,"
                            "specificity,accuracy")
        assert len(lines) == 4


class TestCriterion9Stratification:
    def test_ratio_preservation_and_determinism(self):
        start = time.perf_counter()
        ds = multilabel_set(np.random.default_rng(5), count=500)
        split = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
        again = stratified_split(ds, (0.8, 0.1, 0.1), seed=0)
        deterministic = split == again
        targets = ds.targets
        global_ratio = targets.mean(axis=0)
        counts = targets.sum(axis=0)
        worst = 0.0
        for part in (split.train, split.val, split.test):
            ratio = targets[np.asarray(part)].mean(axis=0)
            for col in range(targets.shape[1]):
                if counts[col] >= 30:
                    worst = max(worst, abs(ratio[col] - global_ratio[col])
                                / global_ratio[col])
        combined = sorted(split.train + split.val + split.test)
        partition = combined == list(range(len(ds)))
        elapsed = time.perf_counter() - start
        ok = worst <= 0.2 and deterministic and partition and elapsed < 5.0
        report(9, ok, f"worst per-fold ratio deviation {worst:.3f} (limit 0.2), "
                      f"deterministic={deterministic}, {elapsed:.1f}s")
        assert worst <= 0.2
        assert deterministic
        assert partition
        assert elapsed < 5.0


class TestCriterion10Reproducibility:
    def test_pipeline_byte_identical(self, tmp_path):
        ds = structure_labeled_set(np.random.default_rng(7))
        data_path = tmp_path / "mols.jsonl"
        serialize_molecules(ds, data_path)
        config = {
            "data_path": str(data_path),
            "cache_path": str(tmp_path / "cache.bin"),
            "split_path": str(tmp_path / "split.json"),
            "out_dir": str(tmp_path / "out"),
            "min_label_count": 1,
            "variant": "mol-peco-asym",
            "d": 8, "p": 4, "gcn_layers": 1, "transformer_layers": 1, "z_max": 20,
            "fractions": [0.6, 0.2, 0.2],
            "seed": 3,
            "learning_rate": 0.005, "batch_size": 4, "max_epochs": 3,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        artifacts = ["cache.bin", "split.json", "out/checkpoint.bin",
                     "out/history.csv", "out/report_test.json",
                     "out/report_test.csv", "out/embeddings_test.csv"]

        def run_all():
            for command in (["featurize"], ["split"], ["train"],
                            ["eval", "--part", "test"], ["embed", "--part", "test"]):
                assert cli_main([*command, "--config", str(config_path)]) == 0
            return {name: (tmp_path / name).read_bytes() for name in artifacts}

        first = run_all()
        second = run_all()
        identical = {name: first[name] == second[name] for name in artifacts}
        ok = all(identical.values())
        report(10, ok, f"byte-identical artifacts across two runs: {identical}")
        assert ok
