"""Network variants: shapes, invariances, architectural containment, and
the end-to-end gradient check."""

import math
from dataclasses import fields

import numpy as np
import pytest

from molpeco import autodiff as ad
from molpeco.autodiff import Tensor
from molpeco.chemio import Atom, Molecule
from molpeco.errors import DataError
from molpeco.features import featurize_molecule, lpe_input
from molpeco.model import (
    ModelConfig,
    MolPecoModel,
    atom_init_embedding,
    classify,
    forward,
    gcn_forward,
    lpe_forward,
    probabilities,
    sum_pool,
)
from molpeco.train import LossConfig, compute_loss

from synthdata import organic_molecule, random_molecule


def small_config(variant="mol-peco-sym", **overrides):
    base = dict(variant=variant, o=3, d=8, p=4, gcn_layers=1,
                transformer_layers=1, z_max=20)
    base.update(overrides)
    return ModelConfig(**base)


class TestAtomInitEmbedding:
    def test_identical_elements_share_rows(self):
        model = MolPecoModel(small_config(), seed=0)
        h = atom_init_embedding(np.array([1, 1]), model)
        assert np.array_equal(h.values[0], h.values[1])

    def test_permuting_atoms_permutes_rows(self):
        model = MolPecoModel(small_config(), seed=0)
        z = np.array([1, 6, 8, 6])
        perm = np.array([2, 0, 3, 1])
        h = atom_init_embedding(z, model)
        h_perm = atom_init_embedding(z[perm], model)
        assert np.array_equal(h_perm.values, h.values[perm])

    def test_output_shape(self):
        model = MolPecoModel(small_config(), seed=0)
        assert atom_init_embedding(np.array([1, 6, 8]), model).values.shape == (3, 8)

    def test_atomic_number_above_table_rejected(self):
        model = MolPecoModel(small_config(z_max=8), seed=0)
        with pytest.raises(DataError):
            atom_init_embedding(np.array([8]), model)


class TestLPEForward:
    def _spectrum(self, seed=0, n=4):
        mol = random_molecule(np.random.default_rng(seed), "m", n_atoms=n)
        return featurize_molecule(mol, "mol-peco-sym").spectrum

    def test_zeroed_weights_give_zero_encoding(self):
        model = MolPecoModel(small_config(), seed=0)
        model.lpe_w0.values = np.zeros_like(model.lpe_w0.values)
        out = lpe_forward(self._spectrum(), model)
        assert np.array_equal(out.values, np.zeros((4, 8)))

    def test_single_atom_molecule(self):
        model = MolPecoModel(small_config(), seed=0)
        out = lpe_forward(self._spectrum(n=1), model)
        assert out.values.shape == (1, 8)
        assert np.all(np.isfinite(out.values))

    def test_eigenvector_sign_matters(self):
        # the encoding is not sign-invariant; determinism comes from the
        # spectral sign convention upstream
        model = MolPecoModel(small_config(), seed=0)
        spec = self._spectrum(seed=3, n=5)
        flipped_vectors = spec.eigenvectors.copy()
        flipped_vectors[:, 1] = -flipped_vectors[:, 1]
        flipped = type(spec)(spec.eigenvalues, flipped_vectors)
        out = lpe_forward(spec, model)
        out_flipped = lpe_forward(flipped, model)
        assert np.max(np.abs(out.values - out_flipped.values)) > 1e-6


    def test_molecule_smaller_than_p_ignores_p(self):
        # only the molecule's n real pairs enter, so every p >= n gives the
        # same encoding, bit for bit
        rng = np.random.default_rng(11)
        for n in range(6, 20):
            mol = organic_molecule(rng, "m", n)
            spec = featurize_molecule(mol, "mol-peco-asym").spectrum
            assert spec.n == n
            outs = []
            for p in (n, n + 1, 20, 64):
                config = small_config("mol-peco-asym", d=32, p=p, transformer_layers=2)
                outs.append(lpe_forward(spec, MolPecoModel(config, seed=0)).values)
            for out in outs[1:]:
                assert np.array_equal(out, outs[0]), n

    def test_encoder_gradient_at_real_size(self):
        # default config (p = 20, d = 32, 4 blocks) on a 40-atom molecule:
        # for the lifted input and each of the 64 block weights, the
        # directional derivative along a random unit direction against a
        # central difference, at criterion 3's bound. The weights are
        # perturbed off their initial gains of 1 and biases of 0, and the
        # output weights are scaled to keep the loss near 1. The key bias
        # bk has a zero gradient (softmax ignores a shift shared by all
        # keys), so both of its sides must be zero to within rounding
        rng = np.random.default_rng(40)
        spec = featurize_molecule(organic_molecule(rng, "m", 40), "mol-peco-asym").spectrum
        config = ModelConfig(variant="mol-peco-asym", o=4)
        model = MolPecoModel(config, seed=1)
        weights = [getattr(block, f.name) for block in model.lpe_blocks for f in fields(block)]
        for t in weights:
            t.values = t.values + rng.normal(scale=0.1, size=t.values.shape)
        x = Tensor(lpe_input(spec, config.p) @ model.lpe_w0.values, requires_grad=True)
        assert x.values.shape == (40, 20, 32)
        out_weights = rng.normal(size=x.values.shape) / math.sqrt(x.values.size)
        ad.backward(ad.mul(ad.transformer_encoder(x, model.lpe_blocks),
                           Tensor(out_weights)).sum())
        h = 1e-5
        key_biases = {id(block.bk) for block in model.lpe_blocks}
        for t in [x] + weights:
            direction = rng.normal(size=t.values.shape)
            direction /= np.linalg.norm(direction)
            analytic = float((t.grad * direction).sum())
            base = t.values
            sides = []
            for sign in (1.0, -1.0):
                t.values = base + sign * h * direction
                with ad.no_grad():
                    out = ad.transformer_encoder(Tensor(x.values), model.lpe_blocks)
                sides.append(float((out.values * out_weights).sum()))
            t.values = base
            numeric = (sides[0] - sides[1]) / (2 * h)
            if id(t) in key_biases:
                assert max(abs(numeric), abs(analytic)) <= 1e-9
            else:
                assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6) <= 1e-4


class TestGCNForward:
    def test_residual_identity(self):
        model = MolPecoModel(small_config(variant="coulomb-gcn"), seed=0)
        layer = model.gcn_layers[0]
        layer.w_graph.values = np.zeros_like(layer.w_graph.values)
        layer.w_linear.values = np.eye(8)
        h0_values = np.random.default_rng(0).normal(size=(5, 8))
        out = gcn_forward([np.ones((5, 5))], Tensor(h0_values), model)
        np.testing.assert_allclose(out.values, h0_values, rtol=0, atol=1e-15)

    def test_zero_matrix_passes_linear_path_only(self):
        model = MolPecoModel(small_config(variant="coulomb-gcn"), seed=0)
        layer = model.gcn_layers[0]
        h0_values = np.random.default_rng(1).normal(size=(4, 8))
        out = gcn_forward([np.zeros((4, 4))], Tensor(h0_values), model)
        np.testing.assert_allclose(out.values, h0_values @ layer.w_linear.values,
                                   rtol=0, atol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        model = MolPecoModel(small_config(variant="coulomb-gcn", gcn_layers=3), seed=0)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            x = rng.uniform(0.1, 1.0, size=(n, n))
            x = 0.5 * (x + x.T)
            h0 = rng.normal(size=(n, 8))
            perm = rng.permutation(n)
            out = gcn_forward([x], Tensor(h0), model).values
            out_perm = gcn_forward([x[np.ix_(perm, perm)]], Tensor(h0[perm]), model).values
            assert np.max(np.abs(out_perm - out[perm])) <= 1e-9


class TestSumPoolAndClassify:
    def test_single_row(self):
        h = Tensor(np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(sum_pool(h, [1]).values, [[1.0, 2.0, 3.0]])

    def test_all_ones(self):
        assert sum_pool(Tensor(np.ones((4, 2))), [4]).values.tolist() == [[4.0, 4.0]]

    def test_exact_permutation_invariance(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(9, 6)) * np.logspace(-3, 3, 6)
        for _ in range(20):
            perm = rng.permutation(9)
            assert np.array_equal(sum_pool(Tensor(h[perm]), [9]).values,
                                  sum_pool(Tensor(h), [9]).values)

    def test_matches_exactly_rounded_sums_within_rounding_bound(self):
        # recursive summation of n terms errs by at most about
        # (n - 1) u sum|x| with u = eps / 2; the bound allows eps for u
        rng = np.random.default_rng(14)
        h = rng.normal(size=(60, 6)) * np.logspace(-3, 3, 6)
        exact = np.array([math.fsum(h[:, j]) for j in range(6)])
        bound = 59 * np.finfo(np.float64).eps * np.abs(h).sum(axis=0)
        assert np.all(np.abs(sum_pool(Tensor(h), [60]).values[0] - exact) <= bound)

    def test_zero_head_gives_half(self):
        model = MolPecoModel(small_config(variant="coulomb-gcn"), seed=0)
        model.head_w.values = np.zeros_like(model.head_w.values)
        out = classify(Tensor(np.random.default_rng(4).normal(size=(1, 8))), model)
        assert np.array_equal(out.values, np.zeros((1, 3)))
        assert np.array_equal(probabilities(out.values), np.full((1, 3), 0.5))

    def test_classify_shape_and_range(self):
        model = MolPecoModel(small_config(variant="coulomb-gcn"), seed=0)
        m = np.random.default_rng(5).normal(size=(1, 8))
        out = classify(Tensor(m), model)
        assert out.values.shape == (1, 3)
        assert np.array_equal(out.values, m @ model.head_w.values)
        p = probabilities(out.values)
        assert np.all((p > 0) & (p < 1))

    def test_probabilities_of_saturated_logits_tie_inside_unit_interval(self):
        p = probabilities(np.array([[-800.0, -750.0, 0.0, 750.0, 800.0]]))
        lo, hi = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
        assert p.tolist() == [[lo, lo, 0.5, hi, hi]]

    def test_monotone_in_logit_direction(self):
        model = MolPecoModel(small_config(variant="coulomb-gcn"), seed=0)
        m = np.random.default_rng(6).normal(size=(1, 8))
        col = model.head_w.values[:, 0]
        low = classify(Tensor(m), model).values[0, 0]
        high = classify(Tensor(m + 0.1 * col), model).values[0, 0]
        assert high > low


class TestForward:
    def test_deterministic(self):
        rng = np.random.default_rng(7)
        mol = random_molecule(rng, "m", n_atoms=5)
        feats = featurize_molecule(mol, "mol-peco-sym")
        model = MolPecoModel(small_config(), seed=0)
        y1, m1 = forward(feats, model)
        y2, m2 = forward(feats, model)
        assert np.array_equal(y1.values, y2.values)
        assert np.array_equal(m1.values, m2.values)

    def test_identical_seeds_identical_models(self):
        a = MolPecoModel(small_config(), seed=5)
        b = MolPecoModel(small_config(), seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.tensor.values, pb.tensor.values)

    @pytest.mark.parametrize("variant", ["adjacency-gcn", "coulomb-gcn",
                                         "mol-peco-sym", "mol-peco-asym"])
    def test_permutation_invariance(self, variant):
        rng = np.random.default_rng(8)
        model = MolPecoModel(small_config(variant=variant), seed=0)
        for i in range(5):
            mol = random_molecule(rng, f"m{i}", with_bonds=True)
            n = mol.num_atoms
            perm = rng.permutation(n)
            inverse = np.empty(n, dtype=np.int64)
            inverse[perm] = np.arange(n)
            atoms = tuple(mol.atoms[k] for k in perm)
            bonds = tuple((int(inverse[i_]), int(inverse[j_])) for i_, j_ in mol.bonds)
            permuted = Molecule(mol.id, atoms, bonds, mol.labels)
            y, m = forward(featurize_molecule(mol, variant), model)
            y_p, m_p = forward(featurize_molecule(permuted, variant), model)
            assert np.max(np.abs(y.values - y_p.values)) <= 1e-9
            assert np.max(np.abs(m.values - m_p.values)) <= 1e-9

    def test_coulomb_gcn_contained_in_mol_peco_sym(self):
        rng = np.random.default_rng(9)
        mol = random_molecule(rng, "m", n_atoms=5)
        lpe_model = MolPecoModel(small_config(), seed=0)
        for param in lpe_model.parameters():
            if param.name.startswith("lpe."):
                param.tensor.values = np.zeros_like(param.tensor.values)
        plain_model = MolPecoModel(small_config(variant="coulomb-gcn"), seed=1)
        shared = plain_model.param_dict()
        for param in lpe_model.parameters():
            if param.name in shared:
                shared[param.name].tensor.values = param.tensor.values.copy()
        y_lpe, m_lpe = forward(featurize_molecule(mol, "mol-peco-sym"), lpe_model)
        y_plain, m_plain = forward(featurize_molecule(mol, "coulomb-gcn"), plain_model)
        assert np.array_equal(y_lpe.values, y_plain.values)
        assert np.array_equal(m_lpe.values, m_plain.values)

    def test_variant_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        mol = random_molecule(rng, "m")
        feats = featurize_molecule(mol, "coulomb-gcn")
        model = MolPecoModel(small_config(variant="mol-peco-sym"), seed=0)
        with pytest.raises(DataError, match="variant"):
            forward(feats, model)

    def test_outputs_finite_and_in_unit_interval(self):
        rng = np.random.default_rng(11)
        model = MolPecoModel(small_config(), seed=0)
        for i in range(20):
            mol = random_molecule(rng, f"m{i}")
            y, m = forward(featurize_molecule(mol, "mol-peco-sym"), model)
            assert np.all(np.isfinite(y.values))
            p = probabilities(y.values)
            assert np.all((p > 0.0) & (p < 1.0))
            assert np.all(np.isfinite(m.values))

    def test_default_lpe_config_trains_on_real_size_molecule(self):
        # at initialization the default mol-peco-asym model saturates every
        # output on a molecule of realistic size; with each target opposite
        # to its prediction, every head column and the element embedding
        # must still receive a finite, non-zero gradient
        rng = np.random.default_rng(13)
        mol = organic_molecule(rng, "m", 48)
        model = MolPecoModel(ModelConfig(variant="mol-peco-asym", o=3), seed=0)
        logits, _ = forward(featurize_molecule(mol, "mol-peco-asym"), model)
        assert np.all(np.abs(logits.values) > 40.0)
        target = (logits.values.reshape(-1) < 0.0).astype(float)
        loss = compute_loss(logits, target, LossConfig(np.array([0.9, 0.5, 0.2])))
        assert np.isfinite(loss.item())
        ad.backward(loss)
        params = model.param_dict()
        head_grad = params["head.w"].tensor.grad
        embed_grad = params["embed.table"].tensor.grad
        assert np.all(np.isfinite(head_grad)) and np.all(np.isfinite(embed_grad))
        assert np.all(np.any(head_grad != 0.0, axis=0))
        assert np.any(embed_grad != 0.0)


class TestEndToEndGradient:
    def test_full_model_gradcheck(self):
        self._gradcheck(clf_layers=1)

    def test_full_model_gradcheck_through_hidden_head_layer(self):
        self._gradcheck(clf_layers=2)

    def _gradcheck(self, clf_layers):
        # 3-atom molecule, d=8, p=4, 1 GCN layer, 1 transformer layer, and
        # clf_layers - 1 hidden head layers
        rng = np.random.default_rng(12)
        mol = random_molecule(rng, "m", n_atoms=3)
        feats = featurize_molecule(mol, "mol-peco-sym")
        config = small_config(clf_layers=clf_layers)
        model = MolPecoModel(config, seed=0)
        loss_cfg = LossConfig(np.array([1.0, 0.6, 0.3]))
        target = np.array([1.0, 0.0, 1.0])

        def loss_value():
            y, _ = forward(feats, model)
            return compute_loss(y, target, loss_cfg)

        loss = loss_value()
        ad.backward(loss)
        h = 1e-5
        checked = 0
        for param in model.parameters():
            grad = param.tensor.grad
            assert grad is not None, param.name
            values = param.tensor.values
            flat_indices = list(range(0, values.size, max(1, values.size // 4)))
            for flat in flat_indices:
                original = values.reshape(-1)[flat]
                values.reshape(-1)[flat] = original + h
                up = loss_value().item()
                values.reshape(-1)[flat] = original - h
                down = loss_value().item()
                values.reshape(-1)[flat] = original
                numeric = (up - down) / (2 * h)
                analytic = grad.reshape(-1)[flat]
                denom = max(abs(numeric), abs(analytic), 1e-6)
                assert abs(numeric - analytic) / denom <= 1e-4, param.name
                checked += 1
        assert checked > 50
