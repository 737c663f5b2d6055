"""Matrix representations, Laplacians, and the eigensolver.

Expected values come from independent oracles: a scalar brute-force
Coulomb computation written directly from the defining formula, the
closed-form normalized-Laplacian spectrum of path graphs, and numpy's
LAPACK eigensolver as an independent decomposition route.
"""

import math

import numpy as np
import pytest

from molpeco.checkpoints import read_arrays
from molpeco.chemio import Atom, Molecule
from molpeco.errors import ConvergenceError, DataError, GeometryError
from molpeco.features import (
    BOHR_PER_ANGSTROM,
    CACHE_MAGIC,
    MIN_ATOM_DISTANCE,
    MolFeatures,
    _fix_signs,
    adjacency_matrix,
    asym_normalized_laplacian,
    coulomb_matrix,
    eig_symmetric,
    featurize_molecule,
    laplacian,
    lpe_input,
    normalize_frobenius,
    normalize_minmax,
    read_feature_cache,
    sym_normalized_laplacian,
    write_feature_cache,
)

from synthdata import organic_molecule, random_molecule

# 0.5 * 6^2.4 evaluated at 50 decimal digits, frozen
CARBON_DIAGONAL = 36.85810519942595


def mol_from(z_list, coords, bonds=None, mol_id="m"):
    atoms = tuple(Atom(z, tuple(float(c) for c in xyz)) for z, xyz in zip(z_list, coords))
    return Molecule(mol_id, atoms, bonds)


def coulomb_oracle(z_list, coords):
    """Brute-force scalar evaluation of the Coulomb matrix definition."""
    n = len(z_list)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                out[i][j] = 0.5 * z_list[i] ** 2.4
            else:
                dx = coords[i][0] - coords[j][0]
                dy = coords[i][1] - coords[j][1]
                dz = coords[i][2] - coords[j][2]
                dist = math.sqrt(dx * dx + dy * dy + dz * dz) * BOHR_PER_ANGSTROM
                out[i][j] = z_list[i] * z_list[j] / dist
    return np.array(out)


def random_walk_laplacian(x):
    """D^{-1} (D - X), built independently of the spectrum under test."""
    return laplacian(x) / x.sum(axis=1)[:, None]


def coulomb_loop_reference(mol):
    """The Coulomb matrix by a per-pair double loop with the same float
    operations as the broadcast version, so results must be bit-equal;
    raises on the first (i < j, row-major) pair closer than
    MIN_ATOM_DISTANCE."""
    z = mol.atomic_numbers().astype(np.float64)
    coords = mol.coordinates()
    n = mol.num_atoms
    c = np.zeros((n, n))
    for i in range(n):
        c[i, i] = 0.5 * z[i] ** 2.4
        for j in range(i + 1, n):
            dist_ang = float(np.sqrt(np.sum((coords[i] - coords[j]) ** 2)))
            if dist_ang < MIN_ATOM_DISTANCE:
                raise GeometryError(
                    f"molecule '{mol.id}': atoms {i} and {j} are "
                    f"{dist_ang:.2e} Angstrom apart (degenerate geometry)"
                )
            c[i, j] = c[j, i] = z[i] * z[j] / (dist_ang * BOHR_PER_ANGSTROM)
    return c


def random_weight_matrix(rng, n):
    """Random symmetric matrix with positive off-diagonal weights."""
    x = rng.uniform(0.1, 2.0, size=(n, n))
    x = 0.5 * (x + x.T)
    np.fill_diagonal(x, rng.uniform(0.0, 1.0, size=n))
    return x


class TestAdjacencyMatrix:
    def test_two_atom_bond(self):
        mol = mol_from([1, 1], [(0, 0, 0), (0, 0, 0.74)], bonds=((0, 1),))
        assert adjacency_matrix(mol).tolist() == [[0, 1], [1, 0]]

    def test_single_atom(self):
        mol = mol_from([1], [(0, 0, 0)])
        mol = Molecule("m", mol.atoms, ())
        assert adjacency_matrix(mol).tolist() == [[0.0]]

    def test_linear_chain(self):
        mol = mol_from([6, 6, 6], [(0, 0, 0), (1.5, 0, 0), (3.0, 0, 0)],
                       bonds=((0, 1), (1, 2)))
        expected = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert adjacency_matrix(mol).tolist() == expected

    def test_missing_bonds_is_error(self):
        mol = mol_from([1, 1], [(0, 0, 0), (0, 0, 0.74)])
        with pytest.raises(DataError, match="Coulomb"):
            adjacency_matrix(mol)


class TestCoulombMatrix:
    def test_single_hydrogen(self):
        c = coulomb_matrix(mol_from([1], [(0, 0, 0)]))
        assert c.shape == (1, 1)
        assert abs(c[0, 0] - 0.5) < 1e-15

    def test_h2_one_bohr(self):
        x = 1.0 / BOHR_PER_ANGSTROM
        c = coulomb_matrix(mol_from([1, 1], [(0, 0, 0), (x, 0, 0)]))
        assert abs(c[0, 1] - 1.0) < 1e-12
        assert abs(c[0, 0] - 0.5) < 1e-15

    def test_carbon_diagonal_golden(self):
        c = coulomb_matrix(mol_from([6], [(0, 0, 0)]))
        assert abs(c[0, 0] - CARBON_DIAGONAL) < 1e-10

    def test_water_against_oracle(self):
        z = [8, 1, 1]
        coords = [(0.0, 0.0, 0.0), (0.758602, 0.0, 0.504284),
                  (-0.758602, 0.0, 0.504284)]
        c = coulomb_matrix(mol_from(z, coords))
        np.testing.assert_allclose(c, coulomb_oracle(z, coords), rtol=0, atol=1e-10)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        mol = random_molecule(rng, "m", n_atoms=7)
        c = coulomb_matrix(mol)
        assert np.max(np.abs(c - c.T)) == 0.0

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        mol = random_molecule(rng, "m", n_atoms=6)
        c = coulomb_matrix(mol)
        # random rotation (QR orthogonalization) plus translation
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = mol.coordinates() @ q.T + rng.normal(size=3)
        mol2 = mol_from(mol.atomic_numbers().tolist(), moved.tolist())
        np.testing.assert_allclose(coulomb_matrix(mol2), c, rtol=0, atol=1e-9)

    def test_permutation_conjugates(self):
        rng = np.random.default_rng(2)
        mol = random_molecule(rng, "m", n_atoms=6)
        c = coulomb_matrix(mol)
        perm = rng.permutation(6)
        z = mol.atomic_numbers()[perm]
        coords = mol.coordinates()[perm]
        c_perm = coulomb_matrix(mol_from(z.tolist(), coords.tolist()))
        assert np.array_equal(c_perm, c[np.ix_(perm, perm)])

    def test_coincident_atoms_rejected(self):
        mol = mol_from([1, 1], [(0, 0, 0), (0, 0, 1e-8)])
        with pytest.raises(GeometryError):
            coulomb_matrix(mol)

    def test_real_size_exactly_symmetric_and_bit_equal_to_loop(self):
        rng = np.random.default_rng(24)
        for n in (40, 60):
            mol = organic_molecule(rng, "m", n)
            c = coulomb_matrix(mol)
            assert np.array_equal(c, c.T)
            assert np.array_equal(c, coulomb_loop_reference(mol))

    def test_real_size_permutation_bit_equal(self):
        rng = np.random.default_rng(25)
        for n in (45, 60):
            mol = organic_molecule(rng, "m", n)
            c = coulomb_matrix(mol)
            perm = rng.permutation(n)
            permuted = mol_from(mol.atomic_numbers()[perm].tolist(),
                                mol.coordinates()[perm].tolist())
            inverse = np.argsort(perm)
            assert np.array_equal(coulomb_matrix(permuted)[np.ix_(inverse, inverse)], c)

    def test_real_size_first_close_pair_named(self):
        rng = np.random.default_rng(26)
        mol = organic_molecule(rng, "m", 50)
        coords = mol.coordinates()
        # three coincident pairs; the row-major first one must be named
        for src, dst in ((41, 7), (30, 12), (44, 25)):
            coords[src] = coords[dst] + 1e-8
        broken = mol_from(mol.atomic_numbers().tolist(), coords.tolist(), mol_id="bad")
        with pytest.raises(GeometryError) as expected:
            coulomb_loop_reference(broken)
        with pytest.raises(GeometryError) as got:
            coulomb_matrix(broken)
        assert str(got.value) == str(expected.value)
        assert "'bad': atoms 7 and 41 are" in str(got.value)


class TestNormalizations:
    def test_frobenius_definition(self):
        c = np.array([[3.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(normalize_frobenius(c), c / (5.0 + 1e-9), rtol=0,
                                   atol=0)

    def test_frobenius_zero_matrix(self):
        assert np.all(normalize_frobenius(np.zeros((3, 3))) == 0.0)

    def test_frobenius_unit_norm(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=(5, 5))
        assert abs(np.linalg.norm(normalize_frobenius(c)) - 1.0) < 1e-8

    def test_minmax_definition(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = (c - 1.0) / (3.0 + 1e-9)
        np.testing.assert_allclose(normalize_minmax(c), expected, rtol=0, atol=0)

    def test_minmax_constant_matrix(self):
        assert np.all(normalize_minmax(np.full((3, 3), 7.0)) == 0.0)

    def test_minmax_range(self):
        rng = np.random.default_rng(4)
        c = rng.normal(size=(6, 6)) * 100
        out = normalize_minmax(c)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestLaplacians:
    def test_laplacian_definition(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(laplacian(x), np.array([[2.0, -2.0], [-2.0, 2.0]]))

    def test_laplacian_row_sums_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_weight_matrix(rng, int(rng.integers(2, 12)))
            assert np.max(np.abs(laplacian(x).sum(axis=1))) <= 1e-9

    def test_laplacian_ignores_diagonal(self):
        rng = np.random.default_rng(6)
        x = random_weight_matrix(rng, 8)
        zeroed = x.copy()
        np.fill_diagonal(zeroed, 0.0)
        assert np.array_equal(laplacian(x), laplacian(zeroed))

    def test_sym_normalized_two_node(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        l2 = sym_normalized_laplacian(x)
        np.testing.assert_allclose(l2, [[1.0, -1.0], [-1.0, 1.0]], rtol=0, atol=1e-15)
        eigenvalues = eig_symmetric(l2).eigenvalues
        np.testing.assert_allclose(eigenvalues, [0.0, 2.0], rtol=0, atol=1e-12)

    def test_sym_normalized_coulomb_min_eigenvalue_zero(self):
        rng = np.random.default_rng(7)
        for i in range(20):
            mol = random_molecule(rng, f"m{i}")
            l2 = sym_normalized_laplacian(coulomb_matrix(mol))
            # independent decomposition route
            lam = np.linalg.eigvalsh(l2)
            assert abs(lam[0]) <= 1e-8
            assert abs(eig_symmetric(l2).eigenvalues[0]) <= 1e-8

    def test_path_graph_closed_form_spectrum(self):
        # normalized Laplacian of an n-node unit path has eigenvalues
        # 1 - cos(k*pi/(n-1)); for 4 nodes: 0, 1/2, 3/2, 2
        n = 4
        x = np.zeros((n, n))
        for i in range(n - 1):
            x[i, i + 1] = x[i + 1, i] = 1.0
        spec = eig_symmetric(sym_normalized_laplacian(x))
        expected = sorted(1.0 - math.cos(k * math.pi / (n - 1)) for k in range(n))
        np.testing.assert_allclose(spec.eigenvalues, expected, rtol=0, atol=1e-10)

    def test_isolated_node_rejected(self):
        x = np.zeros((3, 3))
        x[0, 1] = x[1, 0] = 1.0
        with pytest.raises(DataError, match="degree"):
            sym_normalized_laplacian(x)

    def test_quadratic_form_identity(self):
        # f' L1 f == 0.5 * sum_ij X_ij (f_i - f_j)^2 for zero-diagonal X
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            x = random_weight_matrix(rng, n)
            np.fill_diagonal(x, 0.0)
            lap = laplacian(x)
            f = rng.normal(size=n)
            direct = float(f @ lap @ f)
            pairwise = 0.5 * sum(
                x[i, j] * (f[i] - f[j]) ** 2 for i in range(n) for j in range(n)
            )
            bound = 1e-8 * np.linalg.norm(x) * float(f @ f)
            assert abs(direct - pairwise) <= bound

    def test_sym_quadratic_form_in_rescaled_coordinates(self):
        # f' L2 f == 0.5 * sum_ij X_ij (f_i/sqrt(d_i) - f_j/sqrt(d_j))^2
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            x = random_weight_matrix(rng, n)
            d = x.sum(axis=1)
            l2 = sym_normalized_laplacian(x)
            f = rng.normal(size=n)
            g = f / np.sqrt(d)
            off = x.copy()
            np.fill_diagonal(off, 0.0)
            pairwise = 0.5 * sum(
                off[i, j] * (g[i] - g[j]) ** 2 for i in range(n) for j in range(n)
            )
            assert abs(float(f @ l2 @ f) - pairwise) <= 1e-8 * max(1.0, float(f @ f))


class TestAsymLaplacian:
    def test_equal_degrees_match_symmetric(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        l_rw = random_walk_laplacian(x)
        np.testing.assert_allclose(l_rw, [[1.0, -1.0], [-1.0, 1.0]], rtol=0, atol=1e-15)
        spec = asym_normalized_laplacian(x)
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0], rtol=0, atol=1e-15)

    def test_eigenvalues_match_symmetric(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = random_weight_matrix(rng, int(rng.integers(2, 12)))
            spec_rw = asym_normalized_laplacian(x)
            spec_sym = eig_symmetric(sym_normalized_laplacian(x))
            np.testing.assert_allclose(spec_rw.eigenvalues, spec_sym.eigenvalues,
                                       rtol=0, atol=1e-8)

    def test_eigen_residual(self):
        rng = np.random.default_rng(11)
        for i in range(20):
            mol = random_molecule(rng, f"m{i}")
            x = coulomb_matrix(mol)
            l_rw = random_walk_laplacian(x)
            spec = asym_normalized_laplacian(x)
            residual = l_rw @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.linalg.norm(l_rw))


class TestEigSymmetric:
    def test_identity(self):
        spec = eig_symmetric(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0], rtol=0, atol=0)
        np.testing.assert_allclose(spec.eigenvectors.T @ spec.eigenvectors, np.eye(3),
                                   rtol=0, atol=1e-12)

    def test_diagonal_matrix(self):
        spec = eig_symmetric(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=0)
        np.testing.assert_allclose(spec.eigenvectors, np.eye(3), rtol=0, atol=0)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.normal(size=(8, 8))
            a = 0.5 * (a + a.T)
            spec = eig_symmetric(a)
            rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
            assert np.linalg.norm(rebuilt - a) <= 1e-8 * np.linalg.norm(a)

    def test_orthonormal_eigenvectors(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(12, 12))
        a = 0.5 * (a + a.T)
        v = eig_symmetric(a).eigenvectors
        assert np.linalg.norm(v.T @ v - np.eye(12)) <= 1e-8

    def test_eigen_residual_vs_independent_solver(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(10, 10))
        a = 0.5 * (a + a.T)
        spec = eig_symmetric(a)
        np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(a),
                                   rtol=0, atol=1e-9)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(7, 7))
        a = 0.5 * (a + a.T)
        first = eig_symmetric(a)
        second = eig_symmetric(a)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        for col in range(7):
            pivot = np.argmax(np.abs(first.eigenvectors[:, col]))
            assert first.eigenvectors[pivot, col] >= 0.0

    def test_fix_signs_matches_column_loop(self):
        def loop_reference(vectors):
            vectors = vectors.copy()
            for col, row in enumerate(np.argmax(np.abs(vectors), axis=0)):
                if vectors[row, col] < 0.0:
                    vectors[:, col] = -vectors[:, col]
            return vectors

        rng = np.random.default_rng(24)
        # ties on the largest magnitude, signed zeros, and random columns
        tied = np.array([[-0.5, 0.5, 0.0], [0.5, -0.5, -0.0], [0.0, 0.0, -1.0]])
        random_columns = [rng.normal(size=(n, n)) for n in (1, 5, 40)]
        for vectors in [tied, np.asfortranarray(tied)] + random_columns:
            got = _fix_signs(vectors)
            expected = loop_reference(vectors)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
            assert got.flags.c_contiguous

    def test_non_symmetric_rejected(self):
        with pytest.raises(DataError, match="symmetric"):
            eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_lapack_failure_is_convergence_error(self):
        # NaN entries pass the symmetry guard (NaN > tol is False) and make
        # LAPACK report non-convergence
        with pytest.raises(ConvergenceError, match="did not converge"):
            eig_symmetric(np.full((4, 4), np.nan))

    def test_real_size_matches_lapack_eigvalsh(self):
        rng = np.random.default_rng(22)
        for n in (40, 52, 60):
            x = normalize_frobenius(coulomb_matrix(organic_molecule(rng, "m", n)))
            lap = sym_normalized_laplacian(x)
            spec = eig_symmetric(lap)
            np.testing.assert_allclose(
                spec.eigenvalues, np.linalg.eigvalsh(lap),
                rtol=0, atol=1e-12 * max(1.0, float(np.linalg.norm(lap))))

    def test_real_size_random_walk_residual(self):
        rng = np.random.default_rng(23)
        for n in (40, 52, 60):
            x = normalize_frobenius(coulomb_matrix(organic_molecule(rng, "m", n)))
            l_rw = random_walk_laplacian(x)
            spec = asym_normalized_laplacian(x)
            residual = l_rw @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
            assert np.max(np.abs(residual)) <= 1e-10 * max(1.0, np.linalg.norm(l_rw))


class TestLPEInput:
    def _path_spectrum(self, n):
        x = np.zeros((n, n))
        for i in range(n - 1):
            x[i, i + 1] = x[i + 1, i] = 1.0
        return eig_symmetric(sym_normalized_laplacian(x))

    def test_padding_beyond_molecule_size(self):
        # a molecule with fewer atoms than p gets its n real pairs, no padding
        spec = self._path_spectrum(2)
        pairs = lpe_input(spec, p=20)
        assert pairs.shape == (2, 2, 2)
        assert np.array_equal(pairs[:, :, 0], np.tile(spec.eigenvalues, (2, 1)))
        assert np.array_equal(pairs[:, :, 1], spec.eigenvectors)

    def test_single_pair(self):
        spec = self._path_spectrum(3)
        pairs = lpe_input(spec, p=1)
        assert pairs.shape == (3, 1, 2)
        assert np.all(pairs[:, 0, 0] == spec.eigenvalues[0])
        assert np.array_equal(pairs[:, 0, 1], spec.eigenvectors[:, 0])

    def test_fiedler_vector_monotone_on_path(self):
        # the Fiedler vector of a path's combinatorial Laplacian orders
        # the chain end to end
        n = 6
        x = np.zeros((n, n))
        for i in range(n - 1):
            x[i, i + 1] = x[i + 1, i] = 1.0
        spec = eig_symmetric(laplacian(x))
        fiedler = spec.eigenvectors[:, 1]
        diffs = np.diff(fiedler)
        assert np.all(diffs > 0) or np.all(diffs < 0)


class TestFeaturizeMolecule:
    def test_variant_dispatch(self):
        rng = np.random.default_rng(20)
        mol = random_molecule(rng, "m", n_atoms=5)
        plain = featurize_molecule(mol, "coulomb-gcn")
        sym = featurize_molecule(mol, "mol-peco-sym")
        asym = featurize_molecule(mol, "mol-peco-asym")
        assert plain.spectrum is None
        np.testing.assert_allclose(sym.spectrum.eigenvalues, asym.spectrum.eigenvalues,
                                   rtol=0, atol=1e-12)
        # random-walk eigenvectors are degree-rescaled, not equal to the
        # symmetric ones
        assert np.max(np.abs(sym.spectrum.eigenvectors
                             - asym.spectrum.eigenvectors)) > 1e-6
        assert np.array_equal(sym.matrix, asym.matrix)

    @pytest.mark.parametrize("variant", ["adjacency-gcn", "coulomb-gcn", "mol-peco-sym",
                                         "mol-peco-asym"])
    def test_features_carry_the_molecules_id_and_labels(self, variant):
        # after featurize, a dataset row is the molecule's features
        mol = random_molecule(np.random.default_rng(22), "m7", labels={"b", "a"},
                              with_bonds=True)
        feat = featurize_molecule(mol, variant)
        assert (feat.id, feat.kind, feat.labels) == ("m7", variant, frozenset({"a", "b"}))

    def test_unknown_variant_rejected(self):
        rng = np.random.default_rng(21)
        with pytest.raises(DataError, match="variant"):
            featurize_molecule(random_molecule(rng, "m"), "nope")


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        mols = [random_molecule(rng, f"m{i}", with_bonds=i > 0,
                                labels={"b", "a"} if i % 2 else ()) for i in range(4)]
        feats = [featurize_molecule(m, "mol-peco-sym", "frobenius") for m in mols]
        header = {"variant": "mol-peco-sym", "normalization": "frobenius", "p": 20}
        path = tmp_path / "cache.bin"
        write_feature_cache(path, feats, header)
        got_header, got = read_feature_cache(path)
        assert got_header["variant"] == "mol-peco-sym"
        assert got_header["molecules"] == [
            [mol.id, sorted(mol.labels), mol.num_atoms] for mol in mols]
        assert got_header["molecules"][1][1] == ["a", "b"]
        assert list(got) == ["m0", "m1", "m2", "m3"]
        for mol, feat in zip(mols, feats):
            loaded = got[feat.id]
            assert (loaded.id, loaded.kind, loaded.labels) == (mol.id, "mol-peco-sym", mol.labels)
            assert np.array_equal(loaded.matrix, feat.matrix)
            assert np.array_equal(loaded.atomic_numbers, feat.atomic_numbers)
            assert np.array_equal(loaded.spectrum.eigenvalues, feat.spectrum.eigenvalues)
            assert np.array_equal(loaded.spectrum.eigenvectors, feat.spectrum.eigenvectors)

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(18)
        mols = [random_molecule(rng, f"m{i}") for i in range(3)]
        feats = [featurize_molecule(m, "coulomb-gcn", "minmax") for m in mols]
        header = {"variant": "coulomb-gcn", "normalization": "minmax", "p": 20}
        write_feature_cache(tmp_path / "a.bin", feats, header)
        write_feature_cache(tmp_path / "b.bin", feats, header)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_ids_containing_slashes_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        ids = ["a/b", "a", "a/b/matrix", "/z", "x/"]
        feats = [featurize_molecule(random_molecule(rng, mol_id), "mol-peco-asym")
                 for mol_id in ids]
        write_feature_cache(tmp_path / "cache.bin", feats, {"variant": "mol-peco-asym"})
        _, got = read_feature_cache(tmp_path / "cache.bin")
        assert sorted(got) == sorted(ids)
        for feat in feats:
            loaded = got[feat.id]
            assert loaded.id == feat.id
            assert np.array_equal(loaded.matrix, feat.matrix)
            assert np.array_equal(loaded.atomic_numbers, feat.atomic_numbers)
            assert np.array_equal(loaded.spectrum.eigenvectors, feat.spectrum.eigenvectors)

    def test_fields_are_packed_in_molecule_order(self, tmp_path):
        rng = np.random.default_rng(20)
        mols = [random_molecule(rng, f"m{i}", with_bonds=i != 1) for i in range(3)]
        feats = [featurize_molecule(m, "mol-peco-asym") for m in mols]
        write_feature_cache(tmp_path / "cache.bin", feats, {"variant": "mol-peco-asym"})
        _, arrays = read_arrays(tmp_path / "cache.bin", CACHE_MAGIC, "feature cache")
        assert sorted(arrays) == ["eigenvalues", "eigenvectors", "matrix", "z"]
        assert np.array_equal(arrays["z"], np.concatenate([f.atomic_numbers for f in feats]))
        assert np.array_equal(arrays["matrix"],
                              np.concatenate([f.matrix.ravel() for f in feats]))
        assert np.array_equal(arrays["eigenvalues"],
                              np.concatenate([f.spectrum.eigenvalues for f in feats]))
        assert np.array_equal(arrays["eigenvectors"],
                              np.concatenate([f.spectrum.eigenvectors.ravel() for f in feats]))
        plain = [featurize_molecule(m, "coulomb-gcn") for m in mols]
        write_feature_cache(tmp_path / "plain.bin", plain, {"variant": "coulomb-gcn"})
        _, arrays = read_arrays(tmp_path / "plain.bin", CACHE_MAGIC, "feature cache")
        assert sorted(arrays) == ["matrix", "z"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            read_feature_cache(path)
