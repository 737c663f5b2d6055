"""The benchmark's reference computations on cases checkable by hand, so
that an output check cannot pass by being wrong itself.

    python3 -m pytest -q perfbench/test_reference.py
"""

import math

import numpy as np

import reference


def test_coulomb_water():
    o_h = (0.7586, 0.0, 0.5043)
    coords = [(0.0, 0.0, 0.0), o_h, (-0.7586, 0.0, 0.5043)]
    c = reference.coulomb_matrix([8, 1, 1], coords)
    r_oh = math.hypot(0.7586, 0.5043) * 1.8897259886
    r_hh = 2 * 0.7586 * 1.8897259886
    expected = np.array([
        [0.5 * 8 ** 2.4, 8 / r_oh, 8 / r_oh],
        [8 / r_oh, 0.5, 1 / r_hh],
        [8 / r_oh, 1 / r_hh, 0.5],
    ])
    assert np.allclose(c, expected, rtol=1e-14, atol=0.0)
    assert math.isclose(c[0, 0], 73.5166947, rel_tol=1e-8)
    normalized = reference.frobenius_normalized(c)
    assert math.isclose(float(np.sqrt((normalized ** 2).sum())), 1.0, rel_tol=1e-10)


def test_path_laplacians():
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    s = 1 / math.sqrt(2)
    sym = reference.sym_normalized_laplacian(path)
    assert np.allclose(sym, [[1, -s, 0], [-s, 1, -s], [0, -s, 1]], rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(sym), [0.0, 1.0, 2.0], rtol=0, atol=1e-14)
    rw = reference.random_walk_laplacian(path)
    assert np.array_equal(rw, [[1, -1, 0], [-0.5, 1, -0.5], [0, -1, 1]])
    # the random-walk eigenvectors of the path: (1,1,1), (1,0,-1), (1,-1,1)
    for value, vector in ((0, [1, 1, 1]), (1, [1, 0, -1]), (2, [1, -1, 1])):
        assert np.allclose(rw @ vector, value * np.array(vector), atol=1e-15)


def test_auroc_with_ties_by_enumeration():
    # positives 0.4, 0.8 against negatives 0.1, 0.4: wins 1 + 1 + 1, tie 0.5
    assert reference.auroc_pairwise([0.1, 0.4, 0.4, 0.8], [0, 1, 0, 1]) == 3.5 / 4
    assert reference.auroc_pairwise([0.3, 0.3, 0.3], [1, 0, 1]) == 0.5
    assert reference.auroc_pairwise([0.9, 0.1], [0, 1]) == 0.0


def test_cosine_top_k_breaks_ties_by_id():
    ids = ["b", "q", "a", "d", "c"]
    vectors = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    top = reference.cosine_top_k(ids, vectors, "q", 3)
    assert [mol_id for mol_id, _ in top] == ["a", "b", "d"]
    assert top[0][1] == top[1][1] == 1.0
    assert math.isclose(top[2][1], 1 / math.sqrt(2), rel_tol=1e-15)
    # the query's own duplicate ranks first, the query itself never shows
    assert [mol_id for mol_id, _ in reference.cosine_top_k(ids, vectors, "a", 2)] == ["b", "q"]
    assert len(reference.cosine_top_k(ids, vectors, "c", 10)) == 4


def test_sigmoid_and_clip():
    assert reference.sigmoid(np.array([0.0]))[0] == 0.5
    assert math.isclose(reference.sigmoid(np.array([-2.0]))[0], 1 / (1 + math.e ** 2),
                        rel_tol=1e-15)
    clipped = reference.clip_open_unit(reference.sigmoid(np.array([-800.0, 800.0])))
    assert 0.0 < clipped[0] < 1e-300 and clipped[1] == np.nextafter(1.0, 0.0)


def test_recount_cleaning():
    records = [
        {"id": "m1", "labels": ["fruity"]},
        {"id": "m2", "labels": ["fruity", "green"]},
        {"id": "m1", "labels": ["green"]},          # merges into m1
        {"id": "m3", "labels": ["odorless"]},       # kept, odorless too rare
        {"id": "m4", "labels": ["fruity"]},
        {"id": "m4", "labels": ["odorless"]},       # m4 becomes a conflict
        {"id": "m5", "labels": ["smoky"]},          # kept with no label
    ]
    ids, vocabulary, labels = reference.recount_cleaning(records, 2)
    assert ids == ["m1", "m2", "m3", "m5"]
    assert vocabulary == ["fruity", "green"]
    assert labels == {"m1": {"fruity", "green"}, "m2": {"fruity", "green"},
                      "m3": set(), "m5": set()}
