"""Shape and exactness tests for the mixed-type k-nearest-neighbour kernel.

Every case is checked against a brute-force reference that scores all
training rows with ``‖Δnumerical‖² + mismatch_cost · mismatches``, once
through the KD-tree levels and once through the blocked scan (small inputs
would otherwise go straight to the scan).
"""

import time

import numpy as np
import pytest

from repro.tabular import neighbors
from repro.tabular.neighbors import mixed_knn


def _all_d2(train_num, train_codes, query_num, query_codes, cost):
    """Brute force: every (query, training row) squared distance."""
    d2 = ((query_num[:, None, :] - train_num[None, :, :]) ** 2).sum(axis=-1)
    return d2 + cost * (query_codes[:, None, :] != train_codes[None, :, :]).sum(axis=-1)


def _table(rng, n, n_num, cards):
    num = rng.normal(size=(n, n_num)) * rng.uniform(0.5, 3.0, size=n_num)
    codes = np.column_stack([rng.integers(0, c, n) for c in cards]) if cards else np.empty((n, 0), int)
    return num, codes


def _assert_exact(train_num, train_codes, query_num, query_codes, k, cost, **kwargs):
    d2, idx = mixed_knn(train_num, train_codes, query_num, query_codes, k, mismatch_cost=cost, **kwargs)
    full = _all_d2(train_num, train_codes, query_num, query_codes, cost)
    expected = np.sort(full, axis=1)[:, : min(k, train_num.shape[0])]
    assert d2.shape == idx.shape == expected.shape
    np.testing.assert_allclose(d2, expected, rtol=1e-12, atol=1e-12)
    # Returned rows are distinct and really sit at the reported distances.
    assert all(len(set(row)) == len(row) for row in idx.tolist())
    np.testing.assert_allclose(np.take_along_axis(full, idx, axis=1), d2, rtol=1e-12, atol=1e-12)
    return d2, idx


@pytest.fixture(params=["trees", "scan"])
def search_path(request, monkeypatch):
    if request.param == "trees":
        monkeypatch.setattr(neighbors, "_SCAN_CELLS", 0)
    else:
        monkeypatch.setattr(neighbors, "MAX_TREES", 0)
    return request.param


@pytest.mark.usefixtures("search_path")
class TestMixedKnnShapes:
    def test_mixed_table_matches_brute_force(self):
        rng = np.random.default_rng(1)
        train_num, train_codes = _table(rng, 400, 3, [3, 5, 2])
        query_num, query_codes = _table(rng, 120, 3, [3, 5, 2])
        _, idx = _assert_exact(train_num, train_codes, query_num, query_codes, 6, 0.7)
        # Continuous coordinates leave no ties, so the rows themselves agree.
        full = _all_d2(train_num, train_codes, query_num, query_codes, 0.7)
        np.testing.assert_array_equal(idx, np.argsort(full, axis=1)[:, :6])

    def test_self_query_finds_itself_first(self):
        rng = np.random.default_rng(2)
        num, codes = _table(rng, 300, 2, [4, 4])
        d2, idx = _assert_exact(num, codes, num, codes, 5, 1.0)
        np.testing.assert_array_equal(idx[:, 0], np.arange(300))
        assert np.all(d2[:, 0] == 0.0)

    def test_no_numerical_columns(self):
        rng = np.random.default_rng(3)
        train_num, train_codes = _table(rng, 200, 0, [3, 4, 2])
        query_num, query_codes = _table(rng, 50, 0, [3, 4, 2])
        d2, _ = _assert_exact(train_num, train_codes, query_num, query_codes, 4, 1.0)
        assert set(np.unique(d2)) <= {0.0, 1.0, 2.0, 3.0}

    def test_no_categorical_columns(self):
        rng = np.random.default_rng(4)
        train_num, train_codes = _table(rng, 250, 3, [])
        query_num, query_codes = _table(rng, 60, 3, [])
        _assert_exact(train_num, train_codes, query_num, query_codes, 3, 1.0)

    def test_k_at_least_n(self):
        rng = np.random.default_rng(5)
        train_num, train_codes = _table(rng, 6, 2, [2, 3])
        query_num, query_codes = _table(rng, 9, 2, [2, 3])
        for k in (6, 7, 50):
            d2, idx = _assert_exact(train_num, train_codes, query_num, query_codes, k, 1.0)
            assert idx.shape == (9, 6)
            assert all(sorted(row) == list(range(6)) for row in idx.tolist())

    def test_single_row(self):
        num, codes = np.array([[0.5, -1.0]]), np.array([[2, 0]])
        d2, idx = mixed_knn(num, codes, num, codes, 3, mismatch_cost=1.0)
        assert idx.tolist() == [[0]] and d2.tolist() == [[0.0]]
        query_num, query_codes = np.array([[1.5, -1.0], [0.5, 1.0]]), np.array([[1, 0], [2, 0]])
        _assert_exact(num, codes, query_num, query_codes, 1, 1.0)

    def test_zero_mismatch_cost_ignores_categories(self):
        rng = np.random.default_rng(6)
        train_num, train_codes = _table(rng, 300, 2, [3, 3, 3])
        query_num, query_codes = _table(rng, 80, 2, [3, 3, 3])
        _, idx = _assert_exact(train_num, train_codes, query_num, query_codes, 5, 0.0)
        _, numeric_only = _assert_exact(
            train_num, train_codes[:, :0], query_num, query_codes[:, :0], 5, 1.0
        )
        np.testing.assert_array_equal(idx, numeric_only)

    def test_unseen_query_code_mismatches_everything(self):
        rng = np.random.default_rng(7)
        train_num, train_codes = _table(rng, 200, 2, [3, 4])
        query_num, query_codes = _table(rng, 40, 2, [3, 4])
        query_codes[::2, 1] = 4  # no training row has code 4 in column 1
        _assert_exact(train_num, train_codes, query_num, query_codes, 3, 1.5)

    def test_chunk_size_changes_nothing(self):
        rng = np.random.default_rng(8)
        train_num, train_codes = _table(rng, 500, 2, [3, 6])
        query_num, query_codes = _table(rng, 230, 2, [3, 6])
        full = mixed_knn(train_num, train_codes, query_num, query_codes, 4, mismatch_cost=1.0)
        chunked = mixed_knn(
            train_num, train_codes, query_num, query_codes, 4, mismatch_cost=1.0, chunk_size=7
        )
        np.testing.assert_array_equal(full[0], chunked[0])
        np.testing.assert_array_equal(full[1], chunked[1])

    def test_invalid_arguments(self):
        num, codes = np.zeros((3, 1)), np.zeros((3, 1), dtype=int)
        with pytest.raises(ValueError):
            mixed_knn(num[:0], codes[:0], num, codes, 1, mismatch_cost=1.0)
        with pytest.raises(ValueError):
            mixed_knn(num, codes, num, codes, 0, mismatch_cost=1.0)
        with pytest.raises(ValueError):
            mixed_knn(num, codes, num, codes, 1, mismatch_cost=-1.0)
        with pytest.raises(ValueError):
            mixed_knn(num, codes, num, codes, 1, mismatch_cost=1.0, chunk_size=0)


class TestTreeCap:
    def test_wide_schema_hits_the_tree_cap_and_stays_fast(self, monkeypatch):
        # 24 categoricals have 2^24 column sets; the tree cap must hand the
        # still-active queries to the blocked scan instead.
        rng = np.random.default_rng(9)
        num, codes = _table(rng, 3_000, 2, [3] * 24)
        built = []
        real_tree = neighbors.cKDTree

        def counting_tree(data, **kwargs):
            built.append(len(data))
            return real_tree(data, **kwargs)

        monkeypatch.setattr(neighbors, "cKDTree", counting_tree)
        start = time.perf_counter()
        d2, idx = mixed_knn(num, codes, num, codes, 5, mismatch_cost=1.0)
        elapsed = time.perf_counter() - start
        assert len(built) <= neighbors.MAX_TREES
        assert elapsed < 10.0
        expected = np.sort(_all_d2(num, codes, num, codes, 1.0), axis=1)[:, :5]
        np.testing.assert_allclose(d2, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(idx[:, 0], np.arange(3_000))
