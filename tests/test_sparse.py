"""CSR container checked against dense numpy equivalents."""

import numpy as np
import pytest
from conftest import dense_sym

from dphgnn.hypergraph import build_hypergraph, ensure_min_degree
from dphgnn.sparse import SparseMatrix
from dphgnn.spectral import laplacian_sym


def random_dense(rng, rows, cols, density=0.3):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense


def test_from_coo_sums_duplicates_and_drops_zeros():
    m = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [1, 1, 0, 0], [2.0, 3.0, 1.0, -1.0])
    assert m.nnz == 1
    np.testing.assert_array_equal(m.to_dense(), [[0.0, 5.0], [0.0, 0.0]])


def test_from_dense_round_trip():
    rng = np.random.default_rng(0)
    dense = random_dense(rng, 7, 5)
    np.testing.assert_array_equal(SparseMatrix.from_dense(dense).to_dense(), dense)


def test_identity_and_diag():
    np.testing.assert_array_equal(SparseMatrix.identity(3).to_dense(), np.eye(3))
    np.testing.assert_array_equal(
        SparseMatrix.from_diag(np.array([1.0, 0.0, 2.0])).to_dense(),
        np.diag([1.0, 0.0, 2.0]),
    )


def test_matmul_dense_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rows, inner, cols = rng.integers(1, 12, size=3)
        dense = random_dense(rng, rows, inner)
        other = rng.standard_normal((inner, cols))
        got = SparseMatrix.from_dense(dense) @ other
        np.testing.assert_allclose(got, dense @ other, atol=1e-12)


def test_matmul_dense_with_empty_rows_and_empty_matrix():
    dense = np.zeros((3, 4))
    dense[1, 2] = 5.0
    other = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(SparseMatrix.from_dense(dense) @ other, dense @ other)
    empty = SparseMatrix.from_coo(3, 4, [], [], [])
    np.testing.assert_array_equal(empty @ other, np.zeros((3, 2)))
    no_rows = SparseMatrix.from_coo(0, 4, [], [], [])
    assert (no_rows @ other).shape == (0, 2)
    assert (SparseMatrix.from_dense(dense) @ np.ones((4, 0))).shape == (3, 0)


def reduceat_product(m, other):
    """CSR x dense as one np.add.reduceat over the stored entries' products."""
    out = np.zeros((m.rows, other.shape[1]))
    if m.nnz == 0 or other.shape[1] == 0:
        return out
    contrib = m.data[:, None] * other[m.indices]
    starts = m.indptr[:-1]
    nonempty = np.flatnonzero(m.indptr[1:] > starts)
    out[nonempty] = np.add.reduceat(contrib, starts[nonempty], axis=0)
    return out


def with_row_lengths(rng, lengths, cols):
    """Random CSR matrix whose row i holds exactly lengths[i] entries."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    picked = [rng.choice(cols, length, replace=False) for length in lengths]
    col_idx = np.concatenate(picked) if picked else np.zeros(0, dtype=np.int64)
    return SparseMatrix.from_coo(len(lengths), cols, rows, col_idx, rng.standard_normal(len(rows)))


def wide_range(rng, rows, width):
    # Rows spread over twelve decades, so each summation order rounds differently.
    return rng.standard_normal((rows, width)) * 10.0 ** rng.uniform(-6, 6, (rows, 1))


# Around the 8-term blocks, the 128-term block limit and the recursion beyond it.
ROW_LENGTHS = (1, 2, 8, 9, 16, 17, 128, 129, 130, 300)


@pytest.mark.parametrize("length", ROW_LENGTHS)
def test_matmul_dense_bit_identical_to_reduceat(length):
    rng = np.random.default_rng(length)
    m = with_row_lengths(rng, [length] * 6, 400)
    for width in (1, 5):
        other = wide_range(rng, 400, width)
        assert np.array_equal(m @ other, reduceat_product(m, other))


def test_matmul_dense_mixed_lengths_and_empty_rows_bit_identical():
    rng = np.random.default_rng(20)
    lengths = rng.permutation([0, 0, 0, 3, 1, 300, *ROW_LENGTHS])
    m = with_row_lengths(rng, lengths, 400)
    other = wide_range(rng, 400, 4)
    got = m @ other
    assert np.array_equal(got, reduceat_product(m, other))
    assert np.all(got[lengths == 0] == 0.0)


def test_transpose_product_has_its_own_cached_row_groups():
    rng = np.random.default_rng(22)
    m = with_row_lengths(rng, rng.integers(0, 150, 60), 200)
    other, other_t = wide_range(rng, 200, 3), wide_range(rng, 60, 3)
    assert np.array_equal(m @ other, reduceat_product(m, other))
    assert np.array_equal(m.T @ other_t, reduceat_product(m.T, other_t))
    groups, groups_t = m._row_groups, m.T._row_groups
    assert groups is not None and groups_t is not None and groups is not groups_t
    assert np.array_equal(m.T @ other_t, reduceat_product(m.T, other_t))
    assert m._row_groups is groups and m.T._row_groups is groups_t


def test_with_data_shares_pattern_and_row_groups_and_keeps_zeros():
    rng = np.random.default_rng(24)
    m = with_row_lengths(rng, rng.integers(0, 140, 30), 200)
    before = m.data.copy()
    data = rng.standard_normal(m.nnz)
    data[::3] = 0.0
    w = m.with_data(data)
    assert w.indptr is m.indptr and w.indices is m.indices
    assert m._row_groups is not None and w._row_groups is m._row_groups
    np.testing.assert_array_equal(w.data, data)
    np.testing.assert_array_equal(m.data, before)
    other = wide_range(rng, 200, 3)
    assert np.array_equal(w @ other, reduceat_product(w, other))
    np.testing.assert_allclose(w @ other, w.to_dense() @ other, rtol=1e-12, atol=0)


def test_with_data_rejects_wrong_length():
    from dphgnn.errors import ShapeMismatchError

    m = SparseMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1)), np.float64(1.0)):
        with pytest.raises(ShapeMismatchError):
            m.with_data(bad)


def test_matmul_dense_matches_dense_laplacian_oracle():
    rng = np.random.default_rng(23)
    edges = [tuple(rng.choice(300, int(rng.integers(20, 70)), replace=False)) for _ in range(30)]
    hg = ensure_min_degree(build_hypergraph(300, edges))
    lap = laplacian_sym(hg)
    assert np.diff(lap.indptr).max() > 128
    x = rng.standard_normal((300, 4))
    np.testing.assert_allclose(lap @ x, dense_sym(hg) @ x, atol=1e-12)
    np.testing.assert_allclose(lap.T @ x, dense_sym(hg).T @ x, atol=1e-12)
    assert np.array_equal(lap @ x, reduceat_product(lap, x))


def test_matmul_sparse_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rows, inner, cols = rng.integers(1, 12, size=3)
        a = random_dense(rng, rows, inner)
        b = random_dense(rng, inner, cols)
        got = SparseMatrix.from_dense(a) @ SparseMatrix.from_dense(b)
        np.testing.assert_allclose(got.to_dense(), a @ b, atol=1e-12)


def test_transpose_matches_and_is_memoized():
    rng = np.random.default_rng(3)
    dense = random_dense(rng, 6, 4)
    m = SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(m.T.to_dense(), dense.T)
    assert m.T is m.T


def test_add_and_scale():
    rng = np.random.default_rng(4)
    a = random_dense(rng, 5, 5)
    b = random_dense(rng, 5, 5)
    sa, sb = SparseMatrix.from_dense(a), SparseMatrix.from_dense(b)
    np.testing.assert_allclose(sa.add(sb).to_dense(), a + b, atol=1e-12)
    np.testing.assert_allclose(sa.scale(-2.5).to_dense(), -2.5 * a, atol=1e-12)


def test_scale_rows_and_cols():
    rng = np.random.default_rng(5)
    dense = random_dense(rng, 4, 6)
    m = SparseMatrix.from_dense(dense)
    r = rng.standard_normal(4)
    c = rng.standard_normal(6)
    np.testing.assert_allclose(m.scale_rows(r).to_dense(), dense * r[:, None], atol=1e-12)
    np.testing.assert_allclose(m.scale_cols(c).to_dense(), dense * c[None, :], atol=1e-12)


def test_row_sums_and_diagonal():
    rng = np.random.default_rng(6)
    dense = random_dense(rng, 5, 5)
    m = SparseMatrix.from_dense(dense)
    np.testing.assert_allclose(m.row_sums(), dense.sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(m.diagonal(), np.diag(dense), atol=1e-12)


def test_take_row_range():
    rng = np.random.default_rng(7)
    dense = random_dense(rng, 8, 3)
    m = SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(m.take_row_range(2, 6).to_dense(), dense[2:6])
    assert m.take_row_range(3, 3).shape == (0, 3)


def test_invalid_structure_rejected():
    from dphgnn.errors import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))
    with pytest.raises(ShapeMismatchError):
        # column indices not strictly increasing inside the row
        SparseMatrix(1, 2, np.array([0, 2]), np.array([1, 0]), np.array([1.0, 1.0]))
