"""CSR container checked against dense numpy equivalents."""

import tracemalloc

import numpy as np
import pytest
from conftest import dense_sym, row_slice

from dphgnn.hypergraph import build_hypergraph, clique_owners, cooccurrence, ensure_min_degree, incidence
from dphgnn.errors import ShapeMismatchError
from dphgnn.sparse import EdgeBlocks, FactoredOperator, SparseMatrix
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


def add_at_product(m, other, data=None):
    """CSR x dense as one np.add.at over the stored entries' products, in stored order."""
    data = m.data if data is None else data
    out = np.zeros((m.rows, other.shape[1]))
    np.add.at(out, m._row_of(), other[m.indices] * data[:, None])
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


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# Row lengths from 1 to 300, around 8, 16, 64 and 128.
ROW_LENGTHS = (1, 2, 8, 9, 16, 17, 63, 64, 65, 128, 129, 130, 300)


@pytest.mark.parametrize("length", ROW_LENGTHS)
def test_matmul_dense_bit_identical_to_reduceat(length):
    # Named for the order it pinned before the level loop; the oracle is
    # now np.add.at in stored order.
    rng = np.random.default_rng(length)
    m = with_row_lengths(rng, [length] * 6, 400)
    for width in (1, 5):
        other = wide_range(rng, 400, width)
        assert_same_bits(m @ other, add_at_product(m, other))


def test_matmul_dense_mixed_lengths_and_empty_rows_bit_identical():
    rng = np.random.default_rng(20)
    lengths = rng.permutation([0, 0, 0, 3, 1, 300, *ROW_LENGTHS])
    m = with_row_lengths(rng, lengths, 400)
    other = wide_range(rng, 400, 4)
    got = m @ other
    assert_same_bits(got, add_at_product(m, other))
    assert np.all(got[lengths == 0] == 0.0)


def test_transpose_product_has_its_own_cached_plan():
    rng = np.random.default_rng(22)
    m = with_row_lengths(rng, rng.integers(0, 150, 60), 200)
    other, other_t = wide_range(rng, 200, 3), wide_range(rng, 60, 3)
    assert_same_bits(m @ other, add_at_product(m, other))
    assert_same_bits(m.T @ other_t, add_at_product(m.T, other_t))
    plan, plan_t = m._plan, m.T._plan
    assert plan is not None and plan_t is not None and plan is not plan_t
    assert_same_bits(m.T @ other_t, add_at_product(m.T, other_t))
    assert m._plan is plan and m.T._plan is plan_t


def test_transpose_keeps_its_entry_order_on_both_matrices():
    rng = np.random.default_rng(21)
    m = with_row_lengths(rng, rng.integers(0, 30, 20), 50)
    t = m.T
    assert np.array_equal(t.data, m.data[m._to_transpose])
    assert np.array_equal(m.data, t.data[t._to_transpose])
    assert np.array_equal(m._to_transpose[t._to_transpose], np.arange(m.nnz))


def test_matmul_dense_data_keeps_zeros_and_leaves_the_matrix_alone():
    from conftest import dense_pattern

    rng = np.random.default_rng(24)
    m = with_row_lengths(rng, rng.integers(0, 140, 30), 200)
    before = m.data.copy()
    data = wide_range(rng, m.nnz, 1)[:, 0]
    data[::3] = 0.0
    data[1::7] = -0.0
    other = wide_range(rng, 200, 3)
    got = m.matmul_dense(other, data=data)
    np.testing.assert_array_equal(m.data, before)
    assert_same_bits(got, add_at_product(m, other, data))
    np.testing.assert_allclose(got, dense_pattern(m, data) @ other, rtol=1e-12, atol=0)
    # The plan depends on the pattern alone: the matrix's own values reuse it.
    plan = m._plan
    assert_same_bits(m @ other, add_at_product(m, other))
    assert m._plan is plan


def test_matmul_dense_data_of_signed_zeros_sums_from_positive_zero():
    rng = np.random.default_rng(25)
    m = with_row_lengths(rng, [2, 70, 5], 90)
    other = wide_range(rng, 90, 2)
    for zero in (0.0, -0.0):
        data = np.full(m.nnz, zero)
        got = m.matmul_dense(other, data=data)
        assert_same_bits(got, add_at_product(m, other, data))
        assert np.all(got == 0.0) and not np.signbit(got).any()


def test_matmul_dense_data_at_width_zero_and_on_the_empty_matrix():
    from conftest import dense_pattern

    rng = np.random.default_rng(26)
    m = with_row_lengths(rng, [0, 3, 66, 1], 80)
    data = rng.standard_normal(m.nnz)
    assert_same_bits(m.matmul_dense(np.ones((80, 0)), data=data), np.zeros((4, 0)))
    assert_same_bits(m.T.matmul_dense(np.ones((4, 0)), data=data[m._to_transpose]),
                     np.zeros((80, 0)))
    empty = SparseMatrix.from_coo(3, 4, [], [], [])
    other = wide_range(rng, 4, 2)
    assert_same_bits(empty.matmul_dense(other, data=np.zeros(0)),
                     dense_pattern(empty, np.zeros(0)) @ other)
    assert_same_bits(SparseMatrix.from_coo(0, 0, [], [], []).matmul_dense(np.ones((0, 2))),
                     np.zeros((0, 2)))


def test_matmul_dense_rejects_wrong_length_data():
    m = SparseMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1)), np.float64(1.0)):
        with pytest.raises(ShapeMismatchError):
            m.matmul_dense(np.ones((3, 2)), data=bad)


def test_matmul_dense_plan_is_o_rows_plus_long_row_entries():
    from dphgnn.sparse import _MIN_LEVEL_ROWS

    rng = np.random.default_rng(27)
    lengths = np.array([0, 1, 5, 64, 65, 200, 3, 0, 64, *[20] * 30])
    m = with_row_lengths(rng, lengths, 400)
    other = wide_range(rng, 400, 2)
    assert_same_bits(m @ other, add_at_product(m, other))
    # The plan is O(rows) plus at most nnz / _MIN_LEVEL_ROWS level sizes.
    assert m._plan is not None and all(
        len(part) <= m.rows + m.nnz // _MIN_LEVEL_ROWS for part in m._plan
    )
    rows, starts, sizes = m._plan
    counts = lengths[rows]
    # Levels run while at least 30 rows are unfinished; rows 3, 4, 5 and 8
    # then finish alone, each from its 20-entry level sum.
    assert len(sizes) == 20 and np.all(sizes >= _MIN_LEVEL_ROWS) and len(rows) == 37
    assert np.array_equal(np.sort(rows[:4]), [3, 4, 5, 8]) and counts[4] == 20
    assert np.array_equal(starts, m.indptr[rows])
    # Every entry is visited once: by a level or as an entry of a row finished alone.
    assert int(sizes.sum()) + int((counts[:4] - 20).sum()) == m.nnz


@pytest.mark.parametrize("short_rows", [12, 13, 14])
def test_rows_left_after_the_levels_carry_their_level_sums(short_rows):
    from conftest import dense_pattern

    from dphgnn.sparse import _MIN_LEVEL_ROWS

    rng = np.random.default_rng(60 + short_rows)
    # 15, 16 or 17 non-empty rows: the levels run only from 16 rows on, and
    # the 30-, 6- and 4-entry rows then add their last entries to a
    # three-entry level sum.
    lengths = [30, 6, 4, *[3] * short_rows]
    m = with_row_lengths(rng, rng.permutation(lengths), 60)
    for width in (1, 5):
        other = wide_range(rng, 60, width)
        got = m @ other
        assert_same_bits(got, add_at_product(m, other))
        np.testing.assert_allclose(got, dense_pattern(m, m.data) @ other, rtol=1e-12, atol=0)
    assert len(m._plan[2]) == (3 if len(lengths) >= _MIN_LEVEL_ROWS else 0)


@pytest.mark.parametrize("width", [1, 3])
def test_signed_zeros_in_rows_finished_alone(width):
    from conftest import dense_pattern

    rng = np.random.default_rng(70 + width)
    lengths = np.array([2] * 20 + [40, 9, 25, 0])
    m = with_row_lengths(rng, lengths, 90)
    data = wide_range(rng, m.nnz, 1)[:, 0]
    data[rng.random(m.nnz) < 0.3] = 0.0
    data[rng.random(m.nnz) < 0.3] = -0.0
    # Two levels run, then rows 20 to 22 are finished alone. Row 21 is all
    # -0.0, so from 0.0 its sum is +0.0; row 22's terms after its level sum
    # are all -0.0, and row 20's level sum adds two -0.0 terms.
    data[m.indptr[21] : m.indptr[22]] = -0.0
    data[m.indptr[22] + 2 : m.indptr[23]] = -0.0
    data[m.indptr[20] : m.indptr[20] + 2] = -0.0
    target = np.full((24, width + 2), 7.0)
    for other in (wide_range(rng, 90, 2 * width)[:, ::2], wide_range(rng, 90, width)):
        got = m.matmul_dense(other, data=data, out=target[:, 1:-1])
        assert np.shares_memory(got, target)
        assert_same_bits(got, add_at_product(m, np.ascontiguousarray(other), data))
        np.testing.assert_allclose(got, dense_pattern(m, data) @ other, rtol=1e-12, atol=0)
        assert np.all(got[21] == 0.0) and not np.signbit(got[21]).any()
        assert np.all(target[:, [0, -1]] == 7.0) and np.all(got[23] == 0.0)
    assert len(m._plan[2]) == 2


def test_hub_row_takes_at_most_nnz_over_min_level_rows_plus_min_level_rows_steps():
    from conftest import dense_pattern

    from dphgnn.sparse import _MIN_LEVEL_ROWS

    rng = np.random.default_rng(80)
    # One 1,500-entry row among 600 rows of 3 to 10 entries.
    lengths = rng.permutation([1500, *rng.integers(3, 11, 600)])
    m = with_row_lengths(rng, lengths, 1600)
    for width in (1, 32):
        other = wide_range(rng, 1600, width)
        got = m @ other
        assert_same_bits(got, add_at_product(m, other))
        if width == 1:
            np.testing.assert_allclose(got, dense_pattern(m, m.data) @ other, rtol=1e-12, atol=0)
    rows, _, sizes = m._plan
    # Python steps: one per level, one per row finished alone.
    alone = int(np.count_nonzero(lengths > len(sizes)))
    assert len(sizes) == 10 and alone == 1 and rows[0] == np.argmax(lengths)
    assert len(sizes) + alone <= m.nnz / _MIN_LEVEL_ROWS + _MIN_LEVEL_ROWS


def test_matmul_dense_allocates_only_its_output_and_its_row_runs_beyond_the_scratch_growth():
    import tracemalloc

    from dphgnn import sparse

    rng = np.random.default_rng(81)
    # Rows of 300 entries, two of them longer than every level.
    m = with_row_lengths(rng, rng.permutation([300] * 20 + [350, 390]), 400)
    other = wide_range(rng, 400, 32)
    # The two rows finished alone each sum their level sum and their
    # remaining terms in a run of their own: (51 + 91) rows of 32 values.
    runs = (350 - 300 + 1 + 390 - 300 + 1) * 32 * 8
    for _ in range(2):
        before = sparse._SCRATCH.buffer
        tracemalloc.start()
        try:
            got = m @ other
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grown = 0 if sparse._SCRATCH.buffer is before else sparse._SCRATCH.buffer.nbytes
        assert grown <= 2 * got.nbytes
        # Index temporaries of one level or one row are a few KB; the terms
        # of all entries would be m.nnz * 32 * 8 bytes (1.7 MB).
        assert peak - grown <= got.nbytes + runs + 32 * 1024
        assert_same_bits(got, add_at_product(m, other))


def test_rows_finished_alone_hold_one_run_at_a_time():
    import tracemalloc

    from dphgnn import sparse

    rng = np.random.default_rng(85)
    # Two long rows among 40 short ones: each is finished alone in a run
    # of its own, 1.5 MB and 2.0 MB at width 32.
    m = with_row_lengths(rng, rng.permutation([6000, 8000, *rng.integers(3, 11, 40)]), 10_000)
    other = wide_range(rng, 10_000, 32)
    longest = (8000 - 10 + 1) * 32 * 8
    for _ in range(2):
        before = sparse._SCRATCH.buffer
        tracemalloc.start()
        try:
            got = m @ other
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grown = 0 if sparse._SCRATCH.buffer is before else sparse._SCRATCH.buffer.nbytes
        # Index temporaries of the long row are 64 KB; a second live run
        # would add 1.5 MB.
        assert peak - grown <= got.nbytes + longest + 8000 * 8 + 32 * 1024
        assert_same_bits(got, add_at_product(m, other))


def test_a_row_finished_alone_leaves_the_scratch_buffer_at_two_outputs(monkeypatch):
    from dphgnn import sparse

    rng = np.random.default_rng(84)
    # One 100,000-entry hub row among 99 rows of 3 to 10 entries.
    m = with_row_lengths(rng, [100_000, *rng.integers(3, 11, 99)], 100_000)
    other = wide_range(rng, 100_000, 32)
    monkeypatch.setattr(sparse._SCRATCH, "buffer", np.empty(0))
    got = m @ other
    # A level's terms and the accumulator; the hub row's run is its own.
    assert sparse._SCRATCH.buffer.size <= 2 * m.rows * 32
    assert_same_bits(got, add_at_product(m, other))


def test_matmul_dense_matches_dense_laplacian_oracle():
    rng = np.random.default_rng(23)
    edges = [tuple(rng.choice(300, int(rng.integers(20, 70)), replace=False)) for _ in range(30)]
    hg = ensure_min_degree(build_hypergraph(300, edges))
    lap = laplacian_sym(hg)
    assert np.diff(lap.indptr).max() > 128
    x = rng.standard_normal((300, 4))
    np.testing.assert_allclose(lap @ x, dense_sym(hg) @ x, atol=1e-12)
    np.testing.assert_allclose(lap.T @ x, dense_sym(hg).T @ x, atol=1e-12)
    assert_same_bits(lap @ x, add_at_product(lap, x))


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


def test_row_slice():
    rng = np.random.default_rng(7)
    dense = random_dense(rng, 8, 3)
    m = SparseMatrix.from_dense(dense)
    np.testing.assert_array_equal(row_slice(m, 2, 6).to_dense(), dense[2:6])
    assert row_slice(m, 3, 3).shape == (0, 3)


def test_invalid_structure_rejected():
    from dphgnn.errors import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))
    with pytest.raises(ShapeMismatchError):
        # column indices not strictly increasing inside the row
        SparseMatrix(1, 2, np.array([0, 2]), np.array([1, 0]), np.array([1.0, 1.0]))


# ----------------------------------------------------------------------
# CSR operations against the lexsort construction they replaced


def lexsort_csr(rows, cols, r, c, v):
    """(indptr, indices, data) by the reference route: always a stable
    lexsort, then reduceat over duplicate runs, then drop exact zeros."""
    r = np.asarray(r, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    v = np.asarray(v, dtype=np.float64)
    if len(r):
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        starts = np.flatnonzero(np.concatenate(([True], (r[1:] != r[:-1]) | (c[1:] != c[:-1]))))
        v = np.add.reduceat(v, starts)
        r, c = r[starts], c[starts]
        keep = v != 0.0
        r, c, v = r[keep], c[keep], v[keep]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=rows))))
    return indptr, c, v


def assert_csr(mat, expected):
    for got, want in zip((mat.indptr, mat.indices, mat.data), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def coo_case(rng, rows, cols, count):
    r = rng.integers(0, rows, count)
    c = rng.integers(0, cols, count)
    return r, c, wide_range(rng, count, 1)[:, 0]


def test_from_coo_sorted_unique_input():
    rng = np.random.default_rng(30)
    key = np.unique(rng.integers(0, 40 * 30, 300))
    r, c = np.divmod(key, 30)
    v = wide_range(rng, len(key), 1)[:, 0]
    v[::7] = 0.0
    assert_csr(SparseMatrix.from_coo(40, 30, r, c, v), lexsort_csr(40, 30, r, c, v))


def test_from_coo_sorted_input_with_duplicates():
    rng = np.random.default_rng(31)
    r, c, v = coo_case(rng, 9, 7, 400)
    order = np.lexsort((c, r))
    r, c, v = r[order], c[order], v[order]
    # A run of 30 at one position, summed in reduceat's (not a running) order.
    r, c, v = np.append(r, [8] * 30), np.append(c, [6] * 30), np.append(v, 1.0 / np.arange(3, 33))
    v[:4] = [1.5, -1.5, 2.0, -2.0]
    r[:4], c[:4] = 0, 0
    assert np.all(np.diff(r * 7 + c) >= 0)
    assert_csr(SparseMatrix.from_coo(9, 7, r, c, v), lexsort_csr(9, 7, r, c, v))


def test_from_coo_unsorted_input():
    rng = np.random.default_rng(32)
    for _ in range(20):
        r, c, v = coo_case(rng, 12, 10, 200)
        v[rng.random(200) < 0.1] = 0.0
        assert_csr(SparseMatrix.from_coo(12, 10, r, c, v), lexsort_csr(12, 10, r, c, v))


def test_from_coo_empty_input():
    m = SparseMatrix.from_coo(3, 4, [], [], [])
    assert_csr(m, lexsort_csr(3, 4, [], [], []))
    assert m.nnz == 0 and m.shape == (3, 4)


def rescale_reference(m, values):
    r, c, _ = m.to_coo()
    return lexsort_csr(m.rows, m.cols, r, c, values)


def test_scaling_drops_entries_that_underflow():
    m = SparseMatrix.from_coo(3, 3, [0, 0, 1, 2], [0, 2, 1, 0], [1e-200, 2.0, 1e-200, -3.0])
    r, c, v = m.to_coo()
    for got, values in (
        (m.scale(1e-200), v * 1e-200),
        (m.scale_rows([1e-200, 1e-200, 1.0]), v * np.array([1e-200, 1e-200, 1.0])[r]),
        (m.scale_cols([1e-200, 1e-200, 1.0]), v * np.array([1e-200, 1e-200, 1.0])[c]),
    ):
        assert_csr(got, rescale_reference(m, values))
        assert got.nnz < m.nnz
        assert np.all(got.data != 0.0)


def test_scaling_reuses_the_pattern():
    rng = np.random.default_rng(33)
    m = SparseMatrix.from_dense(random_dense(rng, 6, 5))
    r, c, v = m.to_coo()
    rf, cf = rng.standard_normal(6), rng.standard_normal(5)
    for got, values in (
        (m.scale(-2.5), v * -2.5),
        (m.scale_rows(rf), v * rf[r]),
        (m.scale_cols(cf), v * cf[c]),
    ):
        assert_csr(got, rescale_reference(m, values))
        assert got.indptr is m.indptr and got.indices is m.indices


def test_add_with_exact_cancellation():
    rng = np.random.default_rng(34)
    cancelled = 0
    for _ in range(20):
        a = SparseMatrix.from_dense(wide_range(rng, 8, 6) * (rng.random((8, 6)) < 0.4))
        b_dense = wide_range(rng, 8, 6) * (rng.random((8, 6)) < 0.4)
        cancel = (rng.random((8, 6)) < 0.5) & (a.to_dense() != 0.0)
        b_dense[cancel] = -a.to_dense()[cancel]
        b = SparseMatrix.from_dense(b_dense)
        (r1, c1, v1), (r2, c2, v2) = a.to_coo(), b.to_coo()
        expected = lexsort_csr(
            8, 6, np.concatenate([r1, r2]), np.concatenate([c1, c2]), np.concatenate([v1, v2])
        )
        got = a.add(b)
        assert_csr(got, expected)
        assert not np.any((got.to_dense() != 0.0) & cancel) and np.all(got.data != 0.0)
        cancelled += int(cancel.sum())
    assert cancelled > 0


def test_add_of_empty_matrices():
    empty = SparseMatrix.from_coo(2, 3, [], [], [])
    m = SparseMatrix.from_dense(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 3.0]]))
    assert_csr(empty.add(empty), lexsort_csr(2, 3, [], [], []))
    assert_csr(m.add(empty), (m.indptr, m.indices, m.data))
    assert_csr(empty.add(m), (m.indptr, m.indices, m.data))


def test_transpose_with_empty_rows_and_columns():
    rng = np.random.default_rng(35)
    dense = random_dense(rng, 9, 7, density=0.5)
    dense[[0, 4, 8]] = 0.0
    dense[:, [0, 3, 6]] = 0.0
    m = SparseMatrix.from_dense(dense)
    r, c, v = m.to_coo()
    assert_csr(m.T, lexsort_csr(7, 9, c, r, v))
    assert m.T.shape == (7, 9) and m.T.T is m
    empty = SparseMatrix.from_coo(4, 2, [], [], [])
    assert_csr(empty.T, lexsort_csr(2, 4, [], [], []))


def test_row_sums_match_add_at_order():
    rng = np.random.default_rng(36)
    m = with_row_lengths(rng, rng.integers(0, 40, 25), 60)
    m = SparseMatrix(m.rows, m.cols, m.indptr, m.indices, wide_range(rng, m.nnz, 1)[:, 0])
    r, _, v = m.to_coo()
    expected = np.zeros(m.rows)
    np.add.at(expected, r, v)
    assert np.array_equal(m.row_sums(), expected)


def bincount_product(m, data, other):
    """(m with values data)^T @ other, one np.bincount per output column."""
    rows = np.repeat(np.arange(m.rows), np.diff(m.indptr))
    out = np.empty((m.cols, other.shape[1]))
    for j in range(other.shape[1]):
        out[:, j] = np.bincount(m.indices, weights=data * other[rows, j], minlength=m.cols)
    return out


# Column entry counts from 0 to 300. The twenty 10-entry columns keep ten
# levels running; the five longer ones are then finished alone.
COLUMN_COUNTS = (0, 1, 2, 7, 8, 9, 63, 64, 65, 129, 300, 0, 3, *[10] * 20)


@pytest.mark.parametrize("width", [1, 5, 32])
def test_transpose_matmul_dense_bit_identical_to_bincount(width):
    from conftest import dense_pattern

    rng = np.random.default_rng(40 + width)
    # Row lengths of the 33 x 400 matrix are the column counts of its transpose.
    m = with_row_lengths(rng, COLUMN_COUNTS, 400).T
    assert np.array_equal(np.bincount(m.indices, minlength=m.cols), COLUMN_COUNTS)
    data = wide_range(rng, m.nnz, 1)[:, 0]
    data[rng.random(m.nnz) < 0.2] = 0.0
    data[rng.random(m.nnz) < 0.1] = -0.0
    first = np.flatnonzero(m.indices == 1)
    data[first] = -0.0  # a column of -0.0 terms sums to +0.0 from 0.0
    other = wide_range(rng, m.rows, width)
    got = m.transpose_matmul_dense(data, other)
    assert_same_bits(got, bincount_product(m, data, other))
    assert not np.signbit(got[1]).any() and np.all(got[[0, 11]] == 0.0)
    # Columns of 63 to 300 entries leave the level loop after ten levels.
    rows, _, sizes = m.T._plan
    counts = np.asarray(COLUMN_COUNTS)[rows]
    assert len(sizes) == 10 and int(sizes.sum()) + int((counts[:5] - 10).sum()) == m.nnz
    assert np.array_equal(np.sort(rows[:5]), [6, 7, 8, 9, 10]) and counts[5] == 10
    np.testing.assert_allclose(got, dense_pattern(m, data).T @ other, rtol=1e-12, atol=0)


def test_transpose_matmul_dense_non_symmetric_square_pattern():
    rng = np.random.default_rng(47)
    dense = random_dense(rng, 90, 90, density=0.4)
    dense[:, 5] = rng.standard_normal(90)  # one full column of 90 entries
    dense[:, 6] = 0.0
    m = SparseMatrix.from_dense(dense)
    assert not np.array_equal(dense != 0, dense.T != 0)
    other = wide_range(rng, 90, 5)
    assert_same_bits(m.transpose_matmul_dense(m.data, other), bincount_product(m, m.data, other))
    add_at = np.zeros((90, 5))
    r, c, v = m.to_coo()
    np.add.at(add_at, c, v[:, None] * other[r])
    assert_same_bits(m.transpose_matmul_dense(m.data, other), add_at)


def test_transpose_matmul_dense_matches_dense_incidence_oracle():
    from conftest import dense_incidence, random_covering_hypergraph

    from dphgnn.hypergraph import incidence

    rng = np.random.default_rng(48)
    hg = random_covering_hypergraph(rng, 40, 70, max_size=6)
    h, dense = incidence(hg), dense_incidence(hg)
    # Small integers: every order of summation is exact, so the dense product is exact too.
    x = rng.integers(-4, 5, (hg.num_nodes, 5)).astype(float)
    y = rng.integers(-4, 5, (hg.num_edges, 5)).astype(float)
    assert_same_bits(h.transpose_matmul_dense(h.data, x), dense.T @ x + 0.0)
    assert_same_bits(h.T.transpose_matmul_dense(h.T.data, y), dense @ y + 0.0)


def test_transpose_matmul_dense_hub_column_leaves_the_level_loop():
    from dphgnn.attention import attention_pattern
    from dphgnn.expand import clique_expand
    from dphgnn.sparse import _MIN_LEVEL_ROWS

    rng = np.random.default_rng(49)
    # Node 0 sits in every edge, so its column holds every node.
    edges = [(0, *range(k, k + 5)) for k in range(1, 301, 5)]
    edges += [(0, *rng.choice(np.arange(1, 301), 5, replace=False).tolist()) for _ in range(200)]
    hub = attention_pattern(clique_expand(build_hypergraph(301, edges)).adjacency)
    assert np.bincount(hub.indices)[0] == 301
    w = rng.random(hub.nnz)
    other = wide_range(rng, 301, 32)
    assert_same_bits(hub.transpose_matmul_dense(w, other), bincount_product(hub, w, other))
    # The hub column comes first and is finished alone after the levels.
    rows, _, sizes = hub.T._plan
    assert rows[0] == 0 and len(sizes) < 301
    assert len(sizes) <= hub.nnz // _MIN_LEVEL_ROWS


def test_transpose_matmul_dense_caches_its_plan_on_the_pattern_only():
    rng = np.random.default_rng(50)
    m = with_row_lengths(rng, rng.integers(0, 80, 40), 100)
    data = rng.standard_normal(m.nnz)
    assert m._transpose is None
    other = wide_range(rng, 40, 3)
    first = m.transpose_matmul_dense(data, other)
    plan = m.T._plan
    assert plan is not None and m._plan is None
    assert m.transpose_matmul_dense(data, other) is not first
    assert m.T._plan is plan
    assert_same_bits(first, bincount_product(m, data, other))
    empty = SparseMatrix.from_coo(3, 4, [], [], [])
    assert_same_bits(empty.transpose_matmul_dense(np.zeros(0), np.ones((3, 2))), np.zeros((4, 2)))


def test_transpose_matmul_dense_rejects_bad_shapes():
    from dphgnn.errors import ShapeMismatchError

    m = SparseMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    for data, other in ((np.ones(2), np.ones((2, 1))), (np.ones((3, 1)), np.ones((2, 1))),
                        (np.ones(3), np.ones((3, 1))), (np.ones(3), np.ones(2))):
        with pytest.raises(ShapeMismatchError):
            m.transpose_matmul_dense(data, other)


def test_factored_operator_matches_its_dense_sum():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, mid, inner, width = (int(v) for v in rng.integers(1, 9, size=4))
        m1, m2 = random_dense(rng, n, mid), random_dense(rng, mid, inner)
        m3 = random_dense(rng, inner, n)
        d1, d2 = rng.standard_normal(n), rng.standard_normal(n)
        op = FactoredOperator((n, n), [
            (d1, ()),
            (d2, tuple(map(SparseMatrix.from_dense, (m1, m2, m3)))),
            (None, (SparseMatrix.from_dense(m1 @ m2 @ m3),)),
        ])
        dense = np.diag(d1) + np.diag(d2) @ m1 @ m2 @ m3 + m1 @ m2 @ m3
        x = rng.standard_normal((n, width))
        np.testing.assert_allclose(op.matmul_dense(x), dense @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            op.transpose().matmul_dense(x), dense.T @ x, rtol=1e-12, atol=1e-12
        )
        assert op.transpose().transpose() is op
        assert op.stored_terms == n + sum(
            SparseMatrix.from_dense(m).nnz for m in (m1, m2, m3, m1 @ m2 @ m3)
        )


def test_factored_operator_leaves_its_input_alone():
    x = np.arange(6.0).reshape(3, 2)
    before = x.copy()
    op = FactoredOperator((3, 3), [(np.full(3, 2.0), ()), (None, (SparseMatrix.identity(3),))])
    np.testing.assert_array_equal(op.matmul_dense(x), 3 * before)
    np.testing.assert_array_equal(x, before)


def test_factored_operator_rejects_factors_that_do_not_chain():
    a = SparseMatrix.identity(3)
    b = SparseMatrix.from_coo(2, 3, [0], [1], [1.0])
    with pytest.raises(ShapeMismatchError):
        FactoredOperator((3, 3), [(None, (a, b))])
    with pytest.raises(ShapeMismatchError):
        FactoredOperator((3, 3), [(np.ones(2), (a,))])
    with pytest.raises(ShapeMismatchError):
        FactoredOperator((3, 3), [(None, ())])
    with pytest.raises(ShapeMismatchError):
        FactoredOperator((3, 3), [])
    with pytest.raises(ShapeMismatchError):
        FactoredOperator((3, 3), [(np.ones(3), (a,))]).matmul_dense(np.ones((2, 1)))



def test_rows_sum_bit_for_bit_whatever_their_order_and_never_alias_the_scratch():
    from dphgnn import sparse

    rng = np.random.default_rng(51)
    # Non-increasing lengths on both sides of 64 rows: the level sort keeps every row in place.
    lengths = np.sort(rng.integers(1, 65, 40))[::-1]
    sorted_rows = with_row_lengths(rng, lengths, 300)
    # The same rows in another order, which the sort must permute.
    order = rng.permutation(40)
    rows, cols, vals = sorted_rows.to_coo()
    permuted = SparseMatrix.from_coo(40, 300, np.argsort(order)[rows], cols, vals)
    for other in (wide_range(rng, 300, 5), wide_range(rng, 300, 6)[:, ::2]):
        got = sorted_rows @ other
        assert_same_bits(got, (permuted @ other)[np.argsort(order)])
        assert_same_bits(got, add_at_product(sorted_rows, np.ascontiguousarray(other)))
        assert not np.shares_memory(got, sparse._SCRATCH.buffer)


def test_a_product_never_reuses_an_earlier_output():
    rng = np.random.default_rng(52)
    uniform = with_row_lengths(rng, [4] * 50, 80)
    mixed = with_row_lengths(rng, [0, 3, 70, 9, 1, 64], 80)
    other = wide_range(rng, 80, 8)
    first = uniform @ other
    kept = first.copy()
    # Products of other sizes, one of them on a strided view.
    results = [mixed @ other, uniform @ other[:, 1::2], uniform.T @ wide_range(rng, 50, 16),
               mixed.transpose_matmul_dense(mixed.data, wide_range(rng, 6, 32))]
    assert_same_bits(first, kept)
    for a in results:
        assert not np.shares_memory(a, first)
        assert all(not np.shares_memory(a, b) for b in results if b is not a)


def test_matmul_dense_writes_into_a_column_view_of_out():
    rng = np.random.default_rng(53)
    m = with_row_lengths(rng, [0, 3, 70, 9, 1], 80)
    other = wide_range(rng, 80, 6)[:, ::2]
    target = np.full((5, 7), 7.0)
    got = m.matmul_dense(other, out=target[:, 2:5])
    assert np.shares_memory(got, target)
    assert_same_bits(target[:, 2:5], add_at_product(m, np.ascontiguousarray(other)))
    assert np.all(target[:, [0, 1, 5, 6]] == 7.0)
    t_target = np.full((80, 3), 7.0)
    m.transpose_matmul_dense(m.data, wide_range(rng, 5, 3), out=t_target)
    assert np.all(t_target[np.bincount(m.indices, minlength=80) == 0] == 0.0)
    for bad in (np.empty((5, 2)), np.empty((4, 3)), np.empty(15)):
        with pytest.raises(ShapeMismatchError):
            m.matmul_dense(other, out=bad)


def special_values(rng, rows, width):
    """wide_range rows with +-0.0, NaN, +-inf and values near the largest float mixed in."""
    other = wide_range(rng, rows, width)
    flat = other.reshape(-1)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.7e308, -1.7e308]
    at = rng.choice(flat.size, 3 * len(specials), replace=False)
    flat[at] = np.repeat(specials, 3)
    return other


def assert_same_bits_but_nan(got, want):
    # NaN in the same places, every other bit equal. A NaN's sign is not
    # compared: numpy's add returns one operand's NaN or the other's depending
    # on where the pair falls in its vector loop.
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert_same_bits(got[~nan], want[~nan])


# Row lengths for the column-path products: 63 rows run five levels; the
# 150-entry row is then finished in a run of its own, and the twelve rows of
# 13 to 40 entries in batches that share the level terms' scratch.
COLUMN_PATH_LENGTHS = {
    "batches": [150, 40, 35, 30, 28, 25, 22, 20, 18, 17, 16, 15, 13, *[5] * 50],
    "empty rows": [0, 9, 0, 30, *[3] * 20, 0],
    "hub": [2000, *[4] * 40],
}


def column_path_matrix(rng, lengths, kind):
    # A pattern with unit values, a value per column, or a value per column
    # but for one entry one ulp off.
    m = with_row_lengths(rng, lengths, max(lengths) + 10)
    scale = wide_range(rng, m.cols, 1)[:, 0]
    data = {"ones": np.ones(m.nnz), "columns": scale[m.indices],
            "one ulp off": scale[m.indices]}[kind]
    if kind == "one ulp off":
        shared = np.flatnonzero(np.bincount(m.indices)[m.indices] > 1)
        off = shared[len(shared) // 2]
        data[off] = np.nextafter(data[off], np.inf)
    return SparseMatrix(m.rows, m.cols, m.indptr, m.indices, data)


@pytest.mark.parametrize("kind", ["ones", "columns", "one ulp off"])
@pytest.mark.parametrize("lengths", list(COLUMN_PATH_LENGTHS), ids=list(COLUMN_PATH_LENGTHS))
def test_column_path_products_are_bit_identical_to_add_at(kind, lengths):
    rng = np.random.default_rng(90 + len(kind) + len(lengths))
    lengths = np.array(COLUMN_PATH_LENGTHS[lengths])
    m = column_path_matrix(rng, lengths, kind)
    columns = m._column_values()
    if kind == "ones":
        assert columns is True
    else:
        assert (columns is False) == (kind == "one ulp off")
    with np.errstate(all="ignore"):
        for width in (1, 7):
            other = special_values(rng, 2 * m.cols, width)
            target = np.full((m.rows + 1, width + 2), 7.0)
            want = add_at_product(m, other[::2])
            # A strided operand, and a strided column view of out as segment_sums passes.
            got = m.matmul_dense(other[::2], out=target[1:, 1:-1])
            assert_same_bits_but_nan(got, want)
            assert np.all(target[0] == 7.0) and np.all(target[:, [0, -1]] == 7.0)
            assert_same_bits_but_nan(m @ np.ascontiguousarray(other[::2]), want)
            # The product matmul's backward runs: by the transpose's own values.
            g = special_values(rng, m.rows, width)
            assert_same_bits_but_nan(m.T @ g, bincount_product(m, m.data, g))
    # Without empty rows the output is gathered from the accumulator.
    empty = lengths == 0
    assert (m._inverse is None) == empty.any()
    assert np.all(got[empty] == 0.0) and not np.signbit(got[empty]).any()


def test_row_scaled_matrix_has_a_column_scaled_transpose():
    rng = np.random.default_rng(95)
    unit = column_path_matrix(rng, COLUMN_PATH_LENGTHS["batches"], "ones")
    rows = unit.scale_rows(wide_range(rng, unit.rows, 1)[:, 0])
    assert rows._column_values() is False
    assert isinstance(rows.T._column_values(), np.ndarray)
    # A unit matrix built as such, and its transpose, need no scan.
    ones = SparseMatrix.ones(unit.rows, unit.cols, unit.indptr, unit.indices)
    assert ones._columns is True and ones.T._columns is True
    g = special_values(rng, rows.rows, 5)
    with np.errstate(all="ignore"):
        assert_same_bits_but_nan(rows.T @ g, bincount_product(rows, rows.data, g))
        assert_same_bits_but_nan(rows.transpose_matmul_dense(rows.data, g), bincount_product(rows, rows.data, g))


def test_column_path_leaves_the_scratch_buffer_at_two_outputs_and_a_copy(monkeypatch):
    from dphgnn import sparse

    rng = np.random.default_rng(96)
    for kind in ("ones", "columns"):
        m = column_path_matrix(rng, COLUMN_PATH_LENGTHS["hub"], kind)
        other = wide_range(rng, m.cols, 32)
        monkeypatch.setattr(sparse._SCRATCH, "buffer", np.empty(0))
        got = m @ other
        # A level's terms, the accumulator and, for scaled columns, the scaled copy;
        # the hub row's run is its own.
        copy = 0 if kind == "ones" else other.size
        assert sparse._SCRATCH.buffer.size <= 2 * m.rows * 32 + copy
        assert_same_bits(got, add_at_product(m, other))


def test_scaled_copy_never_overwrites_an_operand_in_the_scratch_buffer():
    from dphgnn import sparse

    rng = np.random.default_rng(97)
    m = column_path_matrix(rng, COLUMN_PATH_LENGTHS["batches"], "columns")
    values = wide_range(rng, m.cols, 4)
    want = add_at_product(m, values)
    # The operand sits where the product would put its scaled copy: behind
    # the level terms and the accumulator.
    block = m.rows * 4
    other = sparse._scratch(2 * block + values.size)[2 * block :].reshape(values.shape)
    other[...] = values
    assert_same_bits(m @ other, want)
    assert_same_bits(other, values)


def test_transpose_keeps_its_column_sort_only_for_transposed_products():
    from dphgnn.attention import attention_pattern
    from dphgnn.expand import clique_expand

    rng = np.random.default_rng(54)
    m = with_row_lengths(rng, rng.integers(0, 30, 20), 50)
    assert m.T._order is None and m._order is None
    m.transpose_matmul_dense(m.data, wide_range(rng, 20, 2))
    assert m._order is not None and m.T._order is None
    assert not np.array_equal(m.T.indptr[:-1], m.indptr[:-1])
    # A symmetric pattern's transpose shares its structure arrays.
    hg = build_hypergraph(9, [(0, 1, 2), (2, 3, 4, 5), (5, 6), (7,), (1, 8)])
    pattern = attention_pattern(clique_expand(hg).adjacency)
    assert pattern.T.indptr is pattern.indptr and pattern.T.indices is pattern.indices
    square = SparseMatrix.from_dense(np.triu(np.ones((4, 4))))
    assert square.T.indices is not square.indices
    np.testing.assert_array_equal(square.T.to_dense(), np.tril(np.ones((4, 4))))


# Sizes 1 to 6; pairs {2, 3} and {0, 7, 8} lie in three edges, node 3 in five
# (a singleton among them), and node 13 in none.
MIXED_EDGES = [(0, 1, 2, 3), (1, 2, 3, 4, 5), (2, 3), (6,), (0, 7, 8), (0, 7, 8, 9, 10, 11),
               (3,), (9, 10), (2, 3, 4), (12,)]


def mixed_blocks():
    hg = build_hypergraph(14, MIXED_EDGES)
    co = cooccurrence(hg)
    return hg, co, EdgeBlocks(co, incidence(hg), clique_owners(hg))


def test_edge_blocks_own_every_pattern_pair_once_at_its_lowest_edge():
    hg, co, blocks = mixed_blocks()
    rows = co._row_of()
    owned, copies = [], 0
    for members, owners in blocks.chunks:
        for edge_members, edge_owners in zip(members, owners):
            size = len(edge_members)
            for i, j in np.ndindex(size, size):
                p = edge_owners[i, j]
                if p == co.nnz:
                    copies += 1
                    continue
                owned.append(p)
                u, v = edge_members[i], edge_members[j]
                assert (rows[p], co.indices[p]) == (u, v)
                # The owner is the lowest-numbered edge holding both.
                holder = min(e for e, edge in enumerate(hg.edges) if u in edge and v in edge)
                assert hg.edges.index(tuple(edge_members)) == holder
    assert sorted(owned) == list(range(co.nnz))
    assert copies == sum(len(e) ** 2 for e in MIXED_EDGES) - co.nnz > 0
    # Each edge's block sits in the chunks once, its members in sorted order.
    listed = sorted(tuple(m) for members, _ in blocks.chunks for m in members.tolist())
    assert listed == sorted(hg.edges)
    assert blocks.scatter.shape == (14, len(hg.members))


def test_edge_blocks_products_match_the_dense_pattern():
    _, co, blocks = mixed_blocks()
    rng = np.random.default_rng(80)
    data = rng.standard_normal(co.nnz)
    data[::5] = 0.0
    dense = np.zeros((14, 14))
    dense[co._row_of(), co.indices] = data
    other = rng.standard_normal((14, 6))[:, ::2]
    np.testing.assert_allclose(blocks.matmul_dense(other, data=data), dense @ other, rtol=1e-13, atol=1e-14)
    out = np.full((14, 3), np.nan)
    blocks.transpose_matmul_dense(data, other, out=out)
    np.testing.assert_allclose(out, dense.T @ other, rtol=1e-13, atol=1e-14)
    assert np.all(out[13] == 0.0)  # a node in no edge sums nothing
    left = rng.standard_normal((14, 3))
    want = (left[co._row_of()] * other[co.indices]).sum(axis=1)
    np.testing.assert_allclose(blocks.pair_dots(left, other), want, rtol=1e-13, atol=1e-14)
    np.testing.assert_array_equal(co.pair_dots(left, other), (left[co._row_of()] * other[co.indices]) @ np.ones(3))


def test_edge_blocks_reject_bad_operands_and_owners():
    hg, co, blocks = mixed_blocks()
    for bad in (np.ones((13, 2)), np.ones(14)):
        with pytest.raises(ShapeMismatchError):
            blocks.matmul_dense(bad, data=np.ones(co.nnz))
    with pytest.raises(ShapeMismatchError):
        blocks.matmul_dense(np.ones((14, 2)), data=np.ones(co.nnz - 1))
    with pytest.raises(ShapeMismatchError):
        blocks.transpose_matmul_dense(np.ones(co.nnz), np.ones((14, 2)), out=np.empty((14, 3)))
    with pytest.raises(ShapeMismatchError):
        blocks.pair_dots(np.ones((14, 2)), np.ones((14, 3)))
    owners = clique_owners(hg)
    terms = sum(len(e) ** 2 for e in MIXED_EDGES)
    twice = owners.copy()
    twice[1] = twice[0]
    for bad in (owners[1:], owners - owners.min() - 1, owners + terms, twice):
        with pytest.raises(ShapeMismatchError):
            EdgeBlocks(co, incidence(hg), bad)


def test_edge_blocks_build_nothing_quadratic_in_the_node_count():
    rng = np.random.default_rng(81)
    n = 50_000
    hg = build_hypergraph(n, [tuple(rng.choice(n, 8, replace=False)) for _ in range(100)])
    co, owners, h = cooccurrence(hg), clique_owners(hg), incidence(hg)
    tracemalloc.start()
    blocks = EdgeBlocks(co, h, owners)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    squares = 100 * 8 * 8
    assert len(owners) <= squares
    for members, block_owners in blocks.chunks:
        assert members.size <= squares and block_owners.size <= squares
    # The scatter matrix holds one entry per incidence; only its row offsets are n + 1 long.
    assert blocks.scatter.nnz == len(hg.members) == 800
    # Linear in n + sum |e|^2 (n^2 float64s would be 20 GB).
    assert peak < 64 * (n + squares)
