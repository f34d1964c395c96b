"""Row-compressed sparse matrices over float64.

Only the operations the hypergraph pipeline needs are implemented:
construction from COO triplets, dense round-trips, transposition,
sparse @ dense, transposed sparse @ dense and sparse @ sparse products,
elementwise addition, diagonal scaling, and contiguous row slicing.

Structure operations work on the CSR arrays directly. ``scale``,
``scale_rows`` and ``scale_cols`` multiply ``data`` and reuse ``indptr``
and ``indices``, dropping any product that underflows to 0.0. ``add``
merges the two row-major entry lists. ``transpose`` counts the columns
for its row offsets and orders the entries by one stable sort of the
column indices. ``row_sums`` is one ``np.bincount``. ``from_coo`` sorts
only triplets that are not already in row-major order; of the callers
here, only the sparse @ sparse product hands it unsorted triplets.

Sparse @ dense groups the rows by their entry count L and, per group,
gathers the L scaled input rows of every row into one (L, rows, width)
block. Axis 0 of a block is reduced in the order ``np.add.reduceat``
uses, so products are bit-identical to that formulation: the first term
plus numpy's pairwise sum of the other L - 1 terms. A pairwise sum of
fewer than 8 terms is a running sum; of 8 to 128 terms it keeps 8
running sums, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
then adds the leftover terms one by one; longer sums split at half the
count, rounded down to a multiple of 8, and recurse on both halves.

The transposed product :meth:`SparseMatrix.transpose_matmul_dense` puts
caller-given values on the pattern and returns (pattern)ᵀ @ dense. Output
row c adds the terms of column c's entries in stored order, starting from
0.0: the order of ``np.bincount`` and of ``np.add.at``, signs of zero
included. Columns with at most ``_LEVEL_CAP`` entries are summed by level:
level k adds every such column's k-th entry into a contiguous prefix of an
accumulator whose rows are those columns sorted by entry count, most
first. The few longer columns are summed by ``_scatter_rows``, one flat
``np.bincount`` keyed by column and output column, so the level loop
never runs more than ``_LEVEL_CAP`` times. Its plan (entry positions,
their row ids, the level sizes and the column order) depends on the
pattern alone.

A matrix is immutable once built: its transpose, the row grouping of its
products and the column plan of its transposed product are cached on the
instance, each built on first use. :meth:`SparseMatrix.with_data` puts new
values on the same pattern and shares that row grouping with its source.
Such a matrix may hold zeros (an attention weight that dropout removed,
say), since only products read it.

A :class:`FactoredOperator` is a sum of terms diag(d) M1 ... Mk of
matrices, applied factor by factor and never multiplied out. A product
through it gathers the stored entries of its factors instead of those of
their product: for the clique-pattern operators of a hypergraph, nnz(H)
per factor rather than the O(sum |e|^2) entries of H H^T.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError

__all__ = ["FactoredOperator", "SparseMatrix"]

# Columns with more entries than this leave the level loop of the transposed
# product for one flat bincount, which bounds that loop's Python iterations.
_LEVEL_CAP = 64


def _ranges(lengths: np.ndarray) -> np.ndarray:
    # Concatenation of arange(l) for each l in lengths.
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)


def _scatter_rows(index: np.ndarray, g: np.ndarray, rows: int) -> np.ndarray:
    # Row k of g added into row index[k] of a zero (rows, ...) array.
    # bincount adds in index order from zero, as np.add.at does, but fast;
    # a 2-d g is one bincount keyed by (row, column) over g in row-major order.
    if g.ndim == 1:
        return np.bincount(index, weights=g, minlength=rows)
    width = g.shape[1]
    key = index[:, None] * width + np.arange(width)
    return np.bincount(key.ravel(), weights=g.ravel(), minlength=rows * width).reshape(rows, width)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    # numpy's pairwise summation of terms[0], terms[1], ... along axis 0.
    n = len(terms)
    if n < 8:
        total = terms[0] if n == 1 else terms[0] + terms[1]
        for i in range(2, n):
            total += terms[i]
        return total
    if n <= 128:
        blocked = n - n % 8
        acc = terms[:8].copy()
        for i in range(8, blocked, 8):
            acc += terms[i : i + 8]
        # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), one tree level per step.
        acc = acc[0::2] + acc[1::2]
        acc = acc[0::2] + acc[1::2]
        total = acc[0] + acc[1]
        for i in range(blocked, n):
            total += terms[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


class SparseMatrix:
    """CSR matrix: row offsets, column indices, and values.

    Invariants: ``indptr`` has ``rows + 1`` monotone entries ending at nnz,
    column indices are strictly increasing within each row, and no stored
    value is exactly zero (except in a :meth:`with_data` matrix).
    """

    __slots__ = (
        "rows", "cols", "indptr", "indices", "data", "_transpose", "_row_groups", "_col_plan",
    )

    def __init__(self, rows: int, cols: int, indptr, indices, data, validate: bool = True):
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._transpose: SparseMatrix | None = None
        self._row_groups: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._col_plan: tuple[np.ndarray, ...] | None = None
        if validate:
            self._check()

    def _check(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeMismatchError("negative matrix dimensions")
        if self.indptr.shape != (self.rows + 1,):
            raise ShapeMismatchError("indptr length must be rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ShapeMismatchError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ShapeMismatchError("indptr must be monotone")
        if len(self.indices) != len(self.data):
            raise ShapeMismatchError("indices and data lengths differ")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.cols:
                raise ShapeMismatchError("column index out of range")
            # Strictly increasing columns inside each row.
            same_row = np.repeat(np.arange(self.rows), np.diff(self.indptr))
            d = np.diff(self.indices)
            bad = (d <= 0) & (np.diff(same_row) == 0)
            if np.any(bad):
                raise ShapeMismatchError("column indices must increase within a row")
        if np.any(self.data == 0.0):
            raise ShapeMismatchError("explicit zeros are not stored")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_idx, col_idx, values) -> SparseMatrix:
        """Build from triplets; duplicate positions are summed, zeros dropped.

        Triplets already in row-major order are used as they come; any other
        order is first put right by a stable sort of the key r * cols + c,
        the order ``np.lexsort((c, r))`` gives. Either way duplicates sum in
        input order, as ``np.add.reduceat`` over each run adds them.
        """
        if rows < 0 or cols < 0:
            raise ShapeMismatchError("negative matrix dimensions")
        r = np.asarray(row_idx, dtype=np.int64).ravel()
        c = np.asarray(col_idx, dtype=np.int64).ravel()
        v = np.asarray(values, dtype=np.float64).ravel()
        if not (len(r) == len(c) == len(v)):
            raise ShapeMismatchError("COO triplet arrays differ in length")
        if len(r):
            if r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols:
                raise ShapeMismatchError("COO index out of range")
            key = r * cols + c
            if np.any(key[1:] < key[:-1]):
                order = np.argsort(key, kind="stable")
                r, c, v, key = r[order], c[order], v[order], key[order]
            first = np.concatenate(([True], key[1:] != key[:-1]))
            if not first.all():
                starts = np.flatnonzero(first)
                v = np.add.reduceat(v, starts)
                r, c = r[starts], c[starts]
            keep = v != 0.0
            if not keep.all():
                r, c, v = r[keep], c[keep], v[keep]
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=rows), out=indptr[1:])
        # Checked, sorted, summed and zero-free: valid by construction.
        return cls(rows, cols, indptr, c, v, validate=False)

    @classmethod
    def from_dense(cls, dense) -> SparseMatrix:
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeMismatchError("from_dense expects a 2-d array")
        r, c = np.nonzero(dense)
        return cls.from_coo(dense.shape[0], dense.shape[1], r, c, dense[r, c])

    @classmethod
    def identity(cls, n: int) -> SparseMatrix:
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def from_diag(cls, diag) -> SparseMatrix:
        diag = np.asarray(diag, dtype=np.float64).ravel()
        n = len(diag)
        idx = np.arange(n, dtype=np.int64)
        return cls.from_coo(n, n, idx, idx, diag)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _row_of(self) -> np.ndarray:
        # Row index of every stored entry.
        return np.repeat(np.arange(self.rows, dtype=np.int64), self.indptr[1:] - self.indptr[:-1])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        if self.nnz:
            out[self._row_of(), self.indices] = self.data
        return out

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._row_of(), self.indices.copy(), self.data.copy()

    def row_sums(self) -> np.ndarray:
        # bincount adds each row's entries in order from zero, as np.add.at does.
        return np.bincount(self._row_of(), weights=self.data, minlength=self.rows)

    def diagonal(self) -> np.ndarray:
        out = np.zeros(min(self.rows, self.cols))
        r, c, v = self.to_coo()
        on_diag = r == c
        out[r[on_diag]] = v[on_diag]
        return out

    # ------------------------------------------------------------------
    # algebra

    def transpose(self) -> SparseMatrix:
        if self._transpose is None:
            # Row offsets by counting columns; a stable sort by column keeps
            # each column's entries in row order, so every row comes out sorted.
            order = np.argsort(self.indices, kind="stable")
            indptr = np.zeros(self.cols + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.indices, minlength=self.cols), out=indptr[1:])
            t = SparseMatrix(
                self.cols, self.rows, indptr, self._row_of()[order], self.data[order],
                validate=False,
            )
            t._transpose = self
            self._transpose = t
        return self._transpose

    @property
    def T(self) -> SparseMatrix:
        return self.transpose()

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return self._matmul_sparse(other)
        return self.matmul_dense(other)

    def _rows_by_length(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # Nonempty rows grouped by entry count L: (row ids, (L, rows) positions
        # into indices and data) per L, built on the first product and kept.
        if self._row_groups is None:
            lengths = np.diff(self.indptr)
            order = np.argsort(lengths, kind="stable")
            cuts = np.flatnonzero(np.diff(lengths[order])) + 1
            self._row_groups = [
                (rows, self.indptr[rows] + np.arange(lengths[rows[0]])[:, None])
                for rows in np.split(order, cuts)
                if rows.size and lengths[rows[0]]
            ]
        return self._row_groups

    def with_data(self, data) -> SparseMatrix:
        """The same pattern with new values, one per stored entry.

        Shares ``indptr``, ``indices`` and the row grouping with this
        matrix; zeros are kept, so the result is only fit for products.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ShapeMismatchError(
                f"with_data needs {self.nnz} values, got shape {data.shape}"
            )
        out = SparseMatrix(self.rows, self.cols, self.indptr, self.indices, data, validate=False)
        out._row_groups = self._rows_by_length()
        return out

    def matmul_dense(self, other) -> np.ndarray:
        other = np.asarray(other, dtype=np.float64)
        if other.ndim != 2 or other.shape[0] != self.cols:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        out = np.zeros((self.rows, other.shape[1]))
        for rows, pos in self._rows_by_length():
            terms = other[self.indices[pos]]
            terms *= self.data[pos][..., None]
            out[rows] = terms[0] + _pairwise_sum(terms[1:]) if len(pos) > 1 else terms[0]
        return out

    def _columns_by_level(self) -> tuple[np.ndarray, ...]:
        # Plan of transpose_matmul_dense, built on its first call and kept:
        # (entry positions, their row ids, level sizes, short columns most
        # entries first, long columns, each long entry's rank among them).
        # Positions run level by level over the short columns, level k
        # holding the k-th entry of each column with more than k entries,
        # then over the long columns' entries in stored order.
        if self._col_plan is None:
            counts = np.bincount(self.indices, minlength=self.cols)
            by_col = np.argsort(self.indices, kind="stable")
            starts = np.cumsum(counts) - counts
            short = np.flatnonzero((counts > 0) & (counts <= _LEVEL_CAP))
            short = short[np.argsort(-counts[short], kind="stable")]
            depth = int(counts[short[0]]) if short.size else 0
            # Level k covers the short columns with more than k entries: a prefix.
            sizes = np.searchsorted(-counts[short], -np.arange(depth), side="left")
            level = np.repeat(np.arange(depth), sizes)
            short_pos = by_col[starts[short[_ranges(sizes)]] + level]
            long_cols = np.flatnonzero(counts > _LEVEL_CAP)
            long_pos = np.flatnonzero(counts[self.indices] > _LEVEL_CAP)
            pos = np.concatenate((short_pos, long_pos))
            self._col_plan = (
                pos, self._row_of()[pos], sizes, short, long_cols,
                np.searchsorted(long_cols, self.indices[long_pos]),
            )
        return self._col_plan

    def transpose_matmul_dense(self, data, other) -> np.ndarray:
        """(this pattern with values ``data``)ᵀ @ ``other``.

        Output row c adds ``data[p] * other[row of p]`` over the entries p of
        column c in stored order, starting from 0.0, as ``np.bincount`` and
        ``np.add.at`` do. Only the pattern is read; ``data`` may hold zeros.
        """
        data = np.asarray(data, dtype=np.float64)
        other = np.asarray(other, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ShapeMismatchError(
                f"transpose_matmul_dense needs {self.nnz} values, got shape {data.shape}"
            )
        if other.ndim != 2 or other.shape[0] != self.rows:
            raise ShapeMismatchError(
                f"cannot multiply the transpose of {self.shape} by {other.shape}"
            )
        pos, row_ids, sizes, short, long_cols, long_rank = self._columns_by_level()
        width = other.shape[1]
        out = np.zeros((self.cols, width))
        acc = np.zeros((len(short), width))
        # One buffer for every level's terms. Row ids are valid by
        # construction; "clip" keeps take from buffering its output.
        buf = np.empty_like(acc)
        at = 0
        for size in sizes:
            terms = np.take(other, row_ids[at : at + size], axis=0, out=buf[:size], mode="clip")
            terms *= data[pos[at : at + size], None]
            acc[:size] += terms
            at += size
        out[short] = acc
        if long_cols.size:
            terms = other[row_ids[at:]]
            terms *= data[pos[at:], None]
            out[long_cols] = _scatter_rows(long_rank, terms, len(long_cols))
        return out

    def _matmul_sparse(self, other: SparseMatrix) -> SparseMatrix:
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if self.nnz == 0 or other.nnz == 0:
            return SparseMatrix.from_coo(self.rows, other.cols, [], [], [])
        a_row = self._row_of()
        fan = np.diff(other.indptr)[self.indices]
        pos = np.repeat(other.indptr[self.indices], fan) + _ranges(fan)
        out_r = np.repeat(a_row, fan)
        out_c = other.indices[pos]
        out_v = np.repeat(self.data, fan) * other.data[pos]
        return SparseMatrix.from_coo(self.rows, other.cols, out_r, out_c, out_v)

    def add(self, other: SparseMatrix) -> SparseMatrix:
        """Elementwise sum; entries that cancel to zero are dropped.

        The two row-major entry lists are merged, this matrix's entry first
        where both hold one, so a shared position sums as self + other.
        """
        if self.shape != other.shape:
            raise ShapeMismatchError("shapes differ in add")
        r1, r2 = self._row_of(), other._row_of()
        k1 = r1 * self.cols + self.indices
        k2 = r2 * self.cols + other.indices
        at1 = np.arange(len(k1)) + np.searchsorted(k2, k1, side="left")
        at2 = np.arange(len(k2)) + np.searchsorted(k1, k2, side="right")
        size = len(k1) + len(k2)
        r, c, v = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64), np.empty(size)
        r[at1], r[at2] = r1, r2
        c[at1], c[at2] = self.indices, other.indices
        v[at1], v[at2] = self.data, other.data
        return SparseMatrix.from_coo(self.rows, self.cols, r, c, v)

    def _rescaled(self, data: np.ndarray) -> SparseMatrix:
        # New values on this pattern; a product that underflowed to 0.0 is dropped.
        keep = data != 0.0
        if keep.all():
            indptr, indices = self.indptr, self.indices
        else:
            indptr = np.concatenate(([0], np.cumsum(keep)))[self.indptr]
            indices, data = self.indices[keep], data[keep]
        return SparseMatrix(self.rows, self.cols, indptr, indices, data, validate=False)

    def scale(self, factor: float) -> SparseMatrix:
        return self._rescaled(self.data * factor)

    def scale_rows(self, factors) -> SparseMatrix:
        """Left-multiply by diag(factors)."""
        factors = np.asarray(factors, dtype=np.float64).ravel()
        if len(factors) != self.rows:
            raise ShapeMismatchError("row scaling vector has wrong length")
        return self._rescaled(self.data * factors[self._row_of()])

    def scale_cols(self, factors) -> SparseMatrix:
        """Right-multiply by diag(factors)."""
        factors = np.asarray(factors, dtype=np.float64).ravel()
        if len(factors) != self.cols:
            raise ShapeMismatchError("column scaling vector has wrong length")
        return self._rescaled(self.data * factors[self.indices])

    def take_row_range(self, lo: int, hi: int) -> SparseMatrix:
        """Contiguous row slice [lo, hi) as a new matrix."""
        if not (0 <= lo <= hi <= self.rows):
            raise ShapeMismatchError("row range out of bounds")
        a, b = self.indptr[lo], self.indptr[hi]
        return SparseMatrix(
            hi - lo,
            self.cols,
            self.indptr[lo : hi + 1] - a,
            self.indices[a:b],
            self.data[a:b],
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class FactoredOperator:
    """A sum of terms diag(scale) @ M1 @ ... @ Mk of CSR matrices.

    ``terms`` holds (scale, chain) pairs. ``scale`` is a vector with one
    value per row, or None for the identity; ``chain`` is a tuple of
    :class:`SparseMatrix` factors whose shapes link up. An empty chain makes
    the diagonal term diag(scale). Products apply each chain right to left
    and add the terms in order, so the result equals the multiplied-out
    matrix's up to rounding. Immutable once built; the transpose is cached.
    """

    __slots__ = ("shape", "terms", "_transpose")

    def __init__(self, shape: tuple[int, int], terms):
        self.shape = (int(shape[0]), int(shape[1]))
        self.terms: tuple[tuple[np.ndarray | None, tuple[SparseMatrix, ...]], ...] = tuple(
            (None if scale is None else np.ascontiguousarray(scale, dtype=np.float64),
             tuple(chain))
            for scale, chain in terms
        )
        self._transpose: FactoredOperator | None = None
        rows, cols = self.shape
        if not self.terms:
            raise ShapeMismatchError("a factored operator needs at least one term")
        for scale, chain in self.terms:
            if scale is not None and scale.shape != (rows,):
                raise ShapeMismatchError(f"term scale must have {rows} values")
            if not chain:
                if scale is None or rows != cols:
                    raise ShapeMismatchError("a diagonal term needs a scale and a square shape")
                continue
            inner = [m.rows for m in chain] + [cols]
            if chain[0].rows != rows or any(m.cols != k for m, k in zip(chain, inner[1:])):
                raise ShapeMismatchError(
                    f"factors {[m.shape for m in chain]} do not chain to {self.shape}"
                )

    @property
    def stored_terms(self) -> int:
        """Entries a product gathers: each factor's nnz, n per diagonal term."""
        return sum(
            sum(m.nnz for m in chain) if chain else self.shape[0] for _, chain in self.terms
        )

    def matmul_dense(self, other) -> np.ndarray:
        other = np.asarray(other, dtype=np.float64)
        if other.ndim != 2 or other.shape[0] != self.shape[1]:
            raise ShapeMismatchError(f"cannot multiply {self.shape} by {other.shape}")
        out = None
        for scale, chain in self.terms:
            if chain:
                part = other
                for mat in reversed(chain):
                    part = mat.matmul_dense(part)
                if scale is not None:
                    part *= scale[:, None]
            else:
                part = other * scale[:, None]
            if out is None:
                out = part
            else:
                out += part
        return out

    def transpose(self) -> FactoredOperator:
        """Each chain reversed and transposed; a scale folds into its first factor."""
        if self._transpose is None:
            terms = []
            for scale, chain in self.terms:
                if chain and scale is not None:
                    chain = (chain[0].scale_rows(scale),) + chain[1:]
                    scale = None
                terms.append((scale, tuple(m.transpose() for m in reversed(chain))))
            t = FactoredOperator((self.shape[1], self.shape[0]), terms)
            t._transpose = self
            self._transpose = t
        return self._transpose

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FactoredOperator({self.shape[0]}x{self.shape[1]}, "
                f"{len(self.terms)} terms, {self.stored_terms} stored)")
