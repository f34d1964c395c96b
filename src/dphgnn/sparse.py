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

Sparse @ dense sums each output row over the row's entries in stored
order, starting from 0.0: the order of ``np.add.at`` and of
``np.bincount``, signs of zero included. The non-empty rows, sorted by
entry count, most first, are summed by level: level k adds the k-th entry
of every row with more than k entries into a contiguous prefix of an
accumulator, while a level holds at least ``_MIN_LEVEL_ROWS`` rows. The
rows still unfinished then add their remaining terms to their level sums,
a batch of rows at a time: one take gathers the batch's terms and one
in-place cumsum per row adds them in sequence. Where no row is empty the
output is gathered from the accumulator by the inverse of the row order;
otherwise the sums are put in place in a zeroed output. The plan (the
sorted rows, their starts and the level sizes) depends on the pattern
alone, and a product may put other values on it (``data=``), zeros
included.

A product by the matrix's own values multiplies no term where those
values are constant down each column, a property each matrix finds in
its values on its first such product (O(nnz)) and keeps. If every value
is 1.0 (an incidence matrix, the edge blocks' scatter, identity
features) the terms are only gathered and added. If column c holds s[c]
throughout (H D_e^-1, H^T D_v^-1/2) and there are no more columns than
entries, the rows of ``other`` are multiplied by s once, cols x width,
and the same loop runs on the result. Each term is then the IEEE
product other[c] * s[c], which equals other[c] * data[p], so every
output bit stays. Products given ``data=`` multiply each gathered row by
its entry's value.

A level's gathered terms, the accumulator and a contiguous copy of a
strided or column-scaled input live in one grow-only scratch buffer per
thread, at most twice the output's size plus the copy, which no result
ever aliases. A batch of unfinished rows uses the level terms' part of
it; a row too long for that part is summed in a run of its own, the only
allocation besides the output. The transposed
product :meth:`SparseMatrix.transpose_matmul_dense` is the product of the
transpose with the values reordered by the transpose's column sort, so
output row c adds column c's entries in stored order.

A matrix is immutable once built: its transpose and the plan of its
products are cached on the instance, each built on first use. So are the
row of each stored entry and the count of diagonal entries, once a caller
that reads them on every use (attention) asks for them. The column sort
that maps its entries onto the transpose's is kept only once a
transposed product asks for it, and a transpose with the same pattern as
its matrix (a symmetric pattern) shares its ``indptr`` and ``indices``.

A :class:`FactoredOperator` is a sum of terms diag(d) M1 ... Mk of
matrices, applied factor by factor and never multiplied out. A product
through it gathers the stored entries of its factors instead of those of
their product: for the clique-pattern operators of a hypergraph, nnz(H)
per factor rather than the O(sum |e|^2) entries of H H^T.

An :class:`EdgeBlocks` layout holds the pattern of H H^T as one dense
block per hyperedge. Its products with pair values, their transposed
products and :meth:`~SparseMatrix.pair_dots` (the dot product of a row of
one operand and a row of the other at every stored entry) run as batched
dense products over the blocks, gathering one row per incidence of H
rather than one per stored entry.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ShapeMismatchError

__all__ = ["EdgeBlocks", "FactoredOperator", "SparseMatrix"]

# Sparse @ dense runs a level while it holds at least this many rows and then sums
# each unfinished row alone: at most nnz / _MIN_LEVEL_ROWS + _MIN_LEVEL_ROWS steps.
_MIN_LEVEL_ROWS = 16


# Entries per slice of pair_dots, which holds two (slice x width) arrays at a
# time instead of two (nnz x width) ones.
_PAIR_DOT_ENTRIES = 4096

# Incidence rows per chunk of an edge-block product: the block kernels gather
# this many member rows at a time, or one edge's if it is larger.
_BLOCK_ROWS = 1024


class _Scratch(threading.local):
    buffer = np.empty(0)


_SCRATCH = _Scratch()


def _scratch(size: int) -> np.ndarray:
    # The first ``size`` float64s of this thread's scratch buffer, which grows
    # and is never shrunk. Its contents never outlive the product that wrote
    # them, and no product returns a view of it.
    if _SCRATCH.buffer.size < size:
        _SCRATCH.buffer = np.empty(size)
    return _SCRATCH.buffer[:size]


def _ranges(lengths: np.ndarray) -> np.ndarray:
    # Concatenation of arange(l) for each l in a non-empty lengths.
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(starts, lengths)


class SparseMatrix:
    """CSR matrix: row offsets, column indices, and values.

    Invariants: ``indptr`` has ``rows + 1`` monotone entries ending at nnz,
    column indices are strictly increasing within each row, and no stored
    value is exactly zero.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "data",
                 "_transpose", "_order", "_plan", "_inverse", "_columns", "_index")

    def __init__(self, rows: int, cols: int, indptr, indices, data, validate: bool = True):
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self._transpose: SparseMatrix | None = None
        self._order: np.ndarray | None = None
        self._plan: tuple[np.ndarray, ...] | None = None
        self._inverse: np.ndarray | None = None
        self._columns: np.ndarray | bool | None = None
        self._index: tuple[np.ndarray, int] | None = None
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
        return cls._from_coo(rows, cols, row_idx, col_idx, values)[0]

    @classmethod
    def _from_coo(cls, rows, cols, row_idx, col_idx, values, firsts: bool = False):
        # from_coo, and with ``firsts`` also, for each stored entry, the input
        # index of the first triplet summed into it: read off the sort and the
        # runs that the build forms anyway.
        if rows < 0 or cols < 0:
            raise ShapeMismatchError("negative matrix dimensions")
        r = np.asarray(row_idx, dtype=np.int64).ravel()
        c = np.asarray(col_idx, dtype=np.int64).ravel()
        v = np.asarray(values, dtype=np.float64).ravel()
        if not (len(r) == len(c) == len(v)):
            raise ShapeMismatchError("COO triplet arrays differ in length")
        if len(r) and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
            raise ShapeMismatchError("COO index out of range")
        order = starts = None
        triplets = len(r)
        keep = np.ones(triplets, dtype=bool)
        if len(r):
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
        matrix = cls(rows, cols, indptr, c, v, validate=False)
        if not firsts:
            return matrix, None
        first_of = np.arange(triplets) if order is None else order
        if starts is not None:
            first_of = first_of[starts]
        return matrix, first_of[keep]

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
        return cls.ones(n, n, np.arange(n + 1, dtype=np.int64), idx)

    @classmethod
    def ones(cls, rows: int, cols: int, indptr, indices, validate: bool = True) -> SparseMatrix:
        """The pattern ``indptr``, ``indices`` with every value 1.0; its
        products skip the scan of the values for the column check."""
        matrix = cls(rows, cols, indptr, indices, np.ones(len(indices)), validate)
        matrix._columns = True
        return matrix

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

    def _pattern_index(self) -> tuple[np.ndarray, int]:
        # For a pattern read again and again: the row of every stored entry,
        # read-only, and the number of stored diagonal entries. Kept after
        # the first call.
        if self._index is None:
            rows = self._row_of()
            rows.flags.writeable = False
            self._index = (rows, int(np.count_nonzero(rows == self.indices)))
        return self._index

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

    @property
    def _to_transpose(self) -> np.ndarray:
        # Entry k of the transpose is entry _to_transpose[k] of this matrix: a
        # stable sort by column, which keeps each column's entries in row order.
        # Kept once asked for; only transposed products ask.
        if self._order is None:
            self._order = np.argsort(self.indices, kind="stable")
        return self._order

    def transpose(self) -> SparseMatrix:
        if self._transpose is None:
            # Row offsets by counting columns; the column sort leaves every
            # row of the transpose sorted.
            order = self._order if self._order is not None else np.argsort(self.indices, kind="stable")
            indptr = np.zeros(self.cols + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.indices, minlength=self.cols), out=indptr[1:])
            indices = self._row_of()[order]
            if np.array_equal(indptr, self.indptr) and np.array_equal(indices, self.indices):
                indptr, indices = self.indptr, self.indices
            t = SparseMatrix(self.cols, self.rows, indptr, indices, self.data[order], validate=False)
            t._transpose = self
            if self._columns is True:
                t._columns = True
            self._transpose = t
        return self._transpose

    @property
    def T(self) -> SparseMatrix:
        return self.transpose()

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return self._matmul_sparse(other)[0]
        return self.matmul_dense(other)

    def _levels(self) -> tuple[np.ndarray, ...]:
        # Plan of matmul_dense, built on its first call and kept: the non-empty
        # rows most entries first, their starts, and the sizes of the levels
        # run. Level k holds the k-th entry of each row with more than k
        # entries, a prefix of the rows; it runs if that is _MIN_LEVEL_ROWS rows.
        # Where no row is empty, the inverse of the row order is kept too.
        if self._plan is None:
            counts = np.diff(self.indptr)
            rows = np.flatnonzero(counts)
            key = -counts[rows]
            # numpy's stable sort of keys of 16 bits or fewer is a radix sort.
            if len(key) and key.min() > np.iinfo(np.int16).min:
                key = key.astype(np.int16)
            rows = rows[np.argsort(key, kind="stable")]
            sizes = np.searchsorted(-counts[rows], -np.arange(counts.max(initial=0)), side="left")
            self._plan = (rows, self.indptr[rows], sizes[sizes >= _MIN_LEVEL_ROWS])
            if len(rows) == self.rows:
                self._inverse = np.empty(self.rows, dtype=np.int64)
                self._inverse[rows] = np.arange(self.rows)
        return self._plan

    def _column_values(self) -> np.ndarray | bool:
        # Kept after the first call: True if every value is 1.0; else the
        # vector s with s[indices] == data, where each column's values are one
        # number and there are no more columns than entries; else False.
        if self._columns is None:
            if np.all(self.data == 1.0):
                self._columns = True
            elif self.nnz < self.cols:
                self._columns = False
            else:
                scale = np.ones(self.cols)
                scale[self.indices] = self.data
                same = np.array_equal(np.take(scale, self.indices), self.data)
                self._columns = scale if same else False
        return self._columns

    def matmul_dense(self, other, data=None, out=None) -> np.ndarray:
        """This matrix @ ``other``, or this pattern with values ``data`` @ ``other``.

        Output row i adds ``data[p] * other[indices[p]]`` over the entries p
        of row i in stored order, starting from 0.0, as ``np.add.at`` does.
        ``data`` may hold zeros; only the pattern is read then. ``other``
        may be a strided view. The result is written into ``out`` when it
        is given, an array or view of the result's shape that overlaps no
        input, and returned.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim != 2 or other.shape[0] != self.cols:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if data is None:
            data, columns = self.data, self._column_values()
        else:
            data, columns = np.asarray(data, dtype=np.float64), False
            if data.shape != (self.nnz,):
                raise ShapeMismatchError(
                    f"matmul_dense needs {self.nnz} values, got shape {data.shape}"
                )
        width = other.shape[1]
        rows, starts, sizes = self._levels()
        gather = self._inverse is not None
        if out is None:
            out = np.empty((self.rows, width)) if gather else np.zeros((self.rows, width))
        elif out.shape != (self.rows, width):
            raise ShapeMismatchError(f"matmul_dense cannot write {(self.rows, width)} into {out.shape}")
        elif not gather:
            out[...] = 0.0
        depth = len(sizes)
        # One scratch block holds a level's terms, the accumulator and a
        # contiguous copy of a strided ``other``, which take would otherwise
        # copy once per level, or of a column-scaled one.
        block = len(rows) * width
        scaled = isinstance(columns, np.ndarray)
        scratch = _scratch(2 * block + (0 if other.flags.c_contiguous and not scaled else other.size))
        if scaled:
            # Each row of ``other`` times its column's value, once: a term is
            # then the product other[c] * data[p] that the entry would form.
            copy = np.empty(other.size) if np.may_share_memory(other, scratch) else scratch[2 * block :]
            other = np.multiply(other, columns[:, None], out=copy.reshape(other.shape))
        else:
            other = _contiguous(other, scratch[2 * block :])
        per_entry = columns is False
        acc = scratch[block : 2 * block].reshape(len(rows), width)
        if not depth:
            acc[...] = 0.0
        for k, size in enumerate(sizes):
            pos = starts[:size] + k
            # Column indices are valid by construction; "clip" keeps take
            # from buffering its output. Level 0 holds every row and lands in
            # the accumulator itself; adding 0.0 then gives 0.0 + term.
            terms = np.take(other, self.indices[pos], axis=0, mode="clip",
                            out=acc if not k else scratch[: size * width].reshape(size, width))
            if per_entry:
                terms *= data[pos, None]
            if k:
                acc[:size] += terms
            else:
                acc += 0.0
        self._finish_rows(other, data if per_entry else None, scratch[:block], acc, depth)
        if gather and out.flags.c_contiguous:
            np.take(acc, self._inverse, axis=0, out=out, mode="clip")
        else:
            out[rows] = acc
        return out

    def _finish_rows(self, other, data, region, acc, depth) -> None:
        # The rows the levels left unfinished, a prefix of the plan's rows: each
        # adds its remaining terms to its level sum in sequence. Consecutive rows
        # are batched while their terms fit in ``region``, the level terms' part
        # of the scratch buffer; a longer row takes a run of its own, so at most
        # one run is live and the scratch buffer never grows here. A batch
        # gathers its terms by one take and, with per-entry values ``data``,
        # scales them by one multiply; each row then adds its level sum to its
        # first term and the rest by one in-place cumsum (``np.add.accumulate``,
        # without ``np.cumsum``'s wrapper).
        rows, starts, _ = self._plan
        head = rows[:_MIN_LEVEL_ROWS]
        firsts = starts[: len(head)] + depth
        left = self.indptr[head + 1] - firsts
        left = left[left > 0].tolist()
        width = acc.shape[1]
        j = 0
        while j < len(left):
            k, total = j + 1, left[j]
            while k < len(left) and total + left[k] <= len(rows):
                total += left[k]
                k += 1
            if k == j + 1:
                pos = slice(int(firsts[j]), int(firsts[j]) + total)
            else:
                pos = _ranges(np.asarray(left[j:k])) + np.repeat(firsts[j:k], left[j:k])
            run = region[: total * width] if total <= len(rows) else np.empty(total * width)
            run = np.take(other, self.indices[pos], axis=0, out=run.reshape(total, width), mode="clip")
            if data is not None:
                run *= data[pos, None]
            at = np.cumsum([0, *left[j : k - 1]])
            run[at] = acc[j:k] + run[at]
            for row, (lo, count) in enumerate(zip(at.tolist(), left[j:k]), start=j):
                acc[row] = np.add.accumulate(run[lo : lo + count], axis=0, out=run[lo : lo + count])[-1]
            # Free a run of its own before the next one is allocated.
            del run
            j = k

    def transpose_matmul_dense(self, data, other, out=None) -> np.ndarray:
        """(this pattern with values ``data``)ᵀ @ ``other``.

        The product of the cached transpose with ``data`` in its entry
        order: output row c adds ``data[p] * other[row of p]`` over the
        entries p of column c in stored order, starting from 0.0, as
        ``np.bincount`` and ``np.add.at`` do. ``data`` may hold zeros;
        ``out`` is as for :meth:`matmul_dense`.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ShapeMismatchError(
                f"transpose_matmul_dense needs {self.nnz} values, got shape {data.shape}"
            )
        order = self._to_transpose
        return self.transpose().matmul_dense(other, data=data[order], out=out)

    def pair_dots(self, left, right) -> np.ndarray:
        """``left[r] . right[c]`` for every stored entry (r, c), in entry order.

        Computed ``_PAIR_DOT_ENTRIES`` entries at a time, each row of products
        summed by a product with ones: the weights gradient of the pattern's
        products, as the broadcast-and-multiply formulation forms it, bit for bit.
        """
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        if left.shape != (self.rows, right.shape[1]) or right.shape[0] != self.cols:
            raise ShapeMismatchError(f"pair_dots cannot pair {left.shape} with {right.shape}")
        row_of, _ = self._pattern_index()
        ones = np.ones((1, right.shape[1])).T
        out = np.empty(self.nnz)
        for lo in range(0, self.nnz, _PAIR_DOT_ENTRIES):
            at = slice(lo, lo + _PAIR_DOT_ENTRIES)
            terms = right[self.indices[at]]
            terms *= left[row_of[at]]
            out[at] = (terms @ ones)[:, 0]
        return out

    def _matmul_sparse(self, other: SparseMatrix, firsts: bool = False):
        # The product and, with ``firsts``, the first triplet of each of its
        # entries (see _from_coo). Triplets run over this matrix's entries in
        # stored order, and entry a's run over row indices[a] of ``other``.
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if self.nnz == 0 or other.nnz == 0:
            return SparseMatrix._from_coo(self.rows, other.cols, [], [], [], firsts)
        a_row = self._row_of()
        fan = np.diff(other.indptr)[self.indices]
        pos = np.repeat(other.indptr[self.indices], fan) + _ranges(fan)
        out_r = np.repeat(a_row, fan)
        out_c = other.indices[pos]
        out_v = np.repeat(self.data, fan) * other.data[pos]
        return SparseMatrix._from_coo(self.rows, other.cols, out_r, out_c, out_v, firsts)

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


class EdgeBlocks:
    """The pattern of H H^T as one dense |e| x |e| block per hyperedge.

    Entry (i, j) of edge e's block stands for the pair of e's i-th and j-th
    sorted members, a stored entry of ``pattern``, and for the term of the
    sparse product ``incidence @ incidence.T`` (H H^T) that pairs them. A
    pair that several edges hold, and each node's diagonal, has a block
    entry in each of them. ``owners`` names, for each stored entry in stored
    order, the term that owns it, as
    :func:`~dphgnn.hypergraph.clique_owners` gives them; the other block
    entries are copies that read a zero. The product's terms run over H's
    entries (u, e) in stored order, and each entry's over the sorted
    members of e, so term t of entry a is entry (place of u, t - start[a])
    of e's block.

    Edges are grouped by size and each group is cut into chunks of about
    ``_BLOCK_ROWS`` member rows. The products read the pattern's values
    ``data`` per block and run as batched dense products:

    - :meth:`matmul_dense` gathers each chunk's member rows once, one row per
      incidence, multiplies them by the blocks in one ``np.matmul``, and sums
      the incidence rows into node rows through ``scatter``, the unit
      (n x incidences) CSR matrix whose row v lists v's incidence rows;
    - :meth:`transpose_matmul_dense` does the same with the blocks transposed;
    - :meth:`pair_dots` multiplies each chunk's two gathers into one
      (|e| x |e|) block of dot products per edge and keeps the owned entries.

    The sums run in another order than :class:`SparseMatrix`'s, so they agree
    with its products up to rounding, not bit for bit. The gathers, the
    blocks and the incidence rows live in the thread's scratch buffer. Every
    array here is O(sum |e|^2) or O(n + nnz(H)) long.
    """

    __slots__ = ("pattern", "chunks", "scatter", "_rows", "_entries")

    def __init__(self, pattern: SparseMatrix, incidence: SparseMatrix, owners):
        owners = np.asarray(owners, dtype=np.int64)
        n, nnz = pattern.rows, pattern.nnz
        by_edge = incidence.transpose()
        sizes = np.diff(by_edge.indptr)
        fan = sizes[incidence.indices]
        if not (pattern.cols == incidence.rows == n and owners.shape == (nnz,)):
            raise ShapeMismatchError("edge blocks need a square pattern, its incidence matrix "
                                     "and one owner per stored entry")
        if nnz and not 0 <= owners.min() <= owners.max() < fan.sum():
            raise ShapeMismatchError("an owner is not a term of H H^T")
        # Edges sorted by size, stable; ``rows`` lists their incidences (entries
        # of H^T) in that order, and each edge's block starts at block_at.
        by_size = np.argsort(sizes, kind="stable")
        ordered = sizes[by_size]
        rows = np.repeat(by_edge.indptr[by_size], ordered) + _ranges(ordered) if len(ordered) else ordered
        squares = ordered * ordered
        block_start = np.cumsum(squares) - squares
        block_at = np.empty(len(sizes), dtype=np.int64)
        block_at[by_size] = block_start
        # H's entry a = (u, e) is H^T's entry order[a], so u is e's place[a]-th
        # member, and a's terms fill row place[a] of e's block: term t lands
        # on block entry shift[a] + t.
        order = by_edge._to_transpose
        place = order - by_edge.indptr[incidence.indices]
        shift = block_at[incidence.indices] + place * fan - (np.cumsum(fan) - fan)
        blocks = np.full(int(squares.sum()), nnz, dtype=np.int64)
        blocks[np.repeat(shift, fan)[owners] + owners] = np.arange(nnz)
        if np.count_nonzero(blocks < nnz) != nnz:
            raise ShapeMismatchError("a term owns two stored entries")
        members = by_edge.indices[rows]
        row_start = np.cumsum(ordered) - ordered
        heads = np.flatnonzero(np.diff(ordered, prepend=0))
        chunks = []
        for lo, hi in zip(heads, [*heads[1:], len(ordered)]):
            size, count = int(ordered[lo]), hi - lo
            group = (members[row_start[lo]:row_start[lo] + count * size].reshape(count, size),
                     blocks[block_start[lo]:block_start[lo] + count * size * size].reshape(count, size, size))
            step = max(1, _BLOCK_ROWS // size)
            chunks += [(group[0][k:k + step], group[1][k:k + step]) for k in range(0, count, step)]
        self.pattern = pattern
        self.chunks = tuple(chunks)
        self._rows = max((m.size for m, _ in chunks), default=0)
        self._entries = max((o.size for _, o in chunks), default=0)
        # Row v of the scatter matrix lists v's incidence rows. H's entry p is
        # H^T's entry order[p], so H's entries in stored order give them by
        # node, in edge order; from_coo sorts them only if the size order
        # breaks the edge order in some row.
        at_row = np.empty(incidence.nnz, dtype=np.int64)
        at_row[rows] = np.arange(len(rows))
        self.scatter = SparseMatrix.from_coo(n, len(rows), incidence._row_of(), at_row[order],
                                             np.ones(len(rows)))

    @property
    def rows(self) -> int:
        return self.pattern.rows

    @property
    def cols(self) -> int:
        return self.pattern.cols

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    def _operands(self, data, other, out=None):
        data = np.asarray(data, dtype=np.float64)
        other = np.asarray(other, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ShapeMismatchError(f"edge blocks need {self.nnz} values, got shape {data.shape}")
        if other.ndim != 2 or other.shape[0] != self.cols:
            raise ShapeMismatchError(f"cannot multiply {self.pattern.shape} by {other.shape}")
        if out is not None and out.shape != (self.rows, other.shape[1]):
            raise ShapeMismatchError(
                f"edge blocks cannot write {(self.rows, other.shape[1])} into {out.shape}")
        return data, other

    def matmul_dense(self, other, data, out=None) -> np.ndarray:
        """(``pattern`` with values ``data``) @ ``other``; ``out`` as for
        :meth:`SparseMatrix.matmul_dense`."""
        data, other = self._operands(data, other, out)
        return self._sums(data, other, out, transposed=False)

    def transpose_matmul_dense(self, data, other, out=None) -> np.ndarray:
        """(``pattern`` with values ``data``)ᵀ @ ``other``."""
        data, other = self._operands(data, other, out)
        return self._sums(data, other, out, transposed=True)

    def _sums(self, data, other, out, transposed: bool) -> np.ndarray:
        width = other.shape[1]
        incidences = self.scatter.cols
        # The front of the scratch buffer holds the chunk loop's pieces: a
        # contiguous copy of a strided ``other`` (rows gather several times
        # faster from it), one chunk's gathered rows and its blocks. The
        # scatter product then takes the first 2 * rows * width floats. The
        # incidence rows and the values, with a trailing zero for the
        # copies, lie behind the front.
        copy = 0 if other.flags.c_contiguous else other.size
        loop = copy + self._rows * width + self._entries
        front = max(2 * self.rows * width, loop)
        scratch = _scratch(front + incidences * width + self.nnz + 1)
        contiguous, gathered, blocks, _ = _carve(scratch[:front], copy, self._rows * width, self._entries)
        incident, values = _carve(scratch[front:], incidences * width)
        values[:-1] = data
        values[-1] = 0.0
        other = _contiguous(other, contiguous)
        incident = incident.reshape(incidences, width)
        row = 0
        for members, owners in self.chunks:
            count, size = members.shape
            shape = (count, size, width)
            rows = np.take(other, members.ravel(), axis=0, mode="clip",
                           out=gathered[: count * size * width].reshape(count * size, width))
            weights = np.take(values, owners, mode="clip", out=blocks[: owners.size].reshape(owners.shape))
            if transposed:
                weights = weights.transpose(0, 2, 1)
            np.matmul(weights, rows.reshape(shape), out=incident[row : row + count * size].reshape(shape))
            row += count * size
        return self.scatter.matmul_dense(incident, out=out)

    def pair_dots(self, left, right) -> np.ndarray:
        """``left[r] . right[c]`` for every stored entry (r, c) of ``pattern``."""
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        if left.shape != (self.rows, right.shape[1]) or right.shape[0] != self.cols:
            raise ShapeMismatchError(f"pair_dots cannot pair {left.shape} with {right.shape}")
        width = right.shape[1]
        # The gathers and a contiguous copy of each strided operand share the scratch buffer.
        copies = [0 if a.flags.c_contiguous else a.size for a in (left, right)]
        row_side, col_side, blocks, left_copy, right_copy = _carve(
            _scratch(2 * self._rows * width + self._entries + sum(copies)),
            self._rows * width, self._rows * width, self._entries, copies[0])
        left, right = _contiguous(left, left_copy), _contiguous(right, right_copy)
        out = np.empty(self.nnz + 1)
        for members, owners in self.chunks:
            count, size = members.shape
            index = members.ravel()
            shape = (count * size, width)
            lhs = np.take(left, index, axis=0, mode="clip", out=row_side[: shape[0] * width].reshape(shape))
            rhs = np.take(right, index, axis=0, mode="clip", out=col_side[: shape[0] * width].reshape(shape))
            dots = np.matmul(lhs.reshape(count, size, width), rhs.reshape(count, size, width).transpose(0, 2, 1),
                             out=blocks[: owners.size].reshape(owners.shape))
            # Every copy writes the trailing slot, which is dropped.
            out[owners] = dots
        return out[:-1]


def _carve(buffer: np.ndarray, *sizes: int) -> list[np.ndarray]:
    # Consecutive pieces of ``buffer`` of the given sizes, then the rest of it.
    return np.split(buffer, np.cumsum(sizes))


def _contiguous(array: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    # ``array`` if it is C-contiguous, else its copy in the front of ``buffer``.
    if array.flags.c_contiguous:
        return array
    copy = buffer[: array.size].reshape(array.shape)
    copy[...] = array
    return copy
