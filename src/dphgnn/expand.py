"""Graph expansions of a hypergraph: clique, star, and distance-pair forms.

Each expansion returns an undirected weighted graph whose adjacency is a
symmetric SparseMatrix with a zero diagonal. All three are built from the
incidence matrix H by sparse algebra, with no per-pair Python loop:

- clique: the unit-valued pattern of H H^T without its diagonal;
- star: [[0, H], [H^T, 0]] on n + m vertices, where vertex n + e is the
  supernode of hyperedge e, so any matrix living on those stacked rows
  holds the node block in its first n rows and the supernode block after;
- distance-pair (HyperGCN): one pair per edge, picked for a whole bucket
  of same-size edges at once.

The structure bundle (:mod:`dphgnn.precompute`) builds its propagation
operators, Laplacians and attention pattern from these graphs and keeps
none of them. The star graph is a plain :class:`Graph`: its first n
vertices are the hypergraph's nodes and the other ``adjacency.rows - n``
its supernodes. Only the star Laplacian is built from it. The star view's
one-step update needs no star operator: its node rows are ReLU(x theta)
and its supernode rows ReLU(D_e^{-1} H^T x theta), which
:func:`~dphgnn.attention.star_update` stacks for the spectral path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError
from .hypergraph import Hypergraph, as_features, cooccurrence, incidence
from .sparse import SparseMatrix

__all__ = [
    "Graph",
    "clique_expand",
    "star_expand",
    "hypergcn_expand",
]

# Values one slice of a HyperGCN size bucket may hold (gathered feature blocks
# or Gram entries): about 32 MB of float64.
_SLICE_FLOATS = 1 << 22


@dataclass(eq=False)
class Graph:
    """Undirected weighted graph with cached weighted degrees."""

    adjacency: SparseMatrix
    degrees: np.ndarray = field(repr=False)

    @classmethod
    def from_adjacency(cls, adjacency: SparseMatrix) -> Graph:
        """The graph on ``adjacency``'s rows; degrees are its row sums."""
        return cls(adjacency, adjacency.row_sums())


def clique_expand(hg: Hypergraph) -> Graph:
    """Unweighted graph joining every pair of nodes that co-occur in an edge."""
    co = cooccurrence(hg)
    rows, cols, _ = co.to_coo()
    off = rows != cols
    kept = np.concatenate(([0], np.cumsum(off)))
    return Graph.from_adjacency(SparseMatrix(
        co.rows, co.cols, kept[co.indptr], co.indices[off], np.ones(kept[-1]), validate=False
    ))


def star_expand(hg: Hypergraph) -> Graph:
    """Bipartite graph on n + m vertices linking each node to the
    supernodes n + e of its edges."""
    n, m = hg.num_nodes, hg.num_edges
    h = incidence(hg)
    ht = h.transpose()
    adjacency = SparseMatrix(
        n + m,
        n + m,
        np.concatenate((h.indptr, h.nnz + ht.indptr[1:])),
        np.concatenate((h.indices + n, ht.indices)),
        np.ones(2 * h.nnz),
        validate=False,
    )
    return Graph.from_adjacency(adjacency)


def _farthest_pairs(
    blocks: np.ndarray, sq: np.ndarray, iu: np.ndarray, ju: np.ndarray
) -> np.ndarray:
    """Per (k, d) block, the index into (iu, ju) of its farthest member pair.

    ``sq`` holds the members' squared norms. d2 is
    |x_a|^2 + |x_b|^2 - 2 x_a . x_b with each term formed as for a single
    (k, d) block, so it rounds the same. The first maximal pair in (iu, ju)
    order wins; a NaN distance never wins, except that a NaN first pair is
    kept.
    """
    gram = blocks @ blocks.transpose(0, 2, 1)
    d2 = sq[:, iu] + sq[:, ju] - 2.0 * gram[:, iu, ju]
    pick = np.argmax(np.where(np.isnan(d2), -np.inf, d2), axis=1)
    pick[np.isnan(d2[:, 0])] = 0
    return pick


def _member_blocks(features: SparseMatrix, members: np.ndarray) -> np.ndarray:
    """(E, k, c) dense blocks of each edge's k member rows of a CSR matrix.

    Each edge's block spans only the columns its member rows use, in column
    order, zero-padded to the widest edge's c; O(entries read) to gather.
    """
    e, k = members.shape
    rows = members.ravel()
    starts = features.indptr[rows]
    lengths = features.indptr[rows + 1] - starts
    slot = np.repeat(np.arange(e * k), lengths)      # (edge, member) slot of each entry
    pos = np.arange(len(slot)) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    edge = slot // k
    # Number each edge's used columns 0, 1, ... in column order.
    used, local = np.unique(edge * features.cols + features.indices[pos], return_inverse=True)
    local -= np.searchsorted(used, edge * features.cols)
    blocks = np.zeros((e, k, int(local.max(initial=-1)) + 1))
    blocks[edge, slot % k, local] = features.data[pos]
    return blocks


def hypergcn_expand(hg: Hypergraph, features: np.ndarray | SparseMatrix) -> Graph:
    """One representative pair per hyperedge, chosen by feature distance.

    For each edge the pair (i, j), i < j, maximizing ||x_i - x_j|| is kept
    with weight 1 / (2|e| - 3); ties break to the lexicographically
    smallest pair. Size-2 edges are kept directly with weight 1 and
    singletons contribute nothing. Weights accumulate when several edges
    pick the same pair, as a running sum from 0.0 in edge order.

    Edges are bucketed by size k; a bucket's distances are formed in
    slices of about 4M values at most (gathered features or Gram entries),
    unless a single edge needs more.

    CSR features (a SparseMatrix) take their squared norms from the row
    sums of the squared values, and each edge's Gram from a block over
    only the columns its member rows use (:func:`_member_blocks`), so the
    distance work is O(sum of |e| times row nnz) rather than O(sum |e| d).
    Integer-valued features give the dense path's distances exactly; for
    other values the norms and the Gram may round differently from a dense
    (k, d) block, and a near-tie may then pick another pair.
    """
    features = as_features(features)
    if len(features.shape) != 2 or features.shape[0] != hg.num_nodes:
        raise ShapeMismatchError(
            f"features must be ({hg.num_nodes}, d), got {features.shape}"
        )
    n, d = features.shape
    by_edge = incidence(hg).transpose()
    sizes = np.diff(by_edge.indptr)
    sparse = isinstance(features, SparseMatrix)
    if sparse:
        # Squared norms as row sums of the squared stored values.
        row_nnz = np.diff(features.indptr)
        sq = SparseMatrix(
            n, d, features.indptr, features.indices, features.data * features.data,
            validate=False,
        ).row_sums()
    elif np.any(sizes > 2):
        # Squared norms once per node, in slices; each row sums on its own,
        # so the values equal np.sum over a single (k, d) block's rows.
        step = max(1, _SLICE_FLOATS // max(d, 1))
        sq = np.concatenate(
            [np.sum(x * x, axis=1) for x in np.split(features, range(step, n, step))]
        )
    first = np.zeros(hg.num_edges, dtype=np.int64)
    second = np.zeros(hg.num_edges, dtype=np.int64)
    weight = np.zeros(hg.num_edges)
    for k in np.unique(sizes[sizes >= 2]):
        edges = np.flatnonzero(sizes == k)
        members = by_edge.indices[by_edge.indptr[edges, None] + np.arange(k)]
        iu, ju = np.nonzero(np.less.outer(np.arange(k), np.arange(k)))  # a < b, row-major
        if k == 2:
            pick = np.zeros(len(edges), dtype=np.int64)
        else:
            # A slice's gathered blocks and its (k, k) Gram stack stay within
            # bound; a CSR block is at most as wide as its edge's entry count.
            width = min(d, int(row_nnz[members].sum(axis=1).max())) if sparse else d
            per = max(1, _SLICE_FLOATS // (k * max(width, k)))
            pick = np.concatenate([
                _farthest_pairs(
                    _member_blocks(features, part) if sparse else features[part], sq[part], iu, ju
                )
                for part in np.split(members, range(per, len(edges), per))
            ])
        rows = np.arange(len(edges))
        first[edges] = members[rows, iu[pick]]
        second[edges] = members[rows, ju[pick]]
        weight[edges] = 1.0 / (2 * k - 3)

    # Sum each pair's weights in edge order: a stable sort groups equal pairs,
    # and a cumsum along each group (groups bucketed by size) adds left to right.
    paired = np.flatnonzero(sizes >= 2)
    keys = first[paired] * n + second[paired]
    order = np.argsort(keys, kind="stable")
    keys, w, edge_of = keys[order], weight[paired][order], paired[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(np.append(starts, len(keys)))
    totals = np.empty(len(starts))
    for c in np.unique(counts):
        at = np.flatnonzero(counts == c)
        totals[at] = np.cumsum(w[starts[at, None] + np.arange(c)], axis=1)[:, -1]
    u, v = first[edge_of[starts]], second[edge_of[starts]]
    return Graph.from_adjacency(SparseMatrix.from_coo(
        n, n, np.concatenate((u, v)), np.concatenate((v, u)), np.concatenate((totals, totals))
    ))
