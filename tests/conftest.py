"""Shared fixtures and independent dense oracles.

Oracles here recompute quantities from first principles with plain
numpy so the package implementations are checked against straight-line
re-derivations, not against themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from dphgnn.errors import DuplicateMemberError, EmptyEdgeError, NodeIdOutOfRangeError
from dphgnn.hypergraph import (
    Hypergraph,
    LabeledHypergraph,
    build_hypergraph,
    relabel_nodes,
)
from dphgnn.sparse import SparseMatrix


@pytest.fixture
def spec_example() -> Hypergraph:
    """The running 4-node example: one 3-edge and one 2-edge sharing node 2."""
    return build_hypergraph(4, [(0, 1, 2), (2, 3)])


def row_slice(m: SparseMatrix, lo: int, hi: int) -> SparseMatrix:
    """Rows [lo, hi) of ``m`` as a new CSR matrix, each entry as stored."""
    a, b = m.indptr[lo], m.indptr[hi]
    return SparseMatrix(hi - lo, m.cols, m.indptr[lo : hi + 1] - a, m.indices[a:b], m.data[a:b])


def dense_incidence(hg: Hypergraph) -> np.ndarray:
    H = np.zeros((hg.num_nodes, hg.num_edges))
    for j, edge in enumerate(hg.edges):
        for v in edge:
            H[v, j] = 1.0
    return H


def dense_smoothing(hg: Hypergraph) -> np.ndarray:
    """D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2} built densely."""
    H = dense_incidence(hg)
    dv = H.sum(axis=1)
    de = H.sum(axis=0)
    inv_sqrt = np.diag(1.0 / np.sqrt(dv))
    return inv_sqrt @ H @ np.diag(1.0 / de) @ H.T @ inv_sqrt


def dense_sym(hg: Hypergraph) -> np.ndarray:
    return np.eye(hg.num_nodes) - dense_smoothing(hg)


def dense_rw(hg: Hypergraph) -> np.ndarray:
    H = dense_incidence(hg)
    dv = H.sum(axis=1)
    de = H.sum(axis=0)
    walk = np.diag(1.0 / dv) @ H @ np.diag(1.0 / de) @ H.T
    return np.eye(hg.num_nodes) - walk


def dense_clique_adjacency(hg: Hypergraph) -> np.ndarray:
    """Unit adjacency of the node pairs that share an edge, from dense H."""
    H = dense_incidence(hg)
    a = (H @ H.T > 0).astype(float)
    np.fill_diagonal(a, 0.0)
    return a


def dense_clique_laplacian(hg: Hypergraph) -> np.ndarray:
    a = dense_clique_adjacency(hg)
    return np.diag(a.sum(axis=1)) - a


def dense_prop_clique(hg: Hypergraph) -> np.ndarray:
    """I + D^{-1} A of the clique expansion; a node with no neighbour keeps its identity row."""
    a = dense_clique_adjacency(hg)
    deg = a.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return np.eye(hg.num_nodes) + inv[:, None] * a


def dense_pattern(m: SparseMatrix, data) -> np.ndarray:
    """Dense form of the pattern of ``m`` with values ``data``, row by row."""
    out = np.zeros(m.shape)
    for i in range(m.rows):
        for p in range(m.indptr[i], m.indptr[i + 1]):
            out[i, m.indices[p]] = data[p]
    return out


def dense_adjacency(graph) -> np.ndarray:
    return graph.adjacency.to_dense()


def permute_data(data: LabeledHypergraph, perm) -> LabeledHypergraph:
    """Apply a node permutation to structure, features, labels, and masks.

    CSR features stay CSR: row v moves to row perm[v].
    """
    hg_p = relabel_nodes(data.hypergraph, perm)
    if isinstance(data.features, SparseMatrix):
        rows, cols, vals = data.features.to_coo()
        feats = SparseMatrix.from_coo(*data.features.shape, np.asarray(perm)[rows], cols, vals)
    else:
        feats = np.empty_like(data.features)
        feats[perm] = data.features
    labels = np.empty_like(data.labels)
    masks = {}
    for name in ("train_mask", "val_mask", "test_mask"):
        masks[name] = np.empty_like(getattr(data, name))
    labels[perm] = data.labels
    for name in ("train_mask", "val_mask", "test_mask"):
        masks[name][perm] = getattr(data, name)
    return LabeledHypergraph(
        hypergraph=hg_p,
        features=feats,
        labels=labels,
        num_classes=data.num_classes,
        **masks,
    )


def random_covering_hypergraph(
    rng: np.random.Generator, num_nodes: int, num_edges: int, max_size: int = 4
) -> Hypergraph:
    """Random hypergraph whose first edges cover every node (no isolates)."""
    edges = []
    perm = rng.permutation(num_nodes)
    i = 0
    while i < num_nodes:
        size = int(rng.integers(2, max_size + 1))
        chunk = perm[i : i + size]
        if len(chunk) == 1:
            chunk = perm[i - 1 : i + 1]
        edges.append(tuple(int(v) for v in chunk))
        i += size
    while len(edges) < num_edges:
        size = int(rng.integers(2, min(max_size, num_nodes) + 1))
        members = rng.choice(num_nodes, size=size, replace=False)
        edges.append(tuple(int(v) for v in members))
    return build_hypergraph(num_nodes, edges)


def reference_build_hypergraph(num_nodes, edges):
    """The per-edge loop that ``build_hypergraph`` replaced.

    Returns (edges, node_degrees, edge_degrees, members) and raises the
    same errors with the same messages: edge by edge in input order, and
    inside an edge empty, then duplicate, then range in input order.
    """
    num_nodes = int(num_nodes)
    if num_nodes < 0:
        raise NodeIdOutOfRangeError("num_nodes must be non-negative")
    clean = []
    for pos, edge in enumerate(edges):
        members = [int(v) for v in edge]
        if not members:
            raise EmptyEdgeError(f"edge {pos} is empty")
        if len(set(members)) != len(members):
            raise DuplicateMemberError(f"edge {pos} repeats a member")
        for v in members:
            if not 0 <= v < num_nodes:
                raise NodeIdOutOfRangeError(
                    f"edge {pos} refers to node {v}, but num_nodes={num_nodes}"
                )
        clean.append(tuple(sorted(members)))
    node_deg = np.zeros(num_nodes, dtype=np.int64)
    for e in clean:
        node_deg[list(e)] += 1
    edge_deg = np.array([len(e) for e in clean], dtype=np.int64)
    members = np.array([v for e in clean for v in e], dtype=np.int64)
    return tuple(clean), node_deg, edge_deg, members
