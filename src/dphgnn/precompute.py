"""Per-dataset structure constants: expansions, Laplacians, propagation.

Everything a forward pass multiplies by but never differentiates through
is built here once, from one incidence matrix H shared by every
expansion and Laplacian. The bundle can be cached on disk under a sha256
content hash (:func:`content_hash`) of:

- the cache format version, now 4, and the node and edge counts;
- the edge sizes and the flat edge members;
- the input features, which the distance-pair expansion reads. A dense
  array contributes a ``dense`` tag, its shape and its float64 values; a
  CSR matrix (featureless data as X = I, say) contributes a ``csr`` tag,
  its shape, ``indptr``, ``indices`` and ``data``, so hashing it is O(nnz).

Every stored array is O(nnz) or O(n + m); nothing n x n is built or
written. A cache hit is O(nnz) array work: the bundle's hypergraph is the
caller's own object, and the file's node count, edge sizes and edge
members are only compared with it. A file whose edge arrays differ counts
as a miss, like one that cannot be read: it is rebuilt and overwritten.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from .attention import UpdateVariant, attention_pattern, propagation_matrix
from .errors import DphgnnError
from .expand import Graph, StarGraph, clique_expand, hypergcn_expand, star_expand
from .fileio import atomic_write
from .hypergraph import Hypergraph, as_features, incidence
from .sparse import SparseMatrix
from .spectral import LaplacianSet, build_laplacians

__all__ = ["StructureBundle", "build_structure", "content_hash", "load_or_build"]


@dataclass(eq=False)
class StructureBundle:
    hypergraph: Hypergraph
    clique: Graph
    star: StarGraph
    hypergcn: Graph
    laplacians: LaplacianSet
    prop_clique: SparseMatrix
    prop_star: SparseMatrix
    prop_hypergcn: SparseMatrix
    attention_pattern: SparseMatrix     # clique adjacency + I, unit values
    edge_from_node: SparseMatrix        # H^T D_v^{-1/2}
    super_gather: SparseMatrix          # D_e^{-1} (A_star restricted to supernode rows)
    node_from_edge: SparseMatrix        # H D_e^{-1}
    key: str


# Bump whenever the npz layout or the hash inputs change, so files from
# older code are never read.
CACHE_FORMAT_VERSION = 4


def content_hash(hg: Hypergraph, features: np.ndarray | SparseMatrix) -> str:
    """sha256 over the format version, n, m, the edge sizes, the flat edge
    members, then a dense or csr tag with the feature shape and the
    feature arrays (the values, or indptr, indices and data)."""
    features = as_features(features)
    digest = hashlib.sha256()
    digest.update(
        f"dphgnn-structure-v{CACHE_FORMAT_VERSION}:{hg.num_nodes}:{hg.num_edges}".encode()
    )
    digest.update(hg.edge_degrees.astype(np.int64).tobytes())
    digest.update(hg.members.tobytes())
    if isinstance(features, SparseMatrix):
        digest.update(f":csr:{features.shape}".encode())
        for part in (features.indptr, features.indices, features.data):
            digest.update(part.tobytes())
    else:
        digest.update(f":dense:{features.shape}".encode())
        digest.update(np.ascontiguousarray(features).tobytes())
    return digest.hexdigest()


def build_structure(hg: Hypergraph, features: np.ndarray | SparseMatrix) -> StructureBundle:
    features = as_features(features)
    return _build(hg, features, content_hash(hg, features))


def _build(hg: Hypergraph, features: np.ndarray | SparseMatrix, key: str) -> StructureBundle:
    # The bundle for features already through as_features, under a known key.
    clique = clique_expand(hg)
    star = star_expand(hg)
    hyper = hypergcn_expand(hg, features)
    laps = build_laplacians(hg, clique, star.graph, hyper)

    h = incidence(hg)
    inv_edge = 1.0 / hg.edge_degrees.astype(np.float64)
    inv_sqrt_node = 1.0 / np.sqrt(hg.node_degrees.astype(np.float64))
    n = hg.num_nodes
    super_rows = star.graph.adjacency.take_row_range(n, n + hg.num_edges)

    return StructureBundle(
        hypergraph=hg,
        clique=clique,
        star=star,
        hypergcn=hyper,
        laplacians=laps,
        prop_clique=propagation_matrix(clique, UpdateVariant.RESIDUAL_RW),
        prop_star=propagation_matrix(star.graph, UpdateVariant.RESIDUAL_RW),
        prop_hypergcn=propagation_matrix(hyper, UpdateVariant.SYM_NORM),
        attention_pattern=attention_pattern(clique.adjacency),
        edge_from_node=h.transpose().scale_cols(inv_sqrt_node),
        super_gather=super_rows.scale_rows(inv_edge),
        node_from_edge=h.scale_cols(inv_edge),
        key=key,
    )


# ----------------------------------------------------------------------
# disk cache

_SPARSE_FIELDS = (
    "prop_clique",
    "prop_star",
    "prop_hypergcn",
    "edge_from_node",
    "super_gather",
    "node_from_edge",
)
_LAPLACIAN_FIELDS = ("smoothing", "clique", "star", "hypergcn", "rw_plus_sym")
_GRAPH_FIELDS = ("clique", "star", "hypergcn")


def _pack_sparse(prefix: str, mat: SparseMatrix, out: dict) -> None:
    out[f"{prefix}.shape"] = np.array(mat.shape, dtype=np.int64)
    out[f"{prefix}.indptr"] = mat.indptr
    out[f"{prefix}.indices"] = mat.indices
    out[f"{prefix}.data"] = mat.data


def _unpack_sparse(prefix: str, blob) -> SparseMatrix:
    rows, cols = (int(v) for v in blob[f"{prefix}.shape"])
    return SparseMatrix(
        rows, cols, blob[f"{prefix}.indptr"], blob[f"{prefix}.indices"], blob[f"{prefix}.data"]
    )


def save_structure(bundle: StructureBundle, path: str | Path) -> None:
    arrays: dict[str, np.ndarray] = {
        "num_nodes": np.array([bundle.hypergraph.num_nodes], dtype=np.int64),
        "edge_sizes": bundle.hypergraph.edge_degrees,
        "edge_members": bundle.hypergraph.members,
    }
    for name in _GRAPH_FIELDS:
        g = getattr(bundle, name)
        g = g.graph if isinstance(g, StarGraph) else g
        _pack_sparse(f"graph.{name}", g.adjacency, arrays)
    for name in _LAPLACIAN_FIELDS:
        _pack_sparse(f"lap.{name}", getattr(bundle.laplacians, name), arrays)
    for name in _SPARSE_FIELDS:
        _pack_sparse(name, getattr(bundle, name), arrays)
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_structure(path: str | Path, hg: Hypergraph, key: str) -> StructureBundle:
    """Read the bundle that :func:`save_structure` wrote for ``hg``.

    The bundle's hypergraph is ``hg`` itself: the stored node count, edge
    sizes and edge members are only compared with it, never rebuilt.

    Raises:
        ValueError: the file holds another hypergraph's edge arrays.
    """
    # Read every member up front; the archive is closed before any parsing.
    with np.load(path) as npz:
        blob = {name: npz[name] for name in npz.files}
    stored = (blob["num_nodes"], blob["edge_sizes"], blob["edge_members"])
    expected = ([hg.num_nodes], hg.edge_degrees, hg.members)
    if not all(map(np.array_equal, stored, expected)):
        raise ValueError(f"{path} holds the structure of another hypergraph")

    def graph_of(name: str) -> Graph:
        return Graph.from_adjacency(_unpack_sparse(f"graph.{name}", blob))

    clique = graph_of("clique")
    star = StarGraph(graph_of("star"), hg.num_nodes, hg.num_edges)
    hyper = graph_of("hypergcn")
    laps = LaplacianSet(
        **{name: _unpack_sparse(f"lap.{name}", blob) for name in _LAPLACIAN_FIELDS}
    )
    fields = {name: _unpack_sparse(name, blob) for name in _SPARSE_FIELDS}
    return StructureBundle(
        hypergraph=hg,
        clique=clique,
        star=star,
        hypergcn=hyper,
        laplacians=laps,
        attention_pattern=attention_pattern(clique.adjacency),
        key=key,
        **fields,
    )


def load_or_build(
    hg: Hypergraph, features: np.ndarray | SparseMatrix, cache_dir: str | Path | None = None
) -> StructureBundle:
    """Build the bundle, reusing a cached copy when one matches the hash."""
    if cache_dir is None:
        return build_structure(hg, features)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    features = as_features(features)
    # Hashed once: the key names the file and is the bundle's key on a miss.
    key = content_hash(hg, features)
    path = cache_dir / f"structure-{key}.npz"
    if path.exists():
        try:
            return load_structure(path, hg, key)
        except (BadZipFile, KeyError, ValueError, OSError, EOFError, DphgnnError):
            pass  # unreadable, incomplete or another hypergraph's: rebuild and overwrite it
    bundle = _build(hg, features, key)
    save_structure(bundle, path)
    return bundle
