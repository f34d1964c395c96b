"""Per-dataset structure constants: Laplacians, propagation, attention pattern.

Everything a forward pass multiplies by but never differentiates through
is built here once, from one incidence matrix H shared by every
expansion and Laplacian. The clique, star and distance-pair expansions
are built only to derive these operators; the bundle and its npz keep
the operators alone. The bundle can be cached on disk under a sha256
content hash (:func:`content_hash`) of:

- the cache format version, now 8, and the node and edge counts;
- the edge sizes and the flat edge members;
- the input features, which the distance-pair expansion reads. A dense
  array contributes a ``dense`` tag, its shape and its float64 values; a
  CSR matrix (featureless data as X = I, say) contributes a ``csr`` tag,
  its shape, ``indptr``, ``indices`` and ``data``, so hashing it is O(nnz).

Three operators share the pattern of H H^T, whose nnz is O(sum |e|^2): the
smoothing operator, the clique Laplacian and ``prop_clique``. Each may
instead be held as a :class:`~dphgnn.sparse.FactoredOperator`, a sum of
products through H (see :func:`_factored_operators`), whose factors store
O(nnz(H)) terms. The build picks the factored form for an operator when
its stored terms are at most ``FACTORED_SHARE`` of nnz(H H^T), a property
of the input alone; a factored operator's CSR is never built. Wide edges
factor; size-2 edges store more terms factored and stay CSR. Only the star
Laplacian's n node rows are kept, the rows the spectral attention path
reads. The star step and the identifier block read the hyperedge mean
D_e^{-1} H^T x through ``node_from_edge``, not a star propagation operator
or the random-walk and symmetric Laplacians. The npz stores each CSR
operator, the attention pattern among them, as its shape, ``indptr``,
``indices`` and ``data``, and a factored operator as its term layout
(chain lengths, factor ids, scales), each distinct factor once.

Every stored array is O(nnz) or O(n + m); nothing n x n is built or
written. A cache hit is O(nnz) array work: the bundle's hypergraph is the
caller's own object, and the file's node count, edge sizes and edge
members are only compared with it. A file whose edge arrays differ counts
as a miss, like one that cannot be read: it is rebuilt and overwritten.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from .attention import UpdateVariant, attention_pattern, propagation_matrix
from .errors import DphgnnError, ParseError
from .expand import Graph, clique_expand, hypergcn_expand, star_expand
from .fileio import atomic_write
from .hypergraph import Hypergraph, as_features, cooccurrence, incidence
from .sparse import FactoredOperator, SparseMatrix
from .spectral import LaplacianSet, build_laplacians, degrees_checked

__all__ = ["StructureBundle", "build_structure", "content_hash", "load_or_build"]


@dataclass(eq=False)
class StructureBundle:
    hypergraph: Hypergraph
    laplacians: LaplacianSet
    prop_clique: SparseMatrix | FactoredOperator
    prop_hypergcn: SparseMatrix
    attention_pattern: SparseMatrix     # clique adjacency + I, unit values
    edge_from_node: SparseMatrix        # H^T D_v^{-1/2}
    node_from_edge: SparseMatrix        # H D_e^{-1}
    key: str


# Bump whenever the npz layout or the hash inputs change, so files from
# older code are never read.
CACHE_FORMAT_VERSION = 8

# A clique-pattern operator is applied factored when its factors store at most
# this share of the terms of its CSR form. Well below 1, because every factor
# adds a product with its own fixed cost: size-2 edges (the iso pool) store
# more terms factored, the c10 forward-timing instances (300 nodes, size-3
# edges) 0.67 to 1.02 times as many, while on size-8 edges the three operators
# store 0.28 to 0.57 times as many.
FACTORED_SHARE = 0.625


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

    h = incidence(hg)
    inv_edge = 1.0 / hg.edge_degrees.astype(np.float64)
    inv_sqrt_node = 1.0 / np.sqrt(degrees_checked(hg))
    n = hg.num_nodes
    node_from_edge = h.scale_cols(inv_edge)
    edge_from_node = h.transpose().scale_cols(inv_sqrt_node)
    factored = _factored_operators(hg, clique, node_from_edge, edge_from_node)
    # Every candidate's CSR form has about the nnz of H H^T, whose pattern it shares.
    budget = FACTORED_SHARE * cooccurrence(hg).nnz
    chosen = {name: op for name, op in factored.items() if op.stored_terms <= budget}

    laps = build_laplacians(hg, clique, star, hyper, chosen)
    # Only the star Laplacian's node rows are read, by the spectral attention path.
    laps = replace(laps, star=laps.star.take_row_range(0, n))

    return StructureBundle(
        hypergraph=hg,
        laplacians=laps,
        prop_clique=(chosen.get("prop_clique")
                     or propagation_matrix(clique, UpdateVariant.RESIDUAL_RW)),
        prop_hypergcn=propagation_matrix(hyper, UpdateVariant.SYM_NORM),
        attention_pattern=attention_pattern(clique.adjacency),
        edge_from_node=edge_from_node,
        node_from_edge=node_from_edge,
        key=key,
    )


def _factored_operators(
    hg: Hypergraph, clique: Graph, node_from_edge: SparseMatrix, edge_from_node: SparseMatrix
) -> dict[str, FactoredOperator]:
    """The three clique-pattern operators as products through H.

    With A the clique adjacency, H H^T = diag(d_v) + A + C, where C holds
    count - 1 on the node pairs that share two or more edges, so

        smoothing   = D_v^{-1/2} (H D_e^{-1}) (H^T D_v^{-1/2})
        clique      = diag(D_c + d_v) - H H^T + C
        prop_clique = diag(1 - D_c^{-1} d_v) + D_c^{-1} H H^T - D_c^{-1} C

    with D_c the clique degrees and D_c^{-1} taken as 0 on isolated rows,
    as :func:`~dphgnn.attention.propagation_matrix` does.
    """
    n = hg.num_nodes
    h = incidence(hg)
    ht = h.transpose()
    deg = hg.node_degrees.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows, cols, counts = cooccurrence(hg).to_coo()
    shared = (rows != cols) & (counts > 1)
    multi = SparseMatrix.from_coo(n, n, rows[shared], cols[shared], counts[shared] - 1.0)
    inv_clique = np.zeros(n)
    joined = clique.degrees > 0
    inv_clique[joined] = 1.0 / clique.degrees[joined]

    return {
        "smoothing": FactoredOperator((n, n), [(inv_sqrt, (node_from_edge, edge_from_node))]),
        "clique": FactoredOperator((n, n), [
            (clique.degrees + deg, ()), (np.full(n, -1.0), (h, ht)), (None, (multi,)),
        ]),
        "prop_clique": FactoredOperator((n, n), [
            (1.0 - inv_clique * deg, ()), (inv_clique, (h, ht)), (-inv_clique, (multi,)),
        ]),
    }


# ----------------------------------------------------------------------
# disk cache

_SPARSE_FIELDS = (
    "prop_clique",
    "prop_hypergcn",
    "attention_pattern",
    "edge_from_node",
    "node_from_edge",
)
_LAPLACIAN_FIELDS = ("smoothing", "clique", "star", "hypergcn")


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


def _pack_operator(prefix: str, op, out: dict, factors: list[SparseMatrix]) -> None:
    # A CSR matrix as _pack_sparse; a factored operator as its term layout,
    # each distinct factor stored once under factor.<k>.
    if isinstance(op, SparseMatrix):
        _pack_sparse(prefix, op, out)
        return
    ids = []
    for _, chain in op.terms:
        for mat in chain:
            k = next((k for k, seen in enumerate(factors) if seen is mat), len(factors))
            if k == len(factors):
                factors.append(mat)
                _pack_sparse(f"factor.{k}", mat, out)
            ids.append(k)
    out[f"{prefix}.shape"] = np.array(op.shape, dtype=np.int64)
    out[f"{prefix}.chain_lengths"] = np.array([len(c) for _, c in op.terms], dtype=np.int64)
    out[f"{prefix}.factors"] = np.array(ids, dtype=np.int64)
    out[f"{prefix}.scaled"] = np.array([scale is not None for scale, _ in op.terms])
    out[f"{prefix}.scales"] = np.array(
        [scale for scale, _ in op.terms if scale is not None], dtype=np.float64
    ).reshape(-1, op.shape[0])


def _unpack_operator(prefix: str, blob, factors: dict[int, SparseMatrix]):
    if f"{prefix}.chain_lengths" not in blob:
        return _unpack_sparse(prefix, blob)
    lengths, ids = blob[f"{prefix}.chain_lengths"], blob[f"{prefix}.factors"]
    scaled, scales = blob[f"{prefix}.scaled"], blob[f"{prefix}.scales"]
    if (np.any(lengths < 0) or lengths.sum() != len(ids) or len(scaled) != len(lengths)
            or np.count_nonzero(scaled) != len(scales)):
        raise ValueError(f"{prefix}: the term layout does not match its arrays")
    for k in set(ids.tolist()) - factors.keys():
        factors[k] = _unpack_sparse(f"factor.{k}", blob)
    next_scale = iter(scales)
    terms = [
        (next(next_scale) if has_scale else None, tuple(factors[k] for k in chain))
        for has_scale, chain in zip(scaled, np.split(ids, np.cumsum(lengths)[:-1]))
    ]
    rows, cols = (int(v) for v in blob[f"{prefix}.shape"])
    return FactoredOperator((rows, cols), terms)


def save_structure(bundle: StructureBundle, path: str | Path) -> None:
    arrays: dict[str, np.ndarray] = {
        "num_nodes": np.array([bundle.hypergraph.num_nodes], dtype=np.int64),
        "edge_sizes": bundle.hypergraph.edge_degrees,
        "edge_members": bundle.hypergraph.members,
    }
    factors: list[SparseMatrix] = []
    for name in _LAPLACIAN_FIELDS:
        _pack_operator(f"lap.{name}", getattr(bundle.laplacians, name), arrays, factors)
    for name in _SPARSE_FIELDS:
        _pack_operator(name, getattr(bundle, name), arrays, factors)
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
    factors: dict[int, SparseMatrix] = {}
    laps = LaplacianSet(
        **{name: _unpack_operator(f"lap.{name}", blob, factors) for name in _LAPLACIAN_FIELDS}
    )
    fields = {name: _unpack_operator(name, blob, factors) for name in _SPARSE_FIELDS}
    return StructureBundle(hypergraph=hg, laplacians=laps, key=key, **fields)


def load_or_build(
    hg: Hypergraph, features: np.ndarray | SparseMatrix, cache_dir: str | Path | None = None
) -> StructureBundle:
    """Build the bundle, reusing a cached copy when one matches the hash.

    Raises:
        ParseError: ``cache_dir`` is not a directory and cannot be created.
    """
    if cache_dir is None:
        return build_structure(hg, features)
    cache_dir = Path(cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot use {cache_dir} as a cache directory: {exc}") from exc
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
