"""Per-dataset structure constants: Laplacians, propagation, attention pattern.

Everything a forward pass multiplies by but never differentiates through
is built here once, from one incidence matrix H shared by every
expansion and Laplacian. The clique, star and distance-pair expansions
are built only to derive these operators; the bundle and its npz keep
the operators alone. The bundle can be cached on disk under a sha256
content hash (:func:`content_hash`) of:

- the cache format version, now 9, and the node and edge counts;
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
factor; size-2 edges store more terms factored and stay CSR. Every node
lies in an edge, so H H^T's pattern is the clique adjacency's plus I: the
attention pattern and the CSR forms of the clique Laplacian and
``prop_clique`` are values on that pattern, sharing its index arrays,
where :func:`~dphgnn.spectral.build_laplacians` and
:func:`~dphgnn.attention.propagation_matrix` would merge patterns to the
same bits. Only the star Laplacian's n node rows are kept, the rows the
spectral attention path reads; they are formed from the star adjacency's
node rows, never as the n + m rows of D - A. The star view needs no
propagation operator: its node rows are
ReLU(x theta), and its supernode rows and the identifier block read the
hyperedge mean D_e^{-1} H^T x through ``node_from_edge``, not the
random-walk and symmetric Laplacians.

The attention pattern is also held as edge blocks
(:class:`~dphgnn.sparse.EdgeBlocks`, ``attention_blocks``) when it holds at
least ``BLOCK_PAIRS`` = 4 pairs per incidence of H, again a property of the
input alone; below that the field is None and the attention sums run on
the CSR pattern, bit for bit as before. A block product gathers one value
row per incidence, a CSR product one per pair, but the blocks pay a
batched product per edge and a scatter of the incidence rows. On
``two_community`` with n = 2000, width 64 and two heads, forward plus
backward took 1.24 times the CSR time at 1.2 pairs per incidence (size-2
edges), 0.85 at 2.2 (size 3), 0.69 at 3.2 (size 4), 0.46 at 5.2 (size 6),
0.37 at 7.1 (size 8) and 0.13 at 56 (size 64). The threshold sits above
the crossover, between the frozen train-step instance (3.07 pairs per
incidence) and ``wide_edges_train`` (7.13), so that instance, the iso
pool (1.50) and the c10 forward-timing instances (2.23 to 3.00) keep the
CSR sums and their bits. The layout is derived from the sort that builds
H H^T (see :func:`~dphgnn.hypergraph.clique_owners`), with no search or
sort of its own, and is never written to the npz: a load rebuilds it from
the hypergraph and the loaded pattern, so ``CACHE_FORMAT_VERSION`` stays.

The npz holds six arrays and one storage form: every operator is a list
of terms diag(scale) M1 ... Mk, and a CSR operator is one unscaled term of
one matrix, loaded back as that matrix. ``graph`` is n, m, the edge sizes
and the flat edge members. ``ints`` and ``floats`` hold every distinct
index array and every distinct value or scale array once, so operators
with one pattern share their index arrays, in the file and after a load.
``matrices`` has a row per distinct matrix, field or factor (rows, cols,
nnz, then the offsets of its indptr, indices and data in the pools, -1
for data that is all ones); ``terms`` has a row per term (operator,
rows, cols, scale offset or -1, then the span of its matrix ids in
``chains``). Loading checks every span and id against its array, and
every matrix gets :class:`~dphgnn.sparse.SparseMatrix`'s validation.
Every stored array is O(nnz) or O(n + m); nothing n x n is built or
written. A cache hit is O(nnz) array work: the bundle's hypergraph is the
caller's own object, and the file's node count, edge sizes and edge
members are only compared with it. A file whose edge arrays differ counts
as a miss, like one that cannot be read: it is rebuilt and overwritten.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from .attention import UpdateVariant, propagation_matrix
from .errors import DphgnnError, ParseError
from .expand import Graph, clique_expand, hypergcn_expand, star_expand
from .fileio import atomic_write
from .hypergraph import Hypergraph, as_features, clique_owners, cooccurrence, incidence
from .sparse import EdgeBlocks, FactoredOperator, SparseMatrix
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
    # The attention pattern as edge blocks, where edges are wide; not in the npz.
    attention_blocks: EdgeBlocks | None = None


# Bump whenever the npz layout or the hash inputs change, so files from
# older code are never read.
CACHE_FORMAT_VERSION = 9

# A clique-pattern operator is applied factored when its factors store at most
# this share of the terms of its CSR form. Well below 1, because every factor
# adds a product with its own fixed cost: size-2 edges (the iso pool) store
# more terms factored, the c10 forward-timing instances (300 nodes, size-3
# edges) 0.67 to 1.02 times as many, while on size-8 edges the three operators
# store 0.28 to 0.57 times as many.
FACTORED_SHARE = 0.625

# Attention sums run on edge blocks when the attention pattern holds at least
# this many pairs per incidence of H (see the module docstring): above the
# crossover near 2.5, and above the instances whose CSR bits tests freeze.
BLOCK_PAIRS = 4


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
    return _build(hg, as_features(features))


def _build(hg: Hypergraph, features: np.ndarray | SparseMatrix) -> StructureBundle:
    # The bundle for features already through as_features.
    clique = clique_expand(hg)
    star = star_expand(hg)
    hyper = hypergcn_expand(hg, features)

    h = incidence(hg)
    inv_edge = 1.0 / hg.edge_degrees.astype(np.float64)
    inv_sqrt_node = 1.0 / np.sqrt(degrees_checked(hg))
    n = hg.num_nodes
    node_from_edge = h.scale_cols(inv_edge)
    edge_from_node = h.transpose().scale_cols(inv_sqrt_node)
    inv_clique = np.zeros(n)
    joined = clique.degrees > 0
    inv_clique[joined] = 1.0 / clique.degrees[joined]
    factored = _factored_operators(hg, clique, inv_clique, node_from_edge, edge_from_node)
    # Every candidate's CSR form has about the nnz of H H^T, whose pattern it shares.
    co = cooccurrence(hg)
    budget = FACTORED_SHARE * co.nnz
    chosen = {name: op for name, op in factored.items() if op.stored_terms <= budget}

    # Every node lies in an edge, so H H^T stores its whole diagonal and its
    # pattern is the clique adjacency's plus I. _rescaled drops a zero
    # diagonal value, as D - A drops a clique-isolated node's zero degree.
    rows = co._row_of()
    diag = np.flatnonzero(rows == co.indices)

    def on_pattern(values: np.ndarray, diagonal) -> SparseMatrix:
        values[diag] = diagonal
        return co._rescaled(values)

    given = {"star": _star_node_rows(star, n), **chosen}
    if "clique" not in chosen:
        given["clique"] = on_pattern(np.full(co.nnz, -1.0), clique.degrees)
    pattern = co._rescaled(np.ones(co.nnz))
    return StructureBundle(
        hypergraph=hg,
        laplacians=build_laplacians(hg, clique, star, hyper, given),
        prop_clique=chosen.get("prop_clique") or on_pattern(inv_clique[rows], 1.0),
        prop_hypergcn=propagation_matrix(hyper, UpdateVariant.SYM_NORM),
        attention_pattern=pattern,
        edge_from_node=edge_from_node,
        node_from_edge=node_from_edge,
        attention_blocks=_attention_blocks(hg, pattern),
    )


def _attention_blocks(hg: Hypergraph, pattern: SparseMatrix) -> EdgeBlocks | None:
    """The attention pattern as edge blocks if it holds at least
    ``BLOCK_PAIRS`` pairs per incidence, else None.

    Raises:
        ValueError: ``pattern`` (a loaded one, say) is not H H^T's.
    """
    if pattern.nnz < BLOCK_PAIRS * len(hg.members):
        return None
    co = cooccurrence(hg)
    if not (np.array_equal(pattern.indptr, co.indptr) and np.array_equal(pattern.indices, co.indices)):
        raise ValueError("the attention pattern is not the pattern of H H^T")
    return EdgeBlocks(pattern, incidence(hg), clique_owners(hg))


def _star_node_rows(star: Graph, n: int) -> SparseMatrix:
    """Rows 0..n-1 of the star Laplacian D - A, formed from the star
    adjacency's node rows: row v holds d_v at column v, then -1 at the
    supernode n + e of each edge e of v, in edge order. Every d_v is at
    least 1, so no value is zero."""
    adj = star.adjacency
    ptr = adj.indptr[: n + 1]
    nnz = ptr[-1]
    return SparseMatrix(
        n,
        adj.cols,
        ptr + np.arange(n + 1),
        np.insert(adj.indices[:nnz], ptr[:-1], np.arange(n)),
        np.insert(-adj.data[:nnz], ptr[:-1], star.degrees[:n]),
        validate=False,
    )


def _factored_operators(
    hg: Hypergraph,
    clique: Graph,
    inv_clique: np.ndarray,
    node_from_edge: SparseMatrix,
    edge_from_node: SparseMatrix,
) -> dict[str, FactoredOperator]:
    """The three clique-pattern operators as products through H.

    With A the clique adjacency, H H^T = diag(d_v) + A + C, where C holds
    count - 1 on the node pairs that share two or more edges, so

        smoothing   = D_v^{-1/2} (H D_e^{-1}) (H^T D_v^{-1/2})
        clique      = diag(D_c + d_v) - H H^T + C
        prop_clique = diag(1 - D_c^{-1} d_v) + D_c^{-1} H H^T - D_c^{-1} C

    with D_c the clique degrees and ``inv_clique`` = D_c^{-1} taken as 0 on
    isolated rows, as :func:`~dphgnn.attention.propagation_matrix` does.
    """
    n = hg.num_nodes
    h = incidence(hg)
    ht = h.transpose()
    deg = hg.node_degrees.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows, cols, counts = cooccurrence(hg).to_coo()
    shared = (rows != cols) & (counts > 1)
    multi = SparseMatrix.from_coo(n, n, rows[shared], cols[shared], counts[shared] - 1.0)

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

# The npz members, each one array (see the module docstring).
_MEMBERS = ("graph", "ints", "floats", "matrices", "terms", "chains")

# The bundle fields the npz holds, after the hypergraph and the Laplacians.
_STORED = tuple(f.name for f in fields(StructureBundle)[2:] if f.name != "attention_blocks")


def _graph_array(hg: Hypergraph) -> np.ndarray:
    return np.concatenate(([hg.num_nodes, hg.num_edges], hg.edge_degrees, hg.members))


def _put(pool: dict[bytes, int], array: np.ndarray) -> int:
    # The offset of ``array`` in a pool of distinct 8-byte arrays, keyed by their bytes.
    key = array.tobytes()
    if key not in pool:
        pool[key] = sum(map(len, pool)) // 8
    return pool[key]


def save_structure(bundle: StructureBundle, path: str | Path) -> None:
    ints: dict[bytes, int] = {}
    floats: dict[bytes, int] = {}
    matrices: list[tuple] = []
    rows_of: dict[int, int] = {}   # id of each distinct matrix -> its row in matrices
    terms: list[tuple] = []
    chains: list[int] = []

    def matrix(mat: SparseMatrix) -> int:
        if id(mat) not in rows_of:
            rows_of[id(mat)] = len(matrices)
            data = -1 if (mat.data == 1.0).all() else _put(floats, mat.data)
            matrices.append((mat.rows, mat.cols, mat.nnz,
                             _put(ints, mat.indptr), _put(ints, mat.indices), data))
        return rows_of[id(mat)]

    laps = bundle.laplacians
    operators = [getattr(laps, f.name) for f in fields(LaplacianSet)]
    operators += [getattr(bundle, name) for name in _STORED]
    for k, op in enumerate(operators):
        for scale, chain in op.terms if isinstance(op, FactoredOperator) else [(None, (op,))]:
            terms.append((k, *op.shape, -1 if scale is None else _put(floats, scale),
                          len(chains), len(chain)))
            chains += [matrix(mat) for mat in chain]
    with atomic_write(path, "wb") as fh:
        np.savez(fh, graph=_graph_array(bundle.hypergraph),
                 ints=np.frombuffer(b"".join(ints), dtype=np.int64),
                 floats=np.frombuffer(b"".join(floats), dtype=np.float64),
                 matrices=np.array(matrices, dtype=np.int64).reshape(-1, 6),
                 terms=np.array(terms, dtype=np.int64).reshape(-1, 6),
                 chains=np.array(chains, dtype=np.int64))


def load_structure(path: str | Path, hg: Hypergraph) -> StructureBundle:
    """Read the bundle that :func:`save_structure` wrote for ``hg``.

    The bundle's hypergraph is ``hg`` itself: the stored node count, edge
    sizes and edge members are only compared with it, never rebuilt. The
    attention pattern's edge blocks, which the file does not hold, are
    built again from ``hg`` and the loaded pattern.

    Raises:
        ValueError: the file holds another hypergraph's edge arrays, a
            span, id or table that does not fit the arrays it points into,
            or, where edges are wide, an attention pattern that is not
            H H^T's.
    """
    with np.load(path) as npz:
        graph, ints, floats, matrices, terms, chains = (npz[name] for name in _MEMBERS)
    if not np.array_equal(graph, _graph_array(hg)):
        raise ValueError(f"{path} holds the structure of another hypergraph")
    if not (ints.dtype == chains.dtype == matrices.dtype == terms.dtype == np.int64
            and floats.dtype == np.float64 and ints.ndim == floats.ndim == chains.ndim == 1
            and matrices.shape[1:] == terms.shape[1:] == (6,)):
        raise ValueError(f"{path}: the tables do not have the stored layout")

    def span(pool: np.ndarray, offset: int, length: int) -> np.ndarray:
        if not 0 <= offset <= offset + length <= len(pool):
            raise ValueError(f"{path}: span [{offset}, {offset + length}) is outside its pool")
        return pool[offset:offset + length]

    def matrix(rows, cols, nnz, indptr, indices, data) -> SparseMatrix:
        indices = span(ints, indices, nnz)
        values = np.ones(nnz) if data == -1 else span(floats, data, nnz)
        return SparseMatrix(rows, cols, span(ints, indptr, rows + 1), indices, values)

    mats = [matrix(*row) for row in matrices.tolist()]
    n_laps = len(fields(LaplacianSet))
    parts: list[list] = [[] for _ in range(n_laps + len(_STORED))]
    for k, rows, cols, scale, start, length in terms.tolist():
        ids = span(chains, start, length).tolist()
        if not (0 <= k < len(parts) and all(0 <= i < len(mats) for i in ids)):
            raise ValueError(f"{path}: a term names a missing operator or matrix")
        scale = None if scale == -1 else span(floats, scale, rows)
        parts[k].append(((rows, cols), scale, tuple(mats[i] for i in ids)))
    ops = []
    for op_terms in parts:
        shapes = {shape for shape, _, _ in op_terms}
        if len(shapes) != 1:
            raise ValueError(f"{path}: an operator has no terms, or terms of two shapes")
        op = FactoredOperator(shapes.pop(), [term[1:] for term in op_terms])
        [(scale, chain), *rest] = op.terms
        ops.append(chain[0] if not rest and scale is None and len(chain) == 1 else op)
    stored = dict(zip(_STORED, ops[n_laps:]))
    return StructureBundle(hg, LaplacianSet(*ops[:n_laps]), **stored,
                           attention_blocks=_attention_blocks(hg, stored["attention_pattern"]))


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
    path = cache_dir / f"structure-{content_hash(hg, features)}.npz"
    if path.exists():
        try:
            return load_structure(path, hg)
        except (BadZipFile, KeyError, ValueError, OSError, EOFError, DphgnnError):
            pass  # unreadable, incomplete or another hypergraph's: rebuild and overwrite it
    bundle = _build(hg, features)
    save_structure(bundle, path)
    return bundle
