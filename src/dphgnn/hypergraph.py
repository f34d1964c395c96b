"""Hypergraph data model, incidence structure, and dataset I/O.

A hypergraph is a node count plus a list of hyperedges, each a set of node
ids, stored as flat arrays: the edge sizes in input order and every edge's
members, sorted inside the edge, edge after edge. Every constructor here
makes those arrays with numpy and sorts members inside each edge with one
sort; the per-edge member tuples (``Hypergraph.edges``) are formed from
them on first read only. A labeled
hypergraph adds per-node float64 features (a dense array or a CSR
matrix), integer class labels, and disjoint train/val/test masks, and
round-trips through a JSON format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateMemberError,
    EmptyEdgeError,
    MaskOverlapError,
    NodeIdOutOfRangeError,
    NoEdgesError,
    ParseError,
    ShapeMismatchError,
)
from .fileio import atomic_write, encode_floats, float_array, number_array
from .sparse import SparseMatrix

__all__ = [
    "Hypergraph",
    "LabeledHypergraph",
    "build_hypergraph",
    "hypergraph_from_json",
    "incidence",
    "cooccurrence",
    "clique_owners",
    "density_stats",
    "relabel_nodes",
    "ensure_min_degree",
    "as_features",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable hypergraph structure, stored as flat arrays.

    Attributes:
        num_nodes: node count n; ids are 0..n-1.
        node_degrees: number of incident edges per node.
        edge_degrees: cardinality of each edge, in input order.
        members: every edge's sorted members, edge after edge, as one int64
            array.

    ``edges``, the per-edge sorted member tuples in input order, is derived
    from ``members`` on first read and kept.
    """

    num_nodes: int
    node_degrees: np.ndarray = field(repr=False)
    edge_degrees: np.ndarray = field(repr=False)
    members: np.ndarray = field(repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.edge_degrees)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Per-edge sorted member tuples of Python ints, in input order."""
        flat = self.members.tolist()
        bounds = np.concatenate(([0], np.cumsum(self.edge_degrees))).tolist()
        return tuple(map(tuple, map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:]))))

    def edge_multiset(self) -> tuple[tuple[int, ...], ...]:
        """Canonical edge multiset: sorted tuple of member tuples."""
        return tuple(sorted(self.edges))

    @cached_property
    def _incidence(self) -> SparseMatrix:
        # Row e of H^T lists edge e's sorted members, so H^T is CSR as it stands.
        indptr = np.zeros(self.num_edges + 1, dtype=np.int64)
        np.cumsum(self.edge_degrees, out=indptr[1:])
        by_edge = SparseMatrix(
            self.num_edges, self.num_nodes, indptr, self.members, np.ones(len(self.members))
        )
        # Keep the member sort that orders H, which transpose() would drop:
        # entry p of H is entry by_edge._to_transpose[p] of H^T, and the
        # attention pattern's edge blocks (sparse.EdgeBlocks) read it.
        by_edge._to_transpose
        return by_edge.transpose()

    @cached_property
    def _clique_entries(self) -> tuple[SparseMatrix, np.ndarray]:
        # H H^T and the product triplet summed first into each of its entries.
        h = self._incidence
        return h._matmul_sparse(h.transpose(), firsts=True)


def _from_arrays(num_nodes: int, sizes: np.ndarray, members: np.ndarray) -> Hypergraph:
    """The hypergraph whose edges have ``sizes`` and hold ``members``, edge
    after edge, each edge's members sorted here. Nothing is checked: every
    member must lie in [0, num_nodes) and no edge may repeat one."""
    offset = np.repeat(np.arange(len(sizes), dtype=np.int64) * num_nodes, sizes)
    # One sort of the keys edge * n + member orders each edge's members and
    # keeps the edges in place.
    members = np.sort(members + offset) - offset
    return Hypergraph(num_nodes, np.bincount(members, minlength=num_nodes), sizes, members)


def _flat(edges: list[tuple[int, ...]]) -> np.ndarray:
    # A member beyond int64 is out of range for any node count; an object
    # array keeps it exact, so the checks below still find and name it.
    try:
        return np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    except OverflowError:
        return np.array(list(chain.from_iterable(edges)), dtype=object)


def build_hypergraph(num_nodes: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and construct a hypergraph.

    Every member goes through ``int`` first, so a member that ``int``
    rejects raises its TypeError or ValueError before any check below. The
    checks then run on the flat member array; only when one fails are the
    edges scanned to name it. The error names the first bad edge in input
    order. Inside that edge the checks run empty, then duplicate, then
    range, and a range error names the edge's first bad member in input
    order.

    Raises:
        EmptyEdgeError: an edge has no members.
        DuplicateMemberError: an edge repeats a member.
        NodeIdOutOfRangeError: a member id is outside [0, num_nodes).
    """
    num_nodes = int(num_nodes)
    if num_nodes < 0:
        raise NodeIdOutOfRangeError("num_nodes must be non-negative")
    given = [tuple(map(int, e)) for e in edges]
    sizes = np.fromiter(map(len, given), dtype=np.int64, count=len(given))
    members = _flat(given)
    outside = (members < 0) | (members >= num_nodes)
    # count_nonzero is the cheapest reduction on the many tiny hypergraphs callers build.
    if not (np.count_nonzero(outside) or np.count_nonzero(sizes) < len(sizes)):
        hg = _from_arrays(num_nodes, sizes, members)
        # A sorted edge repeats a member iff two neighbours inside it are equal.
        edge_of = np.repeat(np.arange(len(sizes)), sizes)
        twins = hg.members[1:] == hg.members[:-1]
        twins &= edge_of[1:] == edge_of[:-1]
        if not np.count_nonzero(twins):
            return hg
    # Some edge fails a check: name the first, by the first check it fails.
    for pos, edge in enumerate(given):
        if not edge:
            raise EmptyEdgeError(f"edge {pos} is empty")
        if len(set(edge)) < len(edge):
            raise DuplicateMemberError(f"edge {pos} repeats a member")
        bad = [v for v in edge if not 0 <= v < num_nodes]
        if bad:
            raise NodeIdOutOfRangeError(
                f"edge {pos} refers to node {bad[0]}, but num_nodes={num_nodes}"
            )


def hypergraph_from_json(num_nodes, hyperedges) -> Hypergraph:
    """:func:`build_hypergraph` on a file's ``num_nodes`` and ``hyperedges``.

    Only JSON integers pass: a bool, a fraction, a string or null, as the
    node count or as a member, raises instead of being read through ``int``,
    and so does ``hyperedges`` that is not a list of lists.

    Raises:
        ParseError: a value above is not a JSON integer or list.
    """
    if type(num_nodes) is not int:
        raise ParseError(f"num_nodes must be an integer, got {num_nodes!r}")
    if type(hyperedges) is not list or not all(type(e) is list for e in hyperedges):
        raise ParseError("hyperedges must be a list of member lists")
    others = set(map(type, chain.from_iterable(hyperedges))) - {int}
    if others:
        raise ParseError(f"hyperedge members must be integers, got {sorted(t.__name__ for t in others)}")
    return build_hypergraph(num_nodes, hyperedges)


def incidence(hg: Hypergraph) -> SparseMatrix:
    """n x m binary incidence matrix H with H[v, e] = 1 iff v in edge e.

    Built on first use and kept on the (immutable) hypergraph, so every
    caller shares one H and its cached transpose H^T.
    """
    return hg._incidence


def cooccurrence(hg: Hypergraph) -> SparseMatrix:
    """n x n product H H^T: entry (u, v) counts the edges holding both u and v.

    Its diagonal is the node degrees. Built on first use and kept on the
    hypergraph, like :func:`incidence`, so the clique expansion and the
    structure bundle share one product.
    """
    return hg._clique_entries[0]


def clique_owners(hg: Hypergraph) -> np.ndarray:
    """The term of H H^T that owns each of its stored entries, in stored order.

    H H^T sums one unit term per entry (u, e) of H and member v of e: the
    terms run over H's entries in stored order (node by node, each node's
    edges in increasing order), and each entry's over the sorted members of
    its edge. The owner of entry (u, v) is the first of its terms, the one
    of the lowest-numbered edge that holds both u and v. Read off the sort
    that builds H H^T (:func:`cooccurrence`), with no search of its own.
    """
    return hg._clique_entries[1]


def density_stats(hg: Hypergraph) -> tuple[float, float]:
    """(mean node density, mean edge cardinality).

    The first value is 2|E| / |V|; the second is the average edge size.

    Raises:
        NoEdgesError: the hypergraph has no edges.
    """
    if hg.num_edges == 0:
        raise NoEdgesError("density is undefined without edges")
    if hg.num_nodes == 0:
        raise NoEdgesError("density is undefined without nodes")
    mu = 2.0 * hg.num_edges / hg.num_nodes
    mean_card = float(hg.edge_degrees.mean())
    return mu, mean_card


def relabel_nodes(hg: Hypergraph, perm: Sequence[int]) -> Hypergraph:
    """Apply a node permutation: node v becomes perm[v]."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (hg.num_nodes,) or not np.array_equal(np.sort(perm), np.arange(hg.num_nodes)):
        raise ShapeMismatchError("perm must be a permutation of 0..n-1")
    return _from_arrays(hg.num_nodes, hg.edge_degrees, perm[hg.members])


def ensure_min_degree(hg: Hypergraph) -> Hypergraph:
    """Return a copy with a singleton edge appended for every isolated node.

    Degree-normalized operators are undefined on isolated nodes; training
    code calls this before building structure matrices.
    """
    isolated = np.flatnonzero(hg.node_degrees == 0)
    if isolated.size == 0:
        return hg
    return _from_arrays(
        hg.num_nodes,
        np.concatenate((hg.edge_degrees, np.ones(isolated.size, dtype=np.int64))),
        np.concatenate((hg.members, isolated)),
    )


# ----------------------------------------------------------------------
# labeled datasets


def as_features(features) -> np.ndarray | SparseMatrix:
    """A SparseMatrix as it is; anything else as a float64 array."""
    if isinstance(features, SparseMatrix):
        return features
    return np.asarray(features, dtype=np.float64)


@dataclass(eq=False)
class LabeledHypergraph:
    """Hypergraph with node features, labels, and split masks.

    ``features`` is an (n, d) float64 array or an (n, d) SparseMatrix. The
    CSR form keeps featureless data (X = I, see
    ``synthetic.one_hot_features``) O(n): the model projects it with the
    level-loop sparse product, the distance-pair expansion reads only each
    edge's member rows, and the cache hashes its CSR arrays.
    """

    hypergraph: Hypergraph
    features: np.ndarray | SparseMatrix
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        n = self.hypergraph.num_nodes
        self.features = as_features(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        for name in ("train_mask", "val_mask", "test_mask"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=bool))
        if len(self.features.shape) != 2 or self.features.shape[0] != n:
            raise ShapeMismatchError(
                f"features must be ({n}, d), got {self.features.shape}"
            )
        if self.labels.shape != (n,):
            raise ShapeMismatchError(f"labels must have length {n}")
        for name in ("train_mask", "val_mask", "test_mask"):
            if getattr(self, name).shape != (n,):
                raise ShapeMismatchError(f"{name} must have length {n}")
        if np.any(self.train_mask & self.val_mask) or np.any(
            self.train_mask & self.test_mask
        ) or np.any(self.val_mask & self.test_mask):
            raise MaskOverlapError("train/val/test masks must be disjoint")
        self.num_classes = int(self.num_classes)
        if self.num_classes <= 0:
            raise ParseError("num_classes must be positive")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ParseError(
                f"labels must lie in [0, {self.num_classes})"
            )

    @property
    def num_nodes(self) -> int:
        return self.hypergraph.num_nodes

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


_CSR_KEYS = ("shape", "indptr", "indices", "data")


def _dataset_payload(data: LabeledHypergraph) -> dict:
    payload = {
        "num_nodes": data.hypergraph.num_nodes,
        "hyperedges": [list(e) for e in data.hypergraph.edges],
        "labels": data.labels.tolist(),
        "train_mask": data.train_mask.tolist(),
        "val_mask": data.val_mask.tolist(),
        "test_mask": data.test_mask.tolist(),
        "num_classes": data.num_classes,
    }
    feats = data.features
    if isinstance(feats, SparseMatrix):
        payload["features_csr"] = {
            "shape": list(feats.shape),
            "indptr": feats.indptr.tolist(),
            "indices": feats.indices.tolist(),
            "data": feats.data.tolist(),
        }
    else:
        payload["features"] = encode_floats(feats)
    return payload


def save_dataset(data: LabeledHypergraph, path: str | Path) -> None:
    """Write the JSON dataset format.

    Dense features go to ``features`` as one base64 float64 object (see
    :mod:`dphgnn.fileio`), bit-exact; CSR features go to ``features_csr``,
    O(nnz) numbers whose floats serialize via Python's shortest round-trip
    repr, exact for every finite value. The file is written beside
    ``path`` and renamed over it, so a reader never sees half of it.
    """
    payload = _dataset_payload(data)
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _parse_features_csr(form) -> SparseMatrix:
    if not isinstance(form, dict) or sorted(form) != sorted(_CSR_KEYS):
        raise ParseError(f"features_csr must be an object with exactly the keys {list(_CSR_KEYS)}")
    shape = number_array(form["shape"], "features_csr.shape", "iu")
    if shape.shape != (2,):
        raise ParseError("features_csr.shape must hold two integers")
    indptr = number_array(form["indptr"], "features_csr.indptr", "iu")
    indices = number_array(form["indices"], "features_csr.indices", "iu")
    values = number_array(form["data"], "features_csr.data", "iuf")
    try:
        return SparseMatrix(int(shape[0]), int(shape[1]), indptr, indices, values)
    except ShapeMismatchError as exc:
        raise ParseError(f"features_csr malformed: {exc}") from exc


def load_dataset(path: str | Path) -> LabeledHypergraph:
    """Read a dataset file written by :func:`save_dataset`.

    The file holds exactly one of ``features`` (the base64 float64 object,
    or row-major number lists, one per node) and ``features_csr``
    (``shape``, ``indptr``, ``indices``, ``data``).

    Raises:
        ParseError: malformed JSON, missing keys, a ``num_nodes`` or an
            edge member that is not a JSON integer, labels or ``num_classes``
            that are not integers, split masks that are not booleans,
            labels out of range, features that are
            not numbers (null included), a malformed base64 object, or a
            malformed ``features_csr``: bad lengths, a non-monotone
            ``indptr``, a column out of range, unsorted columns in a row or
            an explicit zero.
        ShapeMismatchError: array lengths inconsistent with num_nodes.
        MaskOverlapError: split masks intersect.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read dataset {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("dataset file must hold a JSON object")
    required = {
        "num_nodes",
        "hyperedges",
        "labels",
        "train_mask",
        "val_mask",
        "test_mask",
    }
    missing = required - payload.keys()
    if missing:
        raise ParseError(f"dataset file missing keys: {sorted(missing)}")
    if ("features" in payload) == ("features_csr" in payload):
        raise ParseError("dataset file must hold exactly one of features and features_csr")
    try:
        hg = hypergraph_from_json(payload["num_nodes"], payload["hyperedges"])
        labels = number_array(payload["labels"], "labels", "iu").astype(np.int64)
        num_classes = payload.get("num_classes")
        if num_classes is None:
            num_classes = int(labels.max()) + 1 if labels.size else 1
        else:
            num_classes = number_array(num_classes, "num_classes", "iu", ndim=0)
        if "features_csr" in payload:
            features = _parse_features_csr(payload["features_csr"])
        else:
            features = float_array(payload["features"], "features")
        return LabeledHypergraph(
            hypergraph=hg,
            features=features,
            labels=labels,
            train_mask=number_array(payload["train_mask"], "train_mask", "b"),
            val_mask=number_array(payload["val_mask"], "val_mask", "b"),
            test_mask=number_array(payload["test_mask"], "test_mask", "b"),
            num_classes=num_classes,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"dataset file malformed: {exc}") from exc
