"""Hypergraph Laplacians and the spectral identifier update.

Three normalized operators are built from the incidence matrix H with
node degrees D_v and edge cardinalities D_e:

    smoothing operator  D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}
    symmetric Laplacian I - smoothing operator
    random-walk form    I - D_v^{-1} H D_e^{-1} H^T

All three require every node to appear in at least one edge. Graph
Laplacians of expansion graphs are the combinatorial D - A.

The functions here build every operator as one CSR matrix; they are the
reference for the factored forms that ``precompute`` may apply instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import Tensor, concat_cols, matmul, relu, scale
from .errors import IsolatedNodeError
from .expand import Graph
from .hypergraph import Hypergraph, incidence
from .sparse import FactoredOperator, SparseMatrix

__all__ = [
    "LaplacianSet",
    "degrees_checked",
    "laplacian_hgnn",
    "laplacian_sym",
    "laplacian_rw",
    "graph_laplacian",
    "build_laplacians",
    "sib_update",
]


def degrees_checked(hg: Hypergraph) -> np.ndarray:
    """Node degrees as float64.

    Raises:
        IsolatedNodeError: a node lies in no edge.
    """
    deg = hg.node_degrees
    if hg.num_nodes and deg.min() == 0:
        isolated = int(np.flatnonzero(deg == 0)[0])
        raise IsolatedNodeError(
            f"node {isolated} has no incident edges; add a singleton edge first"
        )
    return deg.astype(np.float64)


def laplacian_hgnn(hg: Hypergraph) -> SparseMatrix:
    """Symmetric smoothing operator D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}."""
    deg = degrees_checked(hg)
    left = incidence(hg).scale_rows(1.0 / np.sqrt(deg))
    return left.scale_cols(1.0 / hg.edge_degrees.astype(np.float64)) @ left.transpose()


def laplacian_sym(hg: Hypergraph) -> SparseMatrix:
    """I minus the smoothing operator."""
    return SparseMatrix.identity(hg.num_nodes).add(laplacian_hgnn(hg).scale(-1.0))


def laplacian_rw(hg: Hypergraph) -> SparseMatrix:
    """Random-walk Laplacian I - D_v^{-1} H D_e^{-1} H^T; rows sum to zero."""
    deg = degrees_checked(hg)
    h = incidence(hg)
    walk = h.scale_cols(1.0 / hg.edge_degrees.astype(np.float64)) @ h.transpose()
    return SparseMatrix.identity(hg.num_nodes).add(walk.scale_rows(1.0 / deg).scale(-1.0))


def graph_laplacian(g: Graph) -> SparseMatrix:
    """Combinatorial Laplacian D - A of an expansion graph."""
    return SparseMatrix.from_diag(g.degrees).add(g.adjacency.scale(-1.0))


@dataclass(eq=False)
class LaplacianSet:
    """All operators one forward pass needs, built once per dataset.

    The symmetric and random-walk Laplacians are only ever read as their
    sum, so only ``rw_plus_sym`` is kept; :func:`laplacian_sym` and
    :func:`laplacian_rw` still build either one alone.

    :func:`build_laplacians` gives every operator as a CSR matrix and the
    star Laplacian with all n + m rows. A structure bundle keeps only the
    star Laplacian's n node rows, the only ones a forward pass reads, and
    may hold the clique-pattern operators in factored form.
    """

    smoothing: SparseMatrix | FactoredOperator    # D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}
    clique: SparseMatrix | FactoredOperator       # D - A of the clique expansion
    star: SparseMatrix                            # D - A of the star expansion
    hypergcn: SparseMatrix                        # D - A of the distance-pair expansion
    rw_plus_sym: SparseMatrix | FactoredOperator  # (I - D_v^{-1} H D_e^{-1} H^T) + (I - smoothing)


def build_laplacians(
    hg: Hypergraph,
    clique: Graph,
    star_graph: Graph,
    hyper: Graph,
    factored: Mapping[str, FactoredOperator] | None = None,
) -> LaplacianSet:
    """Every operator as one CSR matrix, except those given in ``factored``.

    ``factored`` may map ``smoothing``, ``clique`` and ``rw_plus_sym`` to a
    factored form of that operator, which is used as given and whose CSR
    is never built; other keys are ignored. Without it, this is the CSR
    reference for every operator. The star Laplacian has all n + m rows.
    """
    factored = factored or {}
    smoothing = factored.get("smoothing") or laplacian_hgnn(hg)
    rw_plus_sym = factored.get("rw_plus_sym")
    if rw_plus_sym is None:
        csr = smoothing if isinstance(smoothing, SparseMatrix) else laplacian_hgnn(hg)
        sym = SparseMatrix.identity(hg.num_nodes).add(csr.scale(-1.0))
        rw_plus_sym = laplacian_rw(hg).add(sym)
    return LaplacianSet(
        smoothing=smoothing,
        clique=factored.get("clique") or graph_laplacian(clique),
        star=graph_laplacian(star_graph),
        hypergcn=graph_laplacian(hyper),
        rw_plus_sym=rw_plus_sym,
    )


def sib_update(
    x: Tensor | np.ndarray,
    lam: float,
    theta: Tensor | np.ndarray,
    laplacians: LaplacianSet,
) -> Tensor:
    """Spectral identifier block.

    Concatenates the random-walk-plus-symmetric smoothing of ``x`` with
    the smoothing-operator pass, adds it (scaled by ``lam``) onto the
    duplicated input, and applies a learned map with ReLU:

        S = [(rw + sym) x  ||  smoothing x]          (n, 2d)
        out = ReLU(([x || x] + lam * S) theta)

    ``theta`` maps 2d columns to the output width. ``laplacians`` is a
    structure bundle's set or the CSR reference of :func:`build_laplacians`.
    """
    identifiers = concat_cols(matmul(laplacians.rw_plus_sym, x), matmul(laplacians.smoothing, x))
    x = x if isinstance(x, Tensor) else Tensor(x)
    mixed = concat_cols(x, x) + scale(identifiers, lam)
    return relu(matmul(mixed, theta))
