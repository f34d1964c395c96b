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
The identifier block applies the last two's sum through a hyperedge mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .autodiff import Tensor, concat_cols, matmul, mul, relu, scale, sub
from .errors import IsolatedNodeError
from .expand import Graph
from .hypergraph import Hypergraph, incidence
from .sparse import FactoredOperator, SparseMatrix

if TYPE_CHECKING:  # pragma: no cover
    from .precompute import StructureBundle

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
    """The Laplacians one forward pass reads, built once per dataset.

    The symmetric and random-walk Laplacians are not kept: :func:`sib_update`
    applies their sum through the hyperedge mean.

    :func:`build_laplacians` gives every operator as a CSR matrix and the
    star Laplacian with all n + m rows. A structure bundle keeps only the
    star Laplacian's n node rows, the only ones a forward pass reads, and
    may hold the clique-pattern operators in factored form.
    """

    smoothing: SparseMatrix | FactoredOperator    # D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}
    clique: SparseMatrix | FactoredOperator       # D - A of the clique expansion
    star: SparseMatrix                            # D - A of the star expansion
    hypergcn: SparseMatrix                        # D - A of the distance-pair expansion


def build_laplacians(
    hg: Hypergraph,
    clique: Graph,
    star_graph: Graph,
    hyper: Graph,
    given: Mapping[str, SparseMatrix | FactoredOperator] | None = None,
) -> LaplacianSet:
    """Every operator as one CSR matrix, except those given in ``given``.

    ``given`` may map ``smoothing``, ``clique`` and ``star`` to another form
    of that operator, which is used as given and whose CSR reference is
    never built; other keys are ignored. The structure bundle gives the
    factored forms it chose, the clique Laplacian valued on H H^T's pattern
    and the star Laplacian's n node rows. Without it, this is the CSR
    reference for every operator, and the star Laplacian has all n + m rows.
    """
    given = given or {}
    return LaplacianSet(
        smoothing=given.get("smoothing") or laplacian_hgnn(hg),
        clique=given.get("clique") or graph_laplacian(clique),
        star=given.get("star") or graph_laplacian(star_graph),
        hypergcn=graph_laplacian(hyper),
    )


def sib_update(
    x: Tensor | np.ndarray,
    edge_mean: Tensor | np.ndarray,
    lam: float,
    theta: Tensor | np.ndarray,
    structure: "StructureBundle",
) -> Tensor:
    """Spectral identifier block.

    Concatenates the random-walk-plus-symmetric smoothing of ``x`` with
    the smoothing-operator pass, adds it (scaled by ``lam``) onto the
    duplicated input, and applies a learned map with ReLU:

        S = [(rw + sym) x  ||  smoothing x]          (n, 2d)
        out = ReLU(([x || x] + lam * S) theta)

    With ``edge_mean`` = D_e^{-1} H^T x, which the star view reads as well,
    (rw + sym) x is 2x - D_v^{-1} H edge_mean - smoothing x, where D_v^{-1} H
    is D_v^{-1/2} (H^T D_v^{-1/2})^T. ``theta`` maps 2d columns to the output width.
    """
    smoothed = matmul(structure.laplacians.smoothing, x)
    inv_sqrt_deg = 1.0 / np.sqrt(structure.hypergraph.node_degrees)
    walked = mul(matmul(structure.edge_from_node.T, edge_mean), inv_sqrt_deg[:, None])
    identifiers = concat_cols(sub(sub(scale(x, 2.0), walked), smoothed), smoothed)
    mixed = concat_cols(x, x) + scale(identifiers, lam)
    return relu(matmul(mixed, theta))
