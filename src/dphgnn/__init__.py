"""Hypergraph representation learning with spectral and attention channels.

The package covers the full loop: hypergraph containers and expansions,
Laplacian operators, a small reverse-mode autodiff engine, the dual-path
model plus a spectral-convolution baseline, a color-refinement
isomorphism test, synthetic dataset generators, and a training CLI.
"""

from .errors import (
    DphgnnError,
    DivergenceError,
    DuplicateMemberError,
    EmptyEdgeError,
    EmptyMaskError,
    GraphConsumedError,
    InfeasibleSpecError,
    IsolatedNodeError,
    MaskOverlapError,
    NodeIdOutOfRangeError,
    NoEdgesError,
    NonScalarLossError,
    ParseError,
    ShapeMismatchError,
    TooLargeError,
)
from .hypergraph import (
    Hypergraph,
    LabeledHypergraph,
    build_hypergraph,
    density_stats,
    ensure_min_degree,
    incidence,
    load_dataset,
    relabel_nodes,
    save_dataset,
)
from .sparse import SparseMatrix
from .expand import Graph, clique_expand, hypergcn_expand, star_expand
from .spectral import (
    LaplacianSet,
    build_laplacians,
    graph_laplacian,
    laplacian_hgnn,
    laplacian_rw,
    laplacian_sym,
    sib_update,
)
from .autodiff import Tensor, backward, grad_check, no_grad
from .attention import TaaParams, UpdateVariant, cross_attention, single_layer_update, taa_forward
from .model import (
    AblationFlags,
    DphgnnParams,
    ForwardTrace,
    HgnnParams,
    Mode,
    dphgnn_forward,
    hgnn_baseline_forward,
    init_dphgnn,
    init_hgnn,
)
from .gwl import GwlVerdict, Verdict, brute_force_isomorphic, gwl_test, refine_to_stable
from .metrics import MetricsResult, metrics, predictions_from_logits
from .synthetic import generate_synthetic, parse_generator_spec
from .train import ModuleConfig, RunConfig, TrainReport, evaluate, train
from .experiments import IsoPoolSpec, build_iso_pool, iso_experiment, run_ablation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DphgnnError",
    "DivergenceError",
    "DuplicateMemberError",
    "EmptyEdgeError",
    "EmptyMaskError",
    "GraphConsumedError",
    "InfeasibleSpecError",
    "IsolatedNodeError",
    "MaskOverlapError",
    "NodeIdOutOfRangeError",
    "NoEdgesError",
    "NonScalarLossError",
    "ParseError",
    "ShapeMismatchError",
    "TooLargeError",
    # structures
    "Hypergraph",
    "LabeledHypergraph",
    "SparseMatrix",
    "Graph",
    "build_hypergraph",
    "incidence",
    "density_stats",
    "relabel_nodes",
    "ensure_min_degree",
    "save_dataset",
    "load_dataset",
    "clique_expand",
    "star_expand",
    "hypergcn_expand",
    # spectral
    "LaplacianSet",
    "build_laplacians",
    "laplacian_hgnn",
    "laplacian_sym",
    "laplacian_rw",
    "graph_laplacian",
    "sib_update",
    # autodiff / model
    "Tensor",
    "backward",
    "grad_check",
    "no_grad",
    "TaaParams",
    "UpdateVariant",
    "single_layer_update",
    "cross_attention",
    "taa_forward",
    "AblationFlags",
    "DphgnnParams",
    "HgnnParams",
    "ForwardTrace",
    "Mode",
    "init_dphgnn",
    "init_hgnn",
    "dphgnn_forward",
    "hgnn_baseline_forward",
    # isomorphism
    "Verdict",
    "GwlVerdict",
    "gwl_test",
    "refine_to_stable",
    "brute_force_isomorphic",
    # data and training
    "MetricsResult",
    "metrics",
    "predictions_from_logits",
    "generate_synthetic",
    "parse_generator_spec",
    "ModuleConfig",
    "RunConfig",
    "TrainReport",
    "train",
    "evaluate",
    "IsoPoolSpec",
    "build_iso_pool",
    "iso_experiment",
    "run_ablation",
]
