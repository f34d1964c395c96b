"""Exception types shared across the package."""


class DphgnnError(Exception):
    """Base class for all errors raised by this package."""


class EmptyEdgeError(DphgnnError):
    """A hyperedge with no members was supplied."""


class NodeIdOutOfRangeError(DphgnnError):
    """An edge refers to a node id outside [0, num_nodes)."""


class DuplicateMemberError(DphgnnError):
    """A hyperedge lists the same node more than once."""


class NoEdgesError(DphgnnError):
    """An operation that needs at least one hyperedge got none."""


class IsolatedNodeError(DphgnnError):
    """A node belongs to no hyperedge, so degree normalization is undefined."""


class ParseError(DphgnnError):
    """A dataset or config file is malformed."""


class ShapeMismatchError(DphgnnError):
    """Array dimensions do not line up."""


class MaskOverlapError(DphgnnError):
    """Train/val/test masks are not pairwise disjoint."""


class EmptyMaskError(DphgnnError):
    """A metric or loss was requested over an empty node mask."""


class NonScalarLossError(DphgnnError):
    """backward() was called on a non-scalar value."""


class GraphConsumedError(DphgnnError):
    """backward() reached an op whose graph an earlier backward already freed."""


class InfeasibleSpecError(DphgnnError):
    """A generator spec cannot be satisfied (e.g. edge size > num_nodes)."""


class TooLargeError(DphgnnError):
    """An exhaustive search was requested on an instance above its size cap."""


class DivergenceError(DphgnnError):
    """Training produced a non-finite loss."""
