"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all graph and algorithm errors."""


class InvalidNode(GraphError):
    pass


class InvalidParams(GraphError):
    pass


class DuplicateInsert(GraphError):
    pass


class MissingEdge(GraphError):
    pass


class Unreachable(GraphError):
    pass


class InconsistentState(GraphError):
    """A dynamic state does not match the graph it claims to describe."""


class DeletionInIncrementalMode(GraphError):
    """Incremental updates accept only insertions and weight decreases."""


class ParseError(GraphError):
    pass


class NonPositiveWeight(ParseError):
    pass


class NotEnoughEdges(GraphError):
    pass
