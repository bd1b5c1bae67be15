"""Exception types shared across strandkit modules."""


class StrandkitError(Exception):
    pass


class InputError(StrandkitError):
    """An input file that does not parse as a graph or a representation."""


# graph structure / embeddings
class GraphNotConnected(StrandkitError):
    pass


class InconsistentRotation(StrandkitError):
    pass


class NotOuterplanar(StrandkitError):
    pass


class NotBiconnected(StrandkitError):
    pass


class NotPartialTwoTree(StrandkitError):
    pass


class NotTwoTree(StrandkitError):
    pass


class TooSmall(StrandkitError):
    pass


# exact geometry
class DegenerateSegment(StrandkitError):
    pass


class InvalidCurve(StrandkitError):
    pass


class TouchingPoint(StrandkitError):
    """Two curves meet at a point without the u,v,u,v alternation."""


class TripleIntersection(StrandkitError):
    pass


class CurveOverlap(StrandkitError):
    pass


class EndpointOnCurve(StrandkitError):
    pass


class MissingWitness(StrandkitError):
    pass


# constructors
class ParameterCollision(StrandkitError):
    pass


class NonDiagonalSegment(StrandkitError):
    pass


# oracle
class InvalidBreak(StrandkitError):
    pass


class BudgetZero(StrandkitError):
    pass
