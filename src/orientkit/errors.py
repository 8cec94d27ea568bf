"""Exception hierarchy shared by all orientkit modules."""


class OrientKitError(Exception):
    """Base class for all domain errors."""


class ParseError(OrientKitError, ValueError):
    """Malformed input.  ``edge`` is the index of a rejected edge; ``line`` is
    the 1-based offending line, set by whichever reader knows it."""

    def __init__(self, message, line=None, edge=None):
        super().__init__(message)
        self.line = line
        self.edge = edge

    def __str__(self):
        message = super().__str__()
        return message if self.line is None else f"line {self.line}: {message}"


class HeaderFormatError(ParseError):
    pass


class VertexRangeError(ParseError):
    pass


class SelfLoopError(ParseError):
    pass


class DuplicateEdgeError(ParseError):
    pass


class NotBipartiteError(OrientKitError):
    """Raised with an odd cycle as a vertex sequence."""

    def __init__(self, odd_cycle):
        self.odd_cycle = list(odd_cycle)
        cycle = "-".join(str(v) for v in self.odd_cycle)
        super().__init__(f"not bipartite (odd cycle {cycle})")


class TooSmallError(OrientKitError):
    pass


class EmptyEdgeSetError(OrientKitError):
    pass


class PreconditionDegreeError(OrientKitError):
    """Some X-class vertex has degree <= k."""

    def __init__(self, vertex, degree, k):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex} has degree {degree} <= k = {k}")


class PreconditionMadError(OrientKitError):
    """No k-orientation exists; carries the dense-subgraph witness H, with
    |E(G[H])| > k|H|, and names its vertices."""

    def __init__(self, k, witness):
        self.k = k
        self.witness = list(witness)
        ids = " ".join(map(str, self.witness))
        super().__init__(
            f"no {k}-orientation exists (dense subset of {len(self.witness)} vertices: {ids})"
        )


class SizeMismatchError(OrientKitError):
    pass


class IncompleteModelError(OrientKitError):
    pass


class ExceedsCapError(OrientKitError):
    pass


class PreconditionFailedError(OrientKitError):
    """A gate of proper3 or the quadrangulation decision failed; names the gate."""

    def __init__(self, gate):
        self.gate = gate
        super().__init__(f"precondition failed: {gate}")


class MinDegreeTooSmallError(PreconditionFailedError):
    """Some vertex has degree < 3; ``degree`` is the minimum degree."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__("min degree >= 3")

    def __str__(self):
        return f"{super().__str__()}, got {self.degree}"


class BadParamsError(OrientKitError, ValueError):
    pass
