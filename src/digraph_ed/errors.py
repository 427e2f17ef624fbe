"""Exception types shared across the package, and its one integer reader.

Every error raised on purpose by this package derives from DigraphEdError,
so callers (notably the CLI) can separate expected failures from bugs.
Every count, index and size the package takes is read by :func:`integer`,
and a refused value is named in its message by :func:`shown`.
"""

import reprlib
from operator import index


class DigraphEdError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(DigraphEdError, ValueError):
    """A directed graph violates a structural invariant."""


class SelfLoopError(GraphError):
    """Edge (a, a): self-loops are never allowed."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class DuplicateEdgeError(GraphError):
    """The same ordered edge (a, b) appears more than once."""

    def __init__(self, a: int, b: int):
        self.edge = (a, b)
        super().__init__(f"duplicate edge ({a}, {b})")


class AntiparallelPairError(GraphError):
    """Both (a, b) and (b, a) are present; rejected under the default policy."""

    def __init__(self, a: int, b: int, remedy: str = "pass allow_antiparallel=True"):
        self.pair = (a, b)
        super().__init__(
            f"antiparallel pair ({a}, {b}) / ({b}, {a}); "
            f"{remedy} to admit it (its two gates act as one "
            "double-angle gate: factor cos(2 theta) per pair)"
        )


class IndexOutOfRangeError(DigraphEdError, IndexError):
    """A vertex, qubit, or edge index is not an integer in its valid range."""


class NotABijectionError(GraphError):
    """The supplied vertex relabeling is not a permutation of 0..M-1."""


class UnsupportedKindError(DigraphEdError, ValueError):
    """Unknown graph-generator kind."""


class BadParamsError(DigraphEdError, ValueError):
    """Generator or gate parameters are missing, extraneous, or out of range."""


class NotNormalizedError(DigraphEdError, ValueError):
    """State amplitudes do not have unit norm within tolerance."""


class CapacityError(DigraphEdError):
    """Requested qubit count exceeds the configured cap."""

    def __init__(self, M: int, cap: int):
        self.M = M
        self.cap = cap
        super().__init__(f"M={shown(M)} qubits exceeds the cap of {cap}")


class EdgeBoundError(CapacityError):
    """A generator could make more edges than the configured bound."""

    def __init__(self, kind: str, M: int, edges: int, bound: int):
        self.M = M
        self.cap = bound
        # past 2^64 the count is named by its power of two, not written out in decimal
        count = edges if edges >> 64 == 0 else f"at least 2^{edges.bit_length() - 1}"
        text = f"{kind} at M={shown(M)} makes up to {count} edges, over the gen bound of {bound}"
        DigraphEdError.__init__(self, text)


class NegativeEigenvalueError(DigraphEdError, ValueError):
    """A density matrix has an eigenvalue below -1e-10."""


class BadGridError(DigraphEdError, ValueError):
    """Sweep grid size is too small."""


class ParseError(DigraphEdError, ValueError):
    """A graph file does not match the JSON schema."""


def integer(value, what: str, error: type[Exception]) -> int:
    """``value`` as a Python int, else ``error`` naming it: a bool or a value
    without ``__index__`` (which numpy integers have) is no integer."""
    try:
        if not isinstance(value, bool):
            return index(value)
    except TypeError:
        pass
    raise error(f"{what} must be an integer, got {shown(value)}")


#: :func:`shown` cuts a longer text; its reprlib stops after 16 items of a list or tuple.
_SHOWN_CHARS = 80
_REPR = reprlib.Repr()
_REPR.maxlist = _REPR.maxtuple = 16
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = _SHOWN_CHARS


def shown(value) -> str:
    """``repr(value)`` on one line and at most _SHOWN_CHARS long, for an error message.

    :mod:`reprlib` stops early in long containers, strings and reprs, each
    line break with its indent becomes one space, and what is still too
    long is cut, ending in ``...``.
    """
    text = " ".join(line.strip() for line in _REPR.repr(value).splitlines())
    if len(text) > _SHOWN_CHARS:
        text = text[: _SHOWN_CHARS - 3] + "..."
    return text
