"""Exception hierarchy for the package.

Parse errors carry an optional 1-based line/column so command-line users
get positioned diagnostics.
"""


class CherryPickError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# document parsing

class ParseError(CherryPickError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = " (line %d" % line
            if column is not None:
                where += ", column %d" % column
            where += ")"
        super().__init__(message + where)


class DuplicateLabel(ParseError):
    pass


class NonBinary(ParseError):
    pass


class TripleEdge(ParseError):
    pass


class DegreeViolation(ParseError):
    pass


class Disconnected(ParseError):
    pass


class SchemaError(ParseError):
    pass


# ---------------------------------------------------------------------------
# trees and forests

class UnknownLabel(CherryPickError):
    pass


class EmptyRestriction(CherryPickError):
    pass


class InvalidEdgeRef(CherryPickError):
    pass


class NotACherry(CherryPickError):
    pass


# ---------------------------------------------------------------------------
# networks

class TooSmall(CherryPickError):
    pass


class UnsupportedConfiguration(CherryPickError):
    pass


class NotABlobEdge(CherryPickError):
    pass


class NotPendantBlob(CherryPickError):
    pass


class TooManyLeaves(CherryPickError):
    pass


# ---------------------------------------------------------------------------
# cherry picking calculus

class GroundSetMismatch(CherryPickError):
    pass


class InapplicableStep(CherryPickError):
    pass


class InvalidTrace(CherryPickError):
    """Base of the faults of a trace that does not replay on the given
    forests: a step that fails (``ReplayError``) or a wrong terminal."""


class ReplayError(InvalidTrace):
    def __init__(self, step_index, reason):
        self.step_index = step_index
        self.reason = reason
        super().__init__("step %d: %s" % (step_index, reason))


class BadTerminal(InvalidTrace):
    pass


# ---------------------------------------------------------------------------
# oracles

class CapExceeded(CherryPickError):
    pass


class ScaleGuard(CherryPickError):
    pass


class NotATree(CherryPickError):
    pass


# ---------------------------------------------------------------------------
# network building

class ImageTrackingError(CherryPickError):
    """An image path required by the reverse replay is missing or not
    disjoint.  Indicates an internal bug, never a user error."""
