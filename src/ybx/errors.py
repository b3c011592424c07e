"""Structured exceptions shared across the package."""

from __future__ import annotations


class YbxError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(YbxError):
    """Malformed scalar, polynomial or input file, or a file that cannot be read or written."""


class DimensionMismatch(YbxError):
    """Operands have incompatible shapes; carries both shapes."""

    def __init__(self, op: str, left: tuple[int, int], right: tuple[int, int]):
        self.op = op
        self.left = left
        self.right = right
        super().__init__(f"{op}: incompatible shapes {left[0]}x{left[1]} and {right[0]}x{right[1]}")


class NotSquare(DimensionMismatch):
    """An operation that needs a square matrix got another shape."""

    def __init__(self, op: str, shape: tuple[int, int]):
        self.op = op
        self.left = self.right = shape
        YbxError.__init__(self, f"{op}: needs a square matrix, got {shape[0]}x{shape[1]}")


class SingularMatrix(YbxError):
    """Inversion of a rank-deficient matrix; carries the rank found."""

    def __init__(self, rank: int, size: int, what: str = "matrix"):
        self.rank = rank
        self.size = size
        super().__init__(f"{what} is singular: rank {rank} < {size}")


class SimilarityMismatch(YbxError):
    """A*W differs from W*J; carries the first differing entry position."""

    def __init__(self, position: tuple[int, int]):
        self.position = position
        super().__init__(f"similarity check failed: A*W != W*J first differs at entry {position}")


class NotAnEigenvalue(YbxError):
    """A claimed eigenvalue is not a root of the characteristic polynomial."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"{value} is not an eigenvalue (matrix minus value*I is invertible)")


class IncompleteSpectrum(YbxError):
    """The supplied eigenvalue list does not account for the whole space."""

    def __init__(self, covered: int, size: int):
        self.covered = covered
        self.size = size
        super().__init__(
            f"supplied eigenvalues cover a generalized eigenspace of dimension {covered} < {size}"
        )


class MissingParameter(YbxError):
    """A sample request left free parameters unassigned."""

    def __init__(self, names):
        self.names = tuple(names)
        super().__init__(f"missing values for parameters: {', '.join(self.names)}")


class DisequalityViolated(YbxError):
    """An assignment hits a branch side condition that must stay nonzero."""

    def __init__(self, condition: str):
        self.condition = condition
        super().__init__(f"side condition violated: {condition} must be nonzero")


class ResidualNonzero(YbxError):
    """A claimed solution leaves a nonzero residual."""

    def __init__(self, which: str, position: tuple[int, int] | None = None):
        self.which = which
        self.position = position
        at = f" at entry {position}" if position is not None else ""
        super().__init__(f"{which} residual is nonzero{at}")


class GridTooLarge(YbxError):
    """Grid enumeration refused: the coordinate grid is too big."""

    def __init__(self, dimension: int, count: int):
        self.dimension = dimension
        self.count = count
        super().__init__(
            f"grid enumeration refused: {count} candidate points over {dimension} coordinates"
        )
