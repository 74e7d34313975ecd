"""Structured exceptions shared across the package.

Every failure mode that callers are expected to handle gets its own class
here. Bad input derives from InputError, so that tests and the command
line tool can tell it from genuine mathematical failure by its type.
"""


class FalgError(Exception):
    """Base class for all library errors."""


class InputError(FalgError):
    """Input the caller must fix; the command line exits 2.

    Every other FalgError is a failed verification, and the command
    line exits 1 on it.
    """


class DivisionByZero(FalgError):
    """Division of a rational function by zero."""


class NotDivisible(FalgError):
    """Exact polynomial division requested where none exists."""


class DegreeOverflow(FalgError):
    """A polynomial would pass the total degree ``ring.MAX_DEGREE``."""


class CoefficientOverflow(FalgError):
    """A coefficient has more digits than ``sys.get_int_max_str_digits()`` lets Python write."""


class ExprSyntaxError(InputError):
    """Malformed expression text.

    Carries the character position of the failure and a short
    description of what was expected there.
    """

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}")


class UnknownVariable(InputError):
    """Expression references a variable not in scope."""

    def __init__(self, name: str, position: int = -1):
        self.name = name
        self.position = position
        super().__init__(f"unknown variable {name!r}")


class SchemaError(InputError):
    """Structure document violates the input schema."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class ShapeError(InputError):
    """Tensor or matrix has inconsistent dimensions."""


class NotInvertible(FalgError):
    """A section or matrix that must be invertible is singular."""


class NotAHomomorphism(FalgError):
    """Action maps fail to respect the bracket."""


class UnknownFixture(InputError):
    """Fixture name not recognized."""


class NotFManifoldAlgebra(FalgError):
    """Algebra fails the structure check required by an action construction."""


class NotEventual(FalgError):
    """Candidate section fails the eventual-identity relation."""

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"not an eventual identity: {witness}")


class NotNijenhuis(FalgError):
    """Bundle map fails the torsion identity for the requested mode."""

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"not a Nijenhuis operator: {witness}")


class NotADeformation(FalgError):
    """Formal deformation fails its order-by-order conditions."""


class BaseNotPoint(FalgError):
    """Operation requires an algebra over a point (no base variables)."""


class NotCompatible(InputError):
    """Recursion data fails its cross-derivative compatibility test."""


class NonPolynomialAntiderivative(FalgError):
    """Hierarchy recursion produced a non-polynomial primitive."""


class NotFlat(FalgError):
    """Proposed flat basis is not flat for the given connection."""


class NotTangent(InputError):
    """Operation requires the tangent algebroid presentation."""


class ObstructionNonzero(FalgError):
    """Deformation cannot be extended: the obstruction does not vanish."""

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"nonzero obstruction: {witness}")


class JetOrderOverflow(FalgError):
    """Total x-derivative would exceed the supported jet order."""


class MissingStructure(InputError):
    """Presentation lacks a tensor required by the requested operation."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing structure: {name}")
