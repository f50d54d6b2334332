"""Exception types shared across the package.

Construction helpers raise; validators never raise for law failures, they
return reports (see report.py). Every exception carries enough of a witness
to reproduce the problem by hand.
"""

from __future__ import annotations


class XmodcatError(Exception):
    """Base class for all package errors."""


class MalformedTable(XmodcatError):
    """A multiplication/composition table has the wrong shape or entries."""


class NoIdentity(XmodcatError):
    """The claimed identity index does not act as a two-sided unit."""


class NonAssociative(XmodcatError):
    def __init__(self, a: int, b: int, c: int, msg: str = ""):
        self.witness = (a, b, c)
        super().__init__(msg or f"associativity fails at {(a, b, c)}")


class MissingInverse(XmodcatError):
    def __init__(self, a: int, msg: str = ""):
        self.witness = a
        super().__init__(msg or f"element {a} has no inverse")


class ComponentInvalid(XmodcatError):
    """A compound structure was built from parts that fail their own laws."""


class SpaceNotAbelian(XmodcatError):
    """Trivial-boundary crossed modules need an abelian acted-on group."""

    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"elements {a} and {b} do not commute")


class BudgetExceeded(XmodcatError):
    """An enumeration walked past its configured candidate budget."""


class NotComposable(XmodcatError):
    """Composition was requested for a non-matching pair."""


class MixedStructures(XmodcatError):
    """Operands belong to different ambient structures."""


class TypeMismatch(XmodcatError):
    """A table entry has the wrong source or target."""


class IdentityLawViolation(XmodcatError):
    """An identity morphism fails a unit law."""


class BoundaryViolation(XmodcatError):
    """A square's face does not match its edge boundary word."""

    def __init__(self, msg: str, witness: tuple | None = None):
        self.witness = witness
        super().__init__(msg)


class NotAdjacent(XmodcatError):
    """Squares were pasted along edges that do not agree."""


class InvalidAction(XmodcatError):
    """An action failed validation where a valid one is required."""


class UsageError(XmodcatError):
    """Command-line arguments that cannot be acted on."""
