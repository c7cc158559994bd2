"""Exception hierarchy shared across the package."""


class CovlatError(Exception):
    """Base class for all library errors.

    ``exit_code`` is the command-line exit code the error ends a run with:
    2, an input error, unless a subclass says otherwise.
    """

    exit_code = 2


class BaseMismatchError(CovlatError):
    """An operation mixed subsets or elements of different base sets."""


class CapExceededError(CovlatError):
    """An enumeration-heavy operation was asked to run past its size cap."""

    exit_code = 3

    def __init__(self, what, size, cap):
        super().__init__(f"{what}: base size {size} exceeds cap {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class InputError(CovlatError):
    """Malformed or inconsistent on-disk data."""


class MorphismValidationError(CovlatError):
    """A relation failed cover-respect validation; carries the verdict."""

    def __init__(self, verdict):
        super().__init__(f"relation does not respect the covers: {verdict.witness}")
        self.verdict = verdict


class CompositionDefectError(CovlatError):
    """A construction that holds by proof failed its re-verification: the
    composite of two validated morphisms, the corrected initial interior
    table, or the axioms of the initial closure table.

    This indicates a library defect, not bad input; it is raised rather
    than silently swallowed so it can be reported.
    """


class PartialTableError(CovlatError):
    """An operator table does not cover every subobject."""


class MixedParentError(CovlatError):
    """Operator tables in one operation do not fit together: they belong to
    different parent covers, or mix closure and interior tables."""


class LiftFailureError(CovlatError):
    """An initial lift does not exist for this input: ``witness`` is the
    carrier at fault, named in each subclass's ``message``."""

    exit_code = 1
    message: str

    def __init__(self, witness):
        super().__init__(self.message.format(witness.sorted_members()))
        self.witness = witness


class ExtensionFailureError(LiftFailureError):
    """Initial closure construction failed: the relation is not left-total.

    The extension axiom of the derived table would be violated at
    ``witness`` (a carrier not contained in its round-trip image).
    """

    message = "extension failure at carrier {}"


class InitialContinuityDefectError(LiftFailureError):
    """The initial closure table is not continuity-inducing for this relation.

    For genuinely relational (non-functional) morphisms the derived table
    can fail the image-continuity condition even when it is a valid
    closure table.  This is reported, never silently patched.
    """

    message = "initial closure not continuous at carrier {}"


class UpperBoundFailureError(LiftFailureError):
    """Corrected initial interior failed: preimage of the full target base
    does not cover the source base, so the top-fixing axiom cannot hold."""

    message = "interior top axiom unattainable, preimage of top is {}"


class ContinuityPreconditionError(CovlatError):
    """A check requiring a continuous morphism was given a non-continuous one."""
