"""Exception types shared across the package."""


class LaxcatError(Exception):
    """Base class for all package errors."""


class MalformedTable(LaxcatError):
    """Structurally broken category data: duplicate ids, missing composites."""


class InvalidMarking(LaxcatError):
    """A marking that is not iso-containing or not closed under composition."""


class UnknownObject(LaxcatError):
    pass


class UnknownMorphism(LaxcatError):
    pass


class SizeBoundExceeded(LaxcatError):
    """A derived category grew past the configured object/morphism caps."""

    def __init__(self, what: str, kind: str, count: int, cap: int):
        super().__init__(f"{what}: {kind} count {count} exceeds cap {cap}")
        self.what = what
        self.kind = kind
        self.count = count
        self.cap = cap


class InvalidDiagram(LaxcatError):
    """Strict functoriality failure in a Cat- or Set-valued diagram."""


class SearchBudgetExceeded(LaxcatError):
    """Isomorphism search exhausted its backtracking-node budget."""

    def __init__(self, budget: int):
        super().__init__(f"search budget of {budget} nodes exhausted")
        self.budget = budget


class GenerationExhausted(LaxcatError):
    """Random diagram generation failed within its retry budget."""


class InvariantViolation(LaxcatError):
    """An internal invariant failed: a program bug, never a verdict."""


# a run that raises one of these stopped at a resource bound: a skip, never
# a verdict and never invalid input
BOUND_ERRORS = (SizeBoundExceeded, SearchBudgetExceeded, GenerationExhausted)
