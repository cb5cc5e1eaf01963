"""Exception types shared across the workbench.

Structural problems (dangling identifiers, missing table entries, wrong
tight/loose placement) raise; law violations never raise, they are reported
as failed instances in a ValidationReport.
"""


class ShortcatError(Exception):
    pass


class MalformedTable(ShortcatError):
    """A table references unknown identifiers or is not total on its domain."""


class DanglingId(MalformedTable):
    """An identifier does not belong to any table of the structure."""


class TypingViolation(MalformedTable):
    """A substitution output sits in the wrong tight/loose table."""


class AxiomFailure(ShortcatError):
    """A command that needs a structure satisfying its axioms got one that
    fails validation."""


class SearchBoundExceeded(ShortcatError):
    """An exhaustive search was refused because the input exceeds the
    configured size bound."""


class NoSolution(ShortcatError):
    """A constructed map does not exist: a defining equation's right side is
    not in the witness table that solves it, or an image is undefined or mistyped."""


class UniversalityBroken(ShortcatError):
    """A derived composite bijection failed; signals a validator bug, not a
    structure failure."""


class InconsistentVerdicts(ShortcatError):
    """Two independent routes to the same verdict disagree; signals an
    implementation bug."""


class AxiomTransferFailure(ShortcatError):
    """A morphism rebuilt by an inverse transport fails its validator: the
    row is "full commutation" and the detail the first failing instance."""

    def __init__(self, row: str, detail: str = ""):
        self.row = row
        super().__init__(f"axiom transfer failed at row: {row}" + (f" ({detail})" if detail else ""))


class NoIsomorphismFound(ShortcatError):
    """A roundtrip comparison could not match the reconstructed structure."""


class ParseError(ShortcatError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnknownKind(ParseError):
    pass


class VersionMismatch(ParseError):
    pass


class UnknownGenerator(ShortcatError):
    pass
