"""Exception taxonomy.

Two families matter to callers: InputError (malformed input, the CLI exits 1)
and DomainRefusal (well-formed input outside an operation's mathematical
domain, the CLI exits 2 and reports a structured refusal). InternalError
flags a broken internal cross-check and always indicates a bug.

The library raises InputError, also a ValueError, for every bad argument; a
bare ValueError or TypeError marks misuse between modules, not bad input.
"""


class ToricnetError(Exception):
    pass


class InputError(ToricnetError, ValueError):
    """Malformed or inconsistent user input."""


class ParseError(InputError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainRefusal(ToricnetError):
    """Structured refusal: the input is valid but outside the method's domain."""

    kind = "DomainRefusal"

    def payload(self) -> dict:
        return {"kind": self.kind, "detail": str(self)}


class DeficiencyNonzero(DomainRefusal):
    kind = "DeficiencyNonzero"

    def __init__(self, deficiency: int):
        self.deficiency = deficiency
        super().__init__(f"network has deficiency {deficiency}, need 0")

    def payload(self) -> dict:
        d = super().payload()
        d["deficiency"] = self.deficiency
        return d


class NotWeaklyReversible(DomainRefusal):
    kind = "NotWeaklyReversible"


class NotComplexBalanced(DomainRefusal):
    kind = "NotComplexBalanced"

    def __init__(self, detail: str, residual: float | None = None):
        self.residual = residual
        super().__init__(detail)

    def payload(self) -> dict:
        d = super().payload()
        if self.residual is not None:
            d["residual"] = self.residual
        return d


class NonSmooth(DomainRefusal):
    kind = "NonSmooth"

    def __init__(self, divisors: list[int]):
        self.divisors = list(divisors)
        super().__init__(f"edge lattice has elementary divisors {self.divisors}, need all 1")

    def payload(self) -> dict:
        d = super().payload()
        d["divisors"] = self.divisors
        return d


class InternalError(ToricnetError):
    """An internal consistency cross-check failed; this is a bug, not bad input."""
