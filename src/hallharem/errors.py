"""Shared exception types."""


class HallHaremError(Exception):
    """Base class for all library errors."""


class OracleError(HallHaremError):
    """A neighborhood oracle returned inconsistent data."""


class ParseError(HallHaremError):
    """Malformed .bg input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SizeGuardError(HallHaremError):
    """Input exceeds the guard of an exhaustive operation."""


class WitnessRefuted(HallHaremError):
    """A local matching came back infeasible: the margin witness is not
    valid for this graph."""


class BallBudgetExceeded(HallHaremError):
    """Ball extraction hit the configured vertex budget."""


class EngineExhausted(HallHaremError):
    """Both sides of a finite oracle are fully matched."""


class InternalError(HallHaremError):
    """An invariant the solver relies on was broken (bug guard)."""
