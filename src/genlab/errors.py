"""Shared exception types, mapped to CLI exit codes by the harness."""

from __future__ import annotations


class GenlabError(Exception):
    """Base class for workbench-specific failures."""


class InvalidConfig(GenlabError, ValueError):
    """Malformed input or parameters (CLI exit code 2)."""


class PrecisionExhausted(GenlabError):
    """Escalation hit the hard precision cap (CLI exit code 3)."""

    def __init__(self, message: str, required_bits: int):
        super().__init__(message)
        self.required_bits = required_bits


class BudgetExceeded(GenlabError):
    """An enumeration or scale budget was exceeded (CLI exit code 4)."""


# the enumeration budget of every search that takes one, and the default of
# the CLI's --budget
DEFAULT_BUDGET = 10_000_000


class HypothesisNotMet(GenlabError):
    """An operation's mathematical precondition failed on the given input."""
