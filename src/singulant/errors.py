"""Exception types and the shared computation budget.

The error classes split failures into the four categories the command line
maps to exit codes: structural misuse and unsupported input, mathematical
precondition failures, parse errors, and resource exhaustion.
"""
from __future__ import annotations

from dataclasses import dataclass


class SingulantError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(SingulantError, ValueError):
    """Mismatched ambients, bad shapes, out-of-range indices."""


class UnsupportedInputError(SingulantError, ValueError):
    """Input outside the supported fragment (e.g. non-monomial primes)."""


class PreconditionError(SingulantError, ValueError):
    """A mathematical precondition of an operation does not hold."""


class ParseError(SingulantError, ValueError):
    """Malformed ring/ideal/module text.  Carries a 1-based position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class BudgetExceededError(SingulantError, RuntimeError):
    """Degree or reduction-step budget exhausted.

    ``partial`` holds whatever partial result the aborted computation could
    salvage (for resolutions, the differentials built so far).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Budget:
    """Limits applied to each Groebner computation separately.

    max_degree bounds the total degree of any term produced during
    reduction; max_steps bounds the number of reduction steps.  Each
    buchberger, syzygies or normal_form call, and each trim_generators
    call, counts its own steps, so a command that runs many of them may
    take many times max_steps steps in all.
    """

    max_degree: int = 24
    max_steps: int = 1_000_000


DEFAULT_BUDGET = Budget()


class Meter:
    """Mutable step counter checked against an immutable Budget."""

    __slots__ = ("budget", "steps")

    def __init__(self, budget: Budget | None = None):
        self.budget = budget or DEFAULT_BUDGET
        self.steps = 0

    def step(self, note: str = "reduction"):
        self.steps += 1
        if self.steps > self.budget.max_steps:
            raise BudgetExceededError(
                f"step budget exhausted ({self.budget.max_steps} {note} steps)"
            )

    def check_degree(self, degree: int):
        if degree > self.budget.max_degree:
            raise BudgetExceededError(
                f"degree budget exhausted (term of degree {degree} exceeds "
                f"{self.budget.max_degree})"
            )
