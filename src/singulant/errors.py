"""Exception types and the computation budget.

The error classes split failures into the four categories the command line
maps to exit codes: structural misuse and unsupported input, mathematical
precondition failures, parse errors, and resource exhaustion.  Resources
are bounded by ``budget_scope``: one Budget for all the Groebner work of a
block, such as one command.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
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
    salvage (for resolutions, the differentials built so far).  ``scope`` is
    the Meter of the ``budget_scope`` whose step limit ran out, and None for
    degree and other limits and for unscoped calls.
    """

    def __init__(self, message: str, partial=None, scope=None):
        super().__init__(message)
        self.partial = partial
        self.scope = scope

    def escapes(self, meter=None) -> bool:
        """Did the step limit of a scope other than ``meter`` run out?  A
        caller that degrades on exhaustion must then re-raise: an enclosing
        scope's limit stays spent."""
        return self.scope is not None and self.scope is not meter


@dataclass(frozen=True)
class Budget:
    """Limits of one budget scope, usually a whole command.

    max_degree bounds the total degree of any term produced during
    reduction; max_steps bounds the reduction steps of all buchberger,
    syzygies, normal_form and trim_generators calls in the scope together.
    Outside any scope each such call gets a DEFAULT_BUDGET of its own.
    """

    max_degree: int = 24
    max_steps: int = 1_000_000


DEFAULT_BUDGET = Budget()


class Meter:
    """Mutable step counter checked against an immutable Budget.

    A scope's Meter passes each step on to the enclosing scope's, and its
    degree limit is the smaller of the two: a nested scope only tightens.
    """

    __slots__ = ("budget", "steps", "parent", "max_degree", "scoped")

    def __init__(self, budget: Budget | None = None, parent=None, scoped=False):
        self.budget = budget or DEFAULT_BUDGET
        self.steps = 0
        self.parent = parent
        limit = self.budget.max_degree
        self.max_degree = limit if parent is None else min(limit, parent.max_degree)
        self.scoped = scoped

    def step(self):
        self.steps += 1
        if self.steps > self.budget.max_steps:
            raise BudgetExceededError(
                f"step budget exhausted ({self.budget.max_steps} reduction steps)",
                scope=self if self.scoped else None,
            )
        if self.parent is not None:
            self.parent.step()

    def check_degree(self, degree: int):
        if degree > self.max_degree:
            raise BudgetExceededError(
                f"degree budget exhausted (term of degree {degree} exceeds "
                f"{self.max_degree})"
            )


_ACTIVE: ContextVar["Meter | None"] = ContextVar("singulant_budget_scope", default=None)


@contextmanager
def budget_scope(budget: Budget | None = None):
    """Count every Groebner computation inside the block against ``budget``.

    Yields the scope's Meter.  A step taken in a nested scope counts
    against every enclosing scope too, so it can cap a part of the work
    but never extend the whole.
    """
    meter = Meter(budget, _ACTIVE.get(), scoped=True)
    token = _ACTIVE.set(meter)
    try:
        yield meter
    finally:
        _ACTIVE.reset(token)


def active_meter() -> Meter:
    """The innermost scope's Meter, or a fresh default one outside any scope."""
    meter = _ACTIVE.get()
    return meter if meter is not None else Meter()
