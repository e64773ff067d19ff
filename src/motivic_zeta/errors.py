"""Exception hierarchy shared by all modules, and charge, which raises
every ResourceError before the work it charges (README's Budgets lists
the kinds).  The CLI turns each error into an envelope status and exit
code: ResourceError -> resource_error, 2; NumericError -> numeric_error,
3; PreconditionError -> precondition_error, 1; any other
MotivicZetaError, usage mistakes and unreadable --in or --out files
included -> validation_error, 1.
"""

import json
import os
import sys

DEFAULT_BUDGET = 10_000_000
OUTPUT_DIGITS = "digits of an output integer"


class MotivicZetaError(Exception):
    """Base class for all library errors."""


class ValidationError(MotivicZetaError):
    """Malformed or inadmissible input data."""


class DimensionError(ValidationError):
    """Matrix or vector dimensions do not match the operation."""


class PreconditionError(MotivicZetaError):
    """A documented operation precondition was violated."""


class NotInvertibleError(PreconditionError):
    """A matrix block that must be invertible is singular."""


class PrecisionError(PreconditionError):
    """More series coefficients were requested than are tracked."""


class ResourceError(MotivicZetaError):
    """Work that would exceed its budget; raised by charge alone."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class NumericError(MotivicZetaError):
    """A floating-point routine failed its certification check."""


class PoleError(NumericError):
    """Evaluation was requested at (or too close to) a pole."""

    def __init__(self, message, nearest_pole=None):
        super().__init__(message)
        self.nearest_pole = nearest_pole


def resolve_budget(budget: int | None) -> int:
    """The budget given, else MOTIVIC_ZETA_BUDGET, else DEFAULT_BUDGET;
    whichever it is, a budget below 0 is a ValidationError."""
    if budget is None:
        env = os.environ.get("MOTIVIC_ZETA_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = json.loads(env)
        except ValueError:
            budget = env
        if type(budget) is not int:
            raise ValidationError(f"MOTIVIC_ZETA_BUDGET must be an integer, got {budget!r}")
    if budget < 0:
        raise ValidationError(f"a budget must be >= 0, got {budget}")
    return budget


def _digits_past_limit(n: int) -> int:
    """A bound on the digits of n past the int-to-str limit (none before
    Python 3.10.7), else 0; the limit stays as set, so such n go unwritten."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    digits = n.bit_length() * 30103 // 100000 + 1  # log10(2) < 0.30103
    return digits if limit and digits > limit and abs(n) >= 10**limit else 0


def _printable(n: int) -> int:
    """n, its digits charged against the digit limit when past it."""
    digits = _digits_past_limit(n)
    if digits:
        charge(OUTPUT_DIGITS, digits, sys.get_int_max_str_digits())
    return n


def charge_digits(digits: int) -> None:
    """Charge the digits of an integer not yet made against the digit limit."""
    if hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits():
        charge(OUTPUT_DIGITS, digits, sys.get_int_max_str_digits())


def charge(what: str, required: int, budget: int | None) -> None:
    """Refuse required units of the kind what past budget (None: the user's,
    see resolve_budget) with a ResourceError naming both; a required past
    the digit limit is that limit's refusal, both reasons joined."""
    budget = resolve_budget(budget)
    if required <= budget:
        return
    # a number past the digit limit, where str would raise, as a power of 2
    texts = [f"at least 2^{n.bit_length() - 1}" if _digits_past_limit(n) else str(n) for n in (required, budget)]
    message = f"{what}: {texts[0]} exceeds the budget of {texts[1]}"
    digits = _digits_past_limit(required)
    if digits:
        required, budget = digits, sys.get_int_max_str_digits()
        message += f"; {OUTPUT_DIGITS}: {digits} exceeds the budget of {budget}"
    raise ResourceError(message, required=required, budget=budget)
