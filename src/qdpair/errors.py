"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should
raise the most specific type that applies rather than bare ValueError.
"""

import functools
import math
import numbers
import operator


class ContractError(ValueError):
    """An argument violates a documented precondition of an operation."""


class ConfigError(ValueError):
    """A configuration file or dictionary is malformed or inconsistent."""


class ModelDomainError(ValueError):
    """Parameters are syntactically valid but outside the physical model's domain."""


class NumericalError(RuntimeError):
    """An iterative or quadrature routine failed to converge to tolerance."""


class ReconstructionError(ModelDomainError):
    """A measurement record cannot identify a state (not informationally complete)."""


@functools.lru_cache(maxsize=None)
def _interval(spec: str, kind: type) -> tuple:
    """(None allowed, integer, failure of the type or None, membership test,
    name) of a spec for a value of type ``kind``; cached, as ABC checks are slow."""
    integer = spec.startswith("int ")
    bounds = spec.removeprefix("int ").removesuffix(" or None")
    lo, hi = (float(x) for x in bounds[1:-1].split(","))
    above = operator.lt if bounds[0] == "(" else operator.le
    below = operator.lt if bounds[-1] == ")" else operator.le
    number = kind is not bool and issubclass(
        kind, numbers.Integral if integer else numbers.Real)
    return (spec.endswith(" or None"), integer,
            None if number else "an integer" if integer else "a number",
            lambda x: above(lo, x) and below(x, hi),
            {"(0, inf)": "positive", "[0, inf)": "non-negative"}.get(
                bounds, f"in {bounds}"))


def check_ranges(error: type, intervals: dict, /, **values) -> None:
    """Raise ``error`` naming the first field of ``intervals`` whose value
    is not a finite real number in its interval, written as "[0, 0.5)" or
    "(0, inf)".  A leading "int " asks for an integer, compared with the
    bounds as a Python int so that no numpy integer is rounded, and a trailing
    " or None" lets None through; a bool is not a number.  The message is
    "<name> must be <a number | an integer | finite | in the interval>",
    with "(0, inf)" named "positive" and "[0, inf)" "non-negative"."""
    for name, spec in intervals.items():
        value = values[name]
        optional, integer, wrong_kind, inside, named = _interval(spec, type(value))
        if value is None and optional:
            continue
        if wrong_kind:
            named = wrong_kind
        elif not (integer or math.isfinite(value)):
            named = "finite"
        elif inside(int(value) if integer else value):
            continue
        raise error(f"{name} must be {named}")
