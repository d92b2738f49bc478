"""Exceptions shared across the analytic and simulation modules, and the
argument contract every entry point checks.  A refusal is one of three kinds:

* a bad argument is a ValueError from count() or positive(), naming it: a
  count (a state, an order, a seed) is what operator.index accepts, an
  int, a numpy integer or a bool, and a rate or a tolerance lies in (0, inf);
* a model out of regime is an OutOfRegimeError;
* an unconverged truncation ladder is an UnconvergedError.
"""

import math
import operator


class OutOfRegimeError(ValueError):
    """Model parameters fall outside the regime an analytic routine supports,
    or outside what its numerics can represent (the subclasses in linsys and
    distributions).  The command line exits 2 on this class alone."""


class UnconvergedError(RuntimeError):
    """A routine that requires a converged solution received an unconverged one."""


class InsufficientDataError(ValueError):
    """A statistic was requested from fewer records than it needs."""


def count(n, what: str, least=None) -> int:
    """n as an int, refused unless it is an integer of at least least (any
    integer when least is None)."""
    k = operator.index(n) if hasattr(type(n), "__index__") else None
    if k is None or least is not None and k < least:
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{what} must be an integer{bound}, got {n!r}")
    return k


def positive(x, what: str):
    """x unchanged, refused unless 0 < x < inf (NaN and None fail both)."""
    try:
        bad = ("positive" if not x > 0 else
               "finite" if not x < math.inf else None)
    except TypeError:  # no order against numbers
        bad = "positive"
    if bad:
        raise ValueError(f"{what} must be {bad}, got {x!r}")
    return x
