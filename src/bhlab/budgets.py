"""Enumeration budgets and the refusal exceptions.

Every brute-force enumeration in the library is guarded by a budget so a
typo'd parameter fails fast instead of running for hours.  check() applies
BHLAB_BUDGET (a positive integer), which overrides every DEFAULT_* at once.
A fixed size limit, which it does not lift, is refused with LimitError.

Importing this module pins OpenBLAS to one thread unless
OPENBLAS_NUM_THREADS is already set.  The package imports it first, before
any module that loads numpy, so a bhlab process runs its main thread plus
the workers --threads asks for and starts no BLAS pool; the library makes
no BLAS call, so no result depends on that pool.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

DEFAULT_FAMILY_BUDGET = 10**8       # |Poly_d(H)| or Monte Carlo samples
DEFAULT_RESIDUE_BUDGET = 10**7      # residue-polynomial enumerations (k^(d+1))
DEFAULT_PROGRESSION_BUDGET = 10**6  # sieve limit X for progression error sums
DEFAULT_ROOT_COUNT_BUDGET = 10**8   # about pi(z) d^2 log2(z): w_P(l), l < z
DEFAULT_SUPPORT_BUDGET = 2**20      # keys of one Brun weight support
DEFAULT_SCALAR_BUDGET = 10**7       # arguments m <= x of one scalar psi sum

# Largest prime sieve, Lambda, totient or sandwich table any caller builds:
# a fixed memory limit, not a budget, so BHLAB_BUDGET does not lift it.
MAX_TABLE = 2 * 10**8

# The family moment's Lambda limit.  Past its table cap of 2**25 entries,
# or with fewer reads than its bound, it reads the compact layer (125 MB).
MAX_FAMILY_TABLE = 2 * 10**9


class BudgetError(Exception):
    """An enumeration was refused because it exceeds its budget."""

    _limit = "budget {} (override with BHLAB_BUDGET)"

    def __init__(self, name, requested, budget):
        self.name = name
        self.requested = requested
        self.budget = budget
        super().__init__(f"{name}: requested size {requested} exceeds "
                         + self._limit.format(budget))


class LimitError(BudgetError):
    """A table was refused because it exceeds a fixed size limit, one that
    BHLAB_BUDGET does not lift."""

    _limit = "the fixed limit {}"


def budget(default):
    """The budget in force for an enumeration whose default is `default`:
    BHLAB_BUDGET, a positive integer, when it is set."""
    raw = os.environ.get("BHLAB_BUDGET")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"BHLAB_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"BHLAB_BUDGET must be positive, got {value}")
    return value


def check(name, requested, default):
    """Raise BudgetError when requested exceeds budget(default), one of the
    DEFAULT_* budgets above unless BHLAB_BUDGET overrides it."""
    limit = budget(default)
    if requested > limit:
        raise BudgetError(name, requested, limit)


def check_table(name, size, limit=MAX_TABLE):
    """Raise LimitError when a table of `size` entries exceeds its fixed
    limit, MAX_TABLE unless given."""
    if size > limit:
        raise LimitError(name, size, limit)
