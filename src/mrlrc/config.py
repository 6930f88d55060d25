"""Enumeration budgets and size caps.

All verification in this package is enumeration at desk scale.  The
budgets below bound those enumerations so a bad parameter choice fails
fast instead of running for hours.  The environment variable
``MRLRC_BUDGET`` overrides both enumeration budgets; explicit ``budget=``
arguments override everything.

The variable is read from ``posix.environ``, the bytes-keyed dict that
``os.environ`` writes through, so a change made through ``os.environ``
is seen.  Importing ``os`` (with ``posixpath``, ``stat`` and
``_collections_abc``) for this one read would take up a third of the
start-up of every command; ``os.environ`` is read only where there is
no ``posix``.
"""

try:
    from posix import environ as _ENVIRON

    _ENV = b"MRLRC_BUDGET"
except ImportError:
    from os import environ as _ENVIRON

    _ENV = "MRLRC_BUDGET"

# Largest number of subsets / erasure patterns an exhaustive check will walk.
SUBSET_BUDGET = 10**7

# Largest codebook (q^k) an exhaustive codeword enumeration will walk.
CODEBOOK_BUDGET = 2**20

# Hard cap on tower size p^(a*m); everything in scope fits well below it.
SIZE_CAP = 2**24

# Fields up to this size get log/exp tables; larger ones fall back to
# polynomial arithmetic.
TABLE_CAP = 2**20


def _env_budget() -> int | None:
    raw = _ENVIRON.get(_ENV)
    if raw is None:
        return None
    try:
        # int() of bytes takes ASCII digits only, int() of str any digits
        value = int(raw.decode() if isinstance(raw, bytes) else raw)
    except ValueError:
        return None
    return value if value > 0 else None


def subset_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    return _env_budget() or SUBSET_BUDGET


def codebook_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    return _env_budget() or CODEBOOK_BUDGET
