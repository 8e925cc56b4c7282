"""Size guards for the exponential-cost entry points.

Brute-force oracles and set enumeration scan subsets explicitly, and the
exhaustive sweep walks every isomorphism class of an order, so both are
capped.  The caps can be lifted through the ``DOMCOUNT_MAX_ORDER``
environment variable, which overrides both guards at once.

The family commands build lists, and a tree, that grow linearly in gamma,
so the CLI refuses a gamma above ``FAMILY_MAX_GAMMA`` before building any
of them.  That limit is fixed: at gamma 300,000 ``family`` took 2 to 7 s,
by k, and about 330 MiB on a 2-core machine under Python 3.11.

A forest file declares its vertex count before its edges, and parsing
allocates a list per vertex, so ``parse_forest`` refuses a count above
``FOREST_MAX_ORDER`` before allocating anything.  That limit is fixed
too, and holds the largest family tree, 3 * FAMILY_MAX_GAMMA - 2
vertices.
"""

import os

DEFAULT_ORACLE_MAX_ORDER = 25
DEFAULT_SEARCH_MAX_ORDER = 20
FAMILY_MAX_GAMMA = 300_000
FOREST_MAX_ORDER = 1_000_000

_ENV_VAR = "DOMCOUNT_MAX_ORDER"


def _env_override() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def oracle_max_order() -> int:
    """Current cap for brute-force oracles and set enumeration."""
    return _env_override() or DEFAULT_ORACLE_MAX_ORDER


def search_max_order() -> int:
    """Current cap for the exhaustive order sweep."""
    return _env_override() or DEFAULT_SEARCH_MAX_ORDER
