"""Configurable capacity limits for the enumeration-heavy operations.

The environment variable ROOKALG_CAPACITY, when set to a non-negative
integer, replaces both built-in alpha limits.  Explicit overrides (CLI
flags, keyword arguments) win over the environment.  A negative limit is
refused whichever source gives it.
"""
from __future__ import annotations

import os

DEFAULT_ROOK_LIMIT = 6    # rook-monoid enumeration and counting identities
DEFAULT_TABLE_LIMIT = 4   # full basis and structure-table builds
ORACLE_DEGREE_LIMIT = 8   # cap on alpha + n for brute-force verification

_ENV_VAR = "ROOKALG_CAPACITY"


def _limit(override: int | None, default: int) -> int:
    """The override if given, else the environment's value if set, else the default.

    A negative limit from either source is refused with ValueError.
    """
    if override is not None:
        value, source = override, "capacity"
    else:
        raw = os.environ.get(_ENV_VAR)
        if raw is None:
            return default
        value, source = int(raw), _ENV_VAR
    if value < 0:
        raise ValueError(f"{source} must be non-negative, got {value}")
    return value


def rook_limit(override: int | None = None) -> int:
    return _limit(override, DEFAULT_ROOK_LIMIT)


def table_limit(override: int | None = None) -> int:
    return _limit(override, DEFAULT_TABLE_LIMIT)
