"""Capacity limits for the enumeration-heavy operations.

One setting replaces both built-in alpha limits, and each limit is read
where it is enforced: inside a `with override(limit):` block the innermost
block's limit, else the environment variable ROOKALG_CAPACITY if set, else
the default.  A negative limit is refused whichever source gives it:
`override` refuses it when its block is entered, the environment when a
limit is read.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_ROOK_LIMIT = 6    # rook-monoid enumeration and counting identities
DEFAULT_TABLE_LIMIT = 4   # full basis and structure-table builds
ORACLE_DEGREE_LIMIT = 8   # cap on alpha + n for brute-force verification

_ENV_VAR = "ROOKALG_CAPACITY"
_OVERRIDE: ContextVar[int | None] = ContextVar("rookalg_capacity", default=None)


@contextmanager
def override(limit: int | None):
    """Within the block, `limit` replaces both alpha limits; None changes nothing."""
    if limit is not None and limit < 0:
        raise ValueError(f"capacity must be non-negative, got {limit}")
    token = _OVERRIDE.set(_OVERRIDE.get() if limit is None else limit)
    try:
        yield
    finally:
        _OVERRIDE.reset(token)


def _limit(default: int) -> int:
    """The innermost override if one is open, else the environment's value if set, else the default."""
    value = _OVERRIDE.get()
    if value is not None:
        return value
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{_ENV_VAR} must be non-negative, got {value}")
    return value


def rook_limit() -> int:
    return _limit(DEFAULT_ROOK_LIMIT)


def table_limit() -> int:
    return _limit(DEFAULT_TABLE_LIMIT)
