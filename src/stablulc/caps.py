"""Enumeration cap handling.

Exact routines that enumerate group elements or subspaces refuse to run
past the cap instead of approximating.  The default of 2**20 can be
overridden per call or globally via the STABLULC_ENUM_CAP env var,
which must hold a positive integer.
"""

from __future__ import annotations

import os

from .errors import PreconditionError

DEFAULT_ENUM_CAP = 1 << 20


def enum_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    value = os.environ.get("STABLULC_ENUM_CAP", "")
    if not value:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise PreconditionError("STABLULC_ENUM_CAP must be a positive"
                                f" integer enumeration cap, got {value!r}")
    return cap
