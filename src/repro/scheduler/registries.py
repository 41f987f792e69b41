"""Build a design-space searcher by name.

``make_searcher("evolutionary", seed=11)`` looks the name up in the
explorer's own table, :data:`repro.explore.searchers.SEARCHERS`, and
forwards keyword overrides to the class.  The function lives here so
that callers outside the explorer keep one stable import path; the
explorer is imported on the first call, so the scheduler package never
depends on it at import time.
"""

from __future__ import annotations

from typing import Any

__all__ = ["make_searcher"]


def make_searcher(name: str, **kwargs: Any):
    """Build the named searcher; an unknown name fails listing the known ones."""
    from ..explore.searchers import SEARCHERS

    try:
        searcher = SEARCHERS[name]
    except KeyError:
        raise KeyError(
            f"unknown searcher {name!r}; pick one of {tuple(SEARCHERS)}"
        ) from None
    return searcher(**kwargs)
