"""Build a design-space searcher by name.

``make_searcher("evolutionary")`` looks the name up in the explorer's
own table, :data:`repro.explore.searchers.SEARCHERS`, and builds that
class.  The function lives here so that callers outside the explorer
keep one stable import path; the explorer is imported on the first
call, so the scheduler package never depends on it at import time.
"""

from __future__ import annotations

__all__ = ["make_searcher"]


def make_searcher(name: str):
    """Build the named searcher; an unknown name fails listing the known ones."""
    from ..explore.searchers import SEARCHERS

    try:
        searcher = SEARCHERS[name]
    except KeyError:
        raise KeyError(
            f"unknown searcher {name!r}; pick one of {tuple(SEARCHERS)}"
        ) from None
    return searcher()
