"""The one result type of every verification: a named family of identities.

A :class:`Check` counts the identities it is handed and keeps the input of
the first one that failed as its witness.  A boolean array counts as one
identity per entry, in one call.  A :class:`Recorder` is the ordered list of
the checks of one suite run.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

__all__ = ["Check", "Recorder"]


class Check:
    __slots__ = ("check", "checks", "passed", "witness")

    def __init__(self, check: str):
        self.check = check
        self.checks = 0  # identities evaluated
        self.passed = True
        self.witness: Any = None  # input of the first failed identity

    def __call__(self, ok, witness: Any = None) -> None:
        """Record one identity."""
        self.checks += 1
        if not ok and self.passed:
            self.passed, self.witness = False, witness

    def all(self, oks, witness: Callable[..., Any] | None = None) -> None:
        """Record one identity per entry of a boolean array; a failure's
        witness is ``witness(*index)`` of the first False entry, or the index
        itself."""
        oks = np.asarray(oks, dtype=bool)
        self.checks += oks.size
        if self.passed and not oks.all():
            index = tuple(int(i) for i in np.unravel_index(np.argmin(oks), oks.shape))
            self.passed = False
            self.witness = list(index) if witness is None else witness(*index)


class Recorder(list):
    """The checks of one run, in the order they were opened."""

    def __call__(self, name: str) -> Check:
        check = Check(name)
        self.append(check)
        return check
