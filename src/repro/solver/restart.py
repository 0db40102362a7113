"""Restart policy: the Luby sequence.

Restarts periodically abandon the current search prefix (keeping learned
clauses and activities) to escape unproductive subtrees.  The solver
restarts after ``base * luby(i)`` conflicts — the reluctant doubling
sequence 1 1 2 1 1 2 4 ... with optimal worst-case properties.
"""

from __future__ import annotations


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby sequence: 1 1 2 1 1 2 4 1 1 2 ...

    Defined by: luby(2^k - 1) = 2^(k-1); otherwise, with k the smallest
    power such that i < 2^k - 1, luby(i) = luby(i - (2^(k-1) - 1)).
    """
    if i < 1:
        raise ValueError("luby is defined for i >= 1")
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class LubyRestarts:
    """Restart after ``base * luby(n)`` conflicts since the last restart."""

    def __init__(self, base: int = 100):
        self.base = base
        self._index = 1
        self._limit = base * luby(1)
        self._conflicts = 0

    def on_conflict(self) -> None:
        self._conflicts += 1

    def should_restart(self) -> bool:
        return self._conflicts >= self._limit

    def on_restart(self) -> None:
        self._index += 1
        self._limit = self.base * luby(self._index)
        self._conflicts = 0
