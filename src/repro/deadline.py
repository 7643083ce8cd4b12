"""The analysis budget (the paper's 120 s decompile+analyze cutoff, §6).

Every stage takes one :class:`Deadline` as its ``deadline=`` argument (``None``
means ``Deadline()``, which never expires); loops :meth:`~Deadline.tick` it per
block, slice or relation, and rounds and stage boundaries
:meth:`~Deadline.check` it.  It sits below every layer of ``repro``.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

# Units of work between clock reads in :meth:`Deadline.tick`.
CHECK_INTERVAL = 256


class DeadlineExceeded(Exception):
    """A cooperative deadline check fired inside a stage."""


class Deadline:
    """A budget of ``seconds`` (``None``: unlimited) from ``started`` (default:
    now, on the monotonic clock)."""

    __slots__ = ("seconds", "started", "_until_check")

    def __init__(self, seconds: Optional[float] = None, started: Optional[float] = None):
        self.seconds = seconds
        self.started = time.monotonic() if started is None else started
        self._until_check = 0  # the first tick always reads the clock

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def expired(self) -> bool:
        return self.seconds is not None and self.elapsed() > self.seconds

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                "deadline of %.3fs exceeded after %.3fs" % (self.seconds, self.elapsed())
            )

    def tick(self, work: int = 1) -> None:
        """Count ``work`` units; :meth:`check` once :data:`CHECK_INTERVAL`
        units have passed since the last one."""
        left = self._until_check - work
        if left > 0:
            self._until_check = left
        else:
            self._until_check = CHECK_INTERVAL
            self.check()

    def chunks(self, items: Sequence) -> Iterator[Sequence]:
        """``items`` in slices of :data:`CHECK_INTERVAL`, ticking once per
        slice by its length."""
        for start in range(0, len(items), CHECK_INTERVAL):
            chunk = items[start : start + CHECK_INTERVAL]
            self.tick(len(chunk))
            yield chunk
