"""Injectable time sources for the service layer.

The micro-batcher's behaviour is defined entirely in terms of two
operations — *what time is it* and *wait on this condition for at most
t seconds* — so both live behind one small interface.  Production uses
:class:`SystemClock` (``time.monotonic`` + ``Condition.wait``);
wait-timeout tests use :class:`ManualClock`, where a timed wait
*advances virtual time instead of sleeping*, so a test of "the batch
window expired before ``max_batch`` arrived" runs in microseconds and
cannot flake on a loaded CI runner.
"""

from __future__ import annotations

import threading
import time

__all__ = ["SystemClock", "ManualClock", "waitable"]


def waitable(seconds: float) -> bool:
    """Whether a thread can wait ``seconds``: 0 <= seconds <= TIMEOUT_MAX.

    Past :data:`threading.TIMEOUT_MAX` the wait itself raises
    OverflowError, and a timed wait on NaN returns at once, so a loop
    waiting for a NaN window to close spins.  The batch window and the
    HTTP deadline budget are both checked with this rule.
    """
    return 0.0 <= seconds <= threading.TIMEOUT_MAX


class SystemClock:
    """Real time: monotonic seconds and genuine condition waits."""

    def monotonic(self) -> float:
        return time.monotonic()

    def wait(self, condition: threading.Condition, timeout: float) -> bool:
        """Wait on ``condition`` (lock held) for up to ``timeout`` seconds.

        Returns True when notified, False on timeout — exactly
        :meth:`threading.Condition.wait`.  Callers must re-check their
        predicate either way (notifications are not a message queue).
        """
        return condition.wait(timeout)


class ManualClock:
    """Virtual time for deterministic wait-timeout tests.

    A timed :meth:`wait` first yields to any already-pending
    notification (a zero-timeout condition wait), then advances the
    virtual clock by the full timeout and reports a timeout.  Combined
    with the batcher's re-check loop this makes "the window elapsed"
    indistinguishable from real waiting — minus the wall-clock time.
    :meth:`advance` lets a test move time past a request deadline by
    hand.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move virtual time forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        with self._lock:
            self._now += seconds
            return self._now

    def wait(self, condition: threading.Condition, timeout: float) -> bool:
        # Give an already-sent notify a chance to land (lock is held by
        # the caller, as with any Condition.wait).
        if condition.wait(0.0):
            return True
        self.advance(max(0.0, float(timeout)))
        return False
