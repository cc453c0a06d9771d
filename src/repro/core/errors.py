"""Exception hierarchy for the timer facility.

The paper's timer-module model (Section 2) defines four routines; the errors
here cover the ways a client can misuse them: starting a timer with an
illegal interval, stopping a timer that is unknown or already expired, and
configuring a scheduler with impossible parameters.
"""

from __future__ import annotations


class TimerError(Exception):
    """Base class for every error raised by the timer facility."""


class TimerConfigurationError(TimerError):
    """A scheduler was constructed with invalid parameters.

    Examples: a timing wheel with zero slots, a hierarchy with no levels, a
    level whose slot count is not a positive integer.
    """


class TimerIntervalError(TimerError):
    """START_TIMER was called with an interval the scheduler cannot accept.

    Intervals must be positive integers; Scheme 4 additionally requires
    ``interval < MaxInterval`` (Section 5), and bounded hierarchies reject
    intervals beyond their total span.
    """


class TimerStateError(TimerError):
    """An operation was applied to a timer in an incompatible state.

    Stopping a timer that already expired or was already stopped raises this
    rather than silently succeeding: the paper's STOP_TIMER contract is that
    the caller names a specific outstanding timer.
    """


class UnknownTimerError(TimerError):
    """STOP_TIMER was called with a ``request_id`` the module has no record of."""


class StaleTimerHandleError(TimerStateError):
    """A generation-tagged SoA handle or view outlived the timer it named.

    Raised when a struct-of-arrays int handle or
    :class:`~repro.structures.soa.SoATimerView` is used after its row was
    finalised and freed, possibly already holding a *different* timer.
    Distinct from plain :class:`TimerStateError` because the row the
    caller would have addressed is not "their timer in the wrong state" —
    it may be somebody else's timer entirely, and silently operating on
    it is the use-after-free bug the generation tag exists to catch.
    """


class SchedulerShutdownError(TimerError):
    """An operation was attempted on a scheduler after :meth:`shutdown`."""


class TimerLivelockError(TimerError, RuntimeError):
    """``run_until_idle`` exhausted its tick budget with timers still pending.

    Raised instead of silently returning so that livelock — e.g. a
    periodic timer that re-arms itself forever, or a genuinely unreachable
    deadline — is surfaced rather than masked. The caller can catch it and
    inspect the scheduler (``pending_count``, ``pending_timers()``), or
    pass a larger ``max_ticks`` when the workload legitimately needs one.
    """
