"""A thread-safe front for any scheduler (the real-lock cousin of A.2).

The Appendix A.2 *model* in :mod:`repro.smp` simulates lock contention;
this module is the practical counterpart for programs where client
threads call START/STOP while another thread drives the clock. It is the
paper's "global semaphore" discipline: one lock around the whole module —
correct for every scheme, with exactly the serialisation cost Appendix
A.2 warns about for long critical sections (Scheme 2) and shrugs off for
the O(1) wheels.

The wrapper reproduces the public :class:`TimerScheduler` surface; the
wrapped scheduler must not be touched directly once wrapped.
"""

from __future__ import annotations

import functools
import threading
from typing import List

from repro.core.interface import Timer, TimerScheduler
from repro.core.layer import SchedulerLayer


class ThreadSafeScheduler(SchedulerLayer):
    """Mutex-serialised facade over a :class:`TimerScheduler`.

    Every member :class:`SchedulerLayer` forwards runs under the module
    lock (reads too, for a coherent view). Expiry callbacks run while the
    lock is held (they are part of PER_TICK_BOOKKEEPING); re-entrant
    calls from the ticking thread's own callbacks are supported via an
    RLock. Calls from *other* threads inside a callback would deadlock by
    design — the module is a single serialised resource, per the
    appendix's global-semaphore picture.
    """

    def __init__(self, scheduler: TimerScheduler) -> None:
        super().__init__(scheduler)
        self._lock = threading.RLock()
        #: acquisitions that had to wait (best effort; uses non-blocking
        #: probe so it undercounts under heavy contention races).
        self.contended_acquisitions = 0

    def _acquire(self) -> None:
        if not self._lock.acquire(blocking=False):
            self.contended_acquisitions += 1
            self._lock.acquire()

    def advance(self, ticks: int) -> List[Timer]:
        """Advance ``ticks`` ticks, one serialised event hop at a time.

        The lock is released between hops so client threads can
        interleave; each hop uses the wrapped scheduler's sparse fast
        path, so runs of provably-empty ticks cost one lock acquisition
        instead of one per tick.
        """
        self._acquire()
        try:
            deadline = self.inner.now + ticks
        finally:
            self._lock.release()
        return self.advance_to(deadline)

    def advance_to(self, deadline: int) -> List[Timer]:
        """Advance the clock to ``deadline`` in serialised event hops.

        Between hops the lock is dropped, so a START_TIMER racing the
        jump can still land on a not-yet-skipped tick — each hop re-reads
        the wrapped scheduler's :meth:`next_expiry` under the lock (the
        public bound, so the wrapped scheduler may itself be a layer).
        """
        expired: List[Timer] = []
        while True:
            self._acquire()
            try:
                now = self.inner.now
                if now >= deadline:
                    break
                event = self.inner.next_expiry()
                target = deadline if event is None else min(event, deadline)
                if target <= now:
                    # A stale next-event claim (tick <= now) would make
                    # this hop a no-op and the loop spin forever; every
                    # hop must make strictly positive progress. now + 1
                    # never overshoots: deadline > now on this branch.
                    target = now + 1
                expired.extend(self.inner.advance_to(target))
            finally:
                self._lock.release()
        return expired

    @property
    def callback_errors(self) -> List["tuple"]:
        """A serialised *snapshot* of the collected-failure ring.

        Returns a copy taken under the lock, so iterating it cannot race
        a ticking thread appending new failures (the live ring on the
        wrapped scheduler mutates during expiry processing).
        """
        with self._lock:
            return list(self.inner.callback_errors)


def _serialised(member):
    """``member`` of :class:`SchedulerLayer`, run under the module lock.

    ``set_error_policy`` is the case that shows why even the small
    members take it: a racing ``advance_to`` hop reads the policy
    mid-expiry, and an unserialised flip could let one batch run
    half-"propagate", half-"collect".
    """
    if isinstance(member, property):
        read = member.fget

        def locked_read(self):
            self._acquire()
            try:
                return read(self)
            finally:
                self._lock.release()

        return property(locked_read, doc=member.__doc__)

    @functools.wraps(member)
    def locked_call(self, *args, **kwargs):
        self._acquire()
        try:
            return member(self, *args, **kwargs)
        finally:
            self._lock.release()

    return locked_call


for _name, _member in vars(SchedulerLayer).items():
    if not _name.startswith("_") and _name not in vars(ThreadSafeScheduler):
        setattr(ThreadSafeScheduler, _name, _serialised(_member))
del _name, _member
