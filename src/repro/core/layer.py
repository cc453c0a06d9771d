"""``SchedulerLayer``: the one base every scheduler wrapper builds on.

Each layer in this package re-presents the paper's timer-module
interface (START_TIMER, STOP_TIMER, PER_TICK_BOOKKEEPING,
EXPIRY_PROCESSING, plus UPDATE_TIMER) over the scheduler it wraps, and
changes only a few routines: :class:`~repro.core.threadsafe.
ThreadSafeScheduler` serialises them, :class:`~repro.core.supervision.
SupervisedScheduler` resolves client ids through retry re-arms,
:class:`~repro.durability.service.DurableScheduler` journals them. The
base forwards the whole public surface to :attr:`SchedulerLayer.inner`,
so a layer overrides what it changes and nothing else.

Forwarding is written out member by member, never through
``__getattr__``. Capability probes depend on it: ``DurableScheduler``
installs its ledger only when ``hasattr(stack, "set_ledger")``,
``recover()`` adopts timers only when ``hasattr(stack, "adopt_timer")``,
and the async runtime routes clock readings through ``sync_clock`` only
when the scheduler has one. A catch-all forwarder would answer ``True``
for every one of them on every layer. So the base defines none of
``sync_clock``, ``set_ledger`` or ``adopt_timer``; a layer that supports
them says so by defining them.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Union

from repro.core.interface import ExpiryAction, Timer


class SchedulerLayer:
    """Forward the public scheduler surface to ``inner``.

    ``inner`` is any scheduler-shaped object: a registry scheme or
    another layer. The wrapped scheduler must not be driven directly once
    wrapped.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    # ------------------------------------------------------------ client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> Timer:
        """START_TIMER on the wrapped scheduler."""
        return self.inner.start_timer(
            interval,
            request_id=request_id,
            callback=callback,
            user_data=user_data,
        )

    def stop_timer(self, timer_or_id: Union[Timer, Hashable]) -> Timer:
        """STOP_TIMER on the wrapped scheduler."""
        return self.inner.stop_timer(timer_or_id)

    def update_timer(
        self, timer_or_id: Union[Timer, Hashable], new_interval: int
    ) -> Timer:
        """UPDATE_TIMER on the wrapped scheduler."""
        return self.inner.update_timer(timer_or_id, new_interval)

    def restart_timer(
        self,
        timer: Timer,
        interval: Optional[int] = None,
        request_id: Optional[Hashable] = None,
    ) -> Timer:
        """Re-arm a finalised record on the wrapped scheduler."""
        return self.inner.restart_timer(
            timer, interval=interval, request_id=request_id
        )

    def tick(self) -> List[Timer]:
        """One PER_TICK_BOOKKEEPING step of the wrapped scheduler."""
        return self.inner.tick()

    def advance(self, ticks: int) -> List[Timer]:
        """Advance the wrapped scheduler ``ticks`` ticks."""
        return self.inner.advance(ticks)

    def advance_to(self, deadline: int) -> List[Timer]:
        """Advance the wrapped scheduler to absolute tick ``deadline``."""
        return self.inner.advance_to(deadline)

    def run_until_idle(self, max_ticks: int = 1_000_000) -> List[Timer]:
        """Drain the wrapped scheduler (see its livelock semantics)."""
        return self.inner.run_until_idle(max_ticks=max_ticks)

    def shutdown(self) -> List[Timer]:
        """Shut the wrapped scheduler down; returns the cancelled records."""
        return self.inner.shutdown()

    # ------------------------------------------------------------ inspection

    @property
    def now(self) -> int:
        """Current tick of the wrapped scheduler."""
        return self.inner.now

    @property
    def pending_count(self) -> int:
        """Outstanding timers in the wrapped scheduler."""
        return self.inner.pending_count

    def is_pending(self, request_id: Hashable) -> bool:
        """True when ``request_id`` names an outstanding timer."""
        return self.inner.is_pending(request_id)

    def get_timer(self, request_id: Hashable) -> Timer:
        """The pending record for ``request_id`` (raises if unknown)."""
        return self.inner.get_timer(request_id)

    def pending_timers(self) -> List[Timer]:
        """Snapshot of the wrapped scheduler's outstanding records."""
        return self.inner.pending_timers()

    def next_expiry(self) -> Optional[int]:
        """Lower bound on the next firing tick, or ``None`` when idle."""
        return self.inner.next_expiry()

    def max_start_interval(self) -> Optional[int]:
        """The wrapped scheme's interval bound (``None`` when unbounded)."""
        return self.inner.max_start_interval()

    @property
    def free_record_count(self) -> int:
        """Free records pooled by the wrapped scheduler (SoA free rows)."""
        return self.inner.free_record_count

    @property
    def is_shut_down(self) -> bool:
        """True after :meth:`shutdown`."""
        return self.inner.is_shut_down

    @property
    def counter(self):
        """The wrapped scheme's :class:`~repro.cost.counters.OpCounter`."""
        return self.inner.counter

    @property
    def scheme_name(self) -> str:
        """The wrapped scheme's registry name."""
        return self.inner.scheme_name

    @property
    def observer(self):
        """The active lifecycle observer (the wrapped scheme's)."""
        return self.inner.observer

    def attach_observer(self, observer):
        """Attach ``observer`` to the wrapped scheduler."""
        return self.inner.attach_observer(observer)

    def detach_observer(self):
        """Detach the active observer from the wrapped scheduler."""
        return self.inner.detach_observer()

    def introspect(self) -> Dict[str, object]:
        """The wrapped scheduler's structure snapshot."""
        return self.inner.introspect()

    # --------------------------------------------------------- error handling

    @property
    def ERROR_POLICIES(self):
        """The wrapped scheduler's accepted error-policy names."""
        return self.inner.ERROR_POLICIES

    def set_error_policy(self, policy: str) -> None:
        """Choose the wrapped scheduler's Expiry_Action error policy."""
        self.inner.set_error_policy(policy)

    def set_error_capacity(self, capacity: int) -> None:
        """Resize the wrapped scheduler's bounded error ring."""
        self.inner.set_error_capacity(capacity)

    @property
    def callback_errors(self) -> List[tuple]:
        """The wrapped scheduler's collected ``(timer, exception)`` ring."""
        return self.inner.callback_errors

    @property
    def dropped_errors(self) -> int:
        """Collected failures evicted by the error ring's capacity bound."""
        return self.inner.dropped_errors

    def clear_callback_errors(self) -> List[tuple]:
        """Return and clear the wrapped scheduler's collected failures."""
        return self.inner.clear_callback_errors()
