"""Asyncio real-time runtime: wall-clock drive for any scheduler.

The paper specifies the timer module against a host OS clock; everything
below this package runs it under simulated integer ticks. ``runtime``
closes the gap: :class:`AsyncTimerService` wraps any scheduler — a plain
scheme, a :class:`~repro.core.supervision.SupervisedScheduler`, a
:class:`~repro.core.threadsafe.ThreadSafeScheduler`, or a
:class:`~repro.sharding.ShardedTimerService` — and drives it from a
:class:`ClockSource` with a ticker that sleeps exactly until
``next_expiry()`` and bulk-advances on wake. See
``docs/async_runtime.md`` for the architecture and contracts.

Quick use::

    import asyncio
    from repro.core import make_scheduler
    from repro.runtime import AsyncTimerService

    async def main():
        async with AsyncTimerService(
            make_scheduler("scheme6"), tick_duration=0.01
        ) as service:
            await service.start_timer(
                5, request_id="hello",
                callback=lambda t: print("expired", t.request_id),
            )
            await service.sleep(8)

    asyncio.run(main())
"""

from repro.runtime.clock import (
    ClockSource,
    FakeClock,
    LoopClock,
    MonotonicClock,
    SkewedClockSource,
)
from repro.runtime.service import AsyncTimerService

__all__ = [
    "AsyncTimerService",
    "ClockSource",
    "FakeClock",
    "LoopClock",
    "MonotonicClock",
    "SkewedClockSource",
]
