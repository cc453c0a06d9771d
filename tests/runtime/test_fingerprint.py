"""Fingerprint identity: the wall-clock runtime vs one synchronous advance.

The acceptance property for the runtime: arming the same
:class:`TimelineWorkload` and moving wheel time to the horizon — either
by a single synchronous ``advance_to`` or by a ticker chasing a
:class:`FakeClock` — must yield the identical expiry sequence, OpCounter
totals, final tick, and pending set, for every scheme in the registry
and through every wrapper (supervised, thread-safe, sharded).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.runtime import AsyncTimerService, FakeClock
from repro.sharding import ShardedTimerService
from repro.workloads.timeline import TimelineWorkload, arm_timeline
from tests.conftest import ALL_SCHEMES, SCHEME_KWARGS

WORKLOAD = TimelineWorkload()
#: Longer intervals than the horizon, so the comparison also covers a
#: non-empty final pending set.
LEFTOVER_WORKLOAD = TimelineWorkload(seed=23, max_interval=700)


def _build(name: str):
    return make_scheduler(name, **SCHEME_KWARGS.get(name, {}))


def _fingerprint(scheduler, fired):
    return (
        tuple(fired),
        scheduler.counter.snapshot(),
        scheduler.now,
        scheduler.pending_count,
    )


def _sync_control(make, workload):
    scheduler = make()
    fired = []
    arm_timeline(scheduler, workload, fired)
    scheduler.advance_to(workload.horizon)
    return _fingerprint(scheduler, fired)


def _async_run(make, workload):
    async def main():
        scheduler = make()
        fired = []
        arm_timeline(scheduler, workload, fired)
        clock = FakeClock()
        service = AsyncTimerService(scheduler, tick_duration=1.0, clock=clock)
        await service.start()
        await clock.advance(float(workload.horizon))
        print_ = _fingerprint(scheduler, fired)
        stats = dict(service.introspect()["runtime"])
        await service.aclose()
        return print_, stats

    return asyncio.run(main())


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_every_scheme_matches_the_synchronous_control(name):
    control = _sync_control(lambda: _build(name), WORKLOAD)
    observed, stats = _async_run(lambda: _build(name), WORKLOAD)
    assert observed == control
    # A FakeClock never misbehaves: the ticker sleeps to exact deadlines,
    # so no wake is early and none oversleeps.
    assert stats["wakeups"] > 0
    assert stats["early_wakes"] == 0
    assert stats["oversleep_ticks"] == 0
    assert stats["backward_freezes"] == 0


@pytest.mark.parametrize("name", ["scheme1", "scheme6", "scheme7"])
def test_identity_holds_with_timers_outliving_the_horizon(name):
    control = _sync_control(lambda: _build(name), LEFTOVER_WORKLOAD)
    observed, _stats = _async_run(lambda: _build(name), LEFTOVER_WORKLOAD)
    assert observed == control
    assert control[3] > 0, "workload meant to leave timers pending"


@pytest.mark.parametrize(
    "wrap",
    [
        pytest.param(
            lambda: SupervisedScheduler(_build("scheme6")), id="supervised"
        ),
        pytest.param(
            lambda: ThreadSafeScheduler(_build("scheme6")), id="threadsafe"
        ),
    ],
)
def test_identity_holds_through_wrappers(wrap):
    control = _sync_control(wrap, WORKLOAD)
    observed, _stats = _async_run(wrap, WORKLOAD)
    assert observed == control


def _arm_batch(service_like, fired):
    """A pre-armed, non-re-entrant batch: no callback mutates the wheel.

    The sharded service drives each shard to the deadline in turn, so a
    callback that *starts* timers mid-advance observes sibling shards at
    differing local times — bulk and stepped advances legitimately
    diverge for re-entrant workloads (the timeline driver shape). With
    passive callbacks the fired *set*, counters, and final state are
    segment-additive, and identity is a real property. (Callback
    invocation order is not: shards run in index order within one
    advance, so a bulk jump invokes shard-major, a stepped drive
    time-major — both legal under Appendix B.)
    """
    import random

    rng = random.Random(5)
    for i in range(40):
        service_like.start_timer(
            rng.randint(1, 500),
            request_id=f"s{i}",
            callback=lambda t: fired.append((t.request_id, t.expired_at)),
        )
    service_like.start_timer(512, request_id="@end", callback=lambda _t: None)


def test_sharded_identity_on_a_passive_batch():
    def normalise(print_):
        fired, snapshot, now, pending = print_
        return (tuple(sorted(fired)), snapshot, now, pending)

    def control():
        sharded = ShardedTimerService("scheme6", shards=4)
        fired = []
        _arm_batch(sharded, fired)
        sharded.advance_to(512)
        return _fingerprint(sharded, fired)

    async def live():
        sharded = ShardedTimerService("scheme6", shards=4)
        fired = []
        clock = FakeClock()
        service = AsyncTimerService(sharded, tick_duration=1.0, clock=clock)
        await service.start()
        _arm_batch(sharded, fired)
        service._kick()
        await clock.advance(512.0)
        print_ = _fingerprint(sharded, fired)
        await service.aclose()
        return print_

    assert normalise(asyncio.run(live())) == normalise(control())
