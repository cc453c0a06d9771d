"""ASYNCIDLE: the wall-clock ticker's idle cost, measured exactly.

The asyncio runtime's claim is structural, so the bench enforces it as
an *equality*, not a threshold: the ticker sleeps until ``next_expiry()``
and bulk-advances on wake, so across a provably-empty span it performs
**zero** wakeups — every wake lands on a tick where the wheel has real
PER_TICK_BOOKKEEPING to do. Under a :class:`FakeClock` the whole
scenario is deterministic, so the wake count is a pure function of the
workload and the scheme's structure:

* For the list/tree/flat-wheel schemes (and the hashed wheels sized so
  no interval exceeds the table), ``next_expiry`` is exact and
  ``wakeups == |distinct expiry instants|``.
* A hierarchy also wakes at its deterministic cascade boundaries (a
  migration *is* bookkeeping — the paper's internal 60-second timer),
  so there ``wakeups == |expiry instants ∪ migration instants|``.

Every row additionally asserts the fingerprint identity that makes the
wake count meaningful: the async run's expiry sequence, OpCounter
totals, final tick, and pending set are bit-identical to one synchronous
``advance_to(horizon)`` over the same armed workload.

``make bench-async`` exports ``BENCH_async_idle.json``; the CI job runs
``--fast`` (a shorter idle horizon — the equalities are exact at any
scale).
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.bench.result import ExperimentResult
from repro.core import make_scheduler, scheme_names
from repro.core.observer import TimerObserver
from repro.runtime.clock import FakeClock
from repro.runtime.service import AsyncTimerService
from repro.workloads.timeline import TimelineWorkload, arm_timeline

#: Constructor params sized so every non-hierarchical scheme's
#: ``next_expiry`` is exact for both workloads: hashed tables and the
#: flat wheel cover the longest deadline (2^17 > the 100k idle horizon),
#: so no timer needs a second revolution.
SCHEME_PARAMS: Dict[str, Dict[str, object]] = {
    "scheme4": {"max_interval": 1 << 17},
    "scheme4-hybrid": {"max_interval": 1 << 17},
    "scheme5": {"table_size": 1 << 17},
    "scheme6": {"table_size": 1 << 17},
    "scheme7": {"slot_counts": (64, 64, 64)},
    "scheme7-lossy": {"slot_counts": (64, 64, 64)},
    "scheme7-onemigration": {"slot_counts": (64, 64, 64)},
}

#: Schemes whose wake count includes deterministic cascade instants —
#: level-migration hops for the hierarchies, group-boundary promotions
#: for the grouped sorting queue (both arrive via ``on_migrate``).
HIERARCHICAL = ("scheme7", "scheme7-onemigration", "gsq")

IDLE_TIMERS = 8
TIMELINE = TimelineWorkload()


class _InstantRecorder(TimerObserver):
    """Collects the distinct ticks at which the wheel did real work."""

    per_tick_fidelity = False  # never disable the bulk fast path

    def __init__(self) -> None:
        self.expiry_ticks: set = set()
        self.migrate_ticks: set = set()

    def on_expire(self, scheduler, timer) -> None:
        self.expiry_ticks.add(scheduler.now)

    def on_migrate(self, scheduler, timer, from_level, to_level) -> None:
        self.migrate_ticks.add(scheduler.now)


def _arm_idle(scheduler, horizon: int, fired: List[Tuple[object, int]]) -> None:
    """A long almost-empty span: a handful of isolated deadlines.

    The last timer lands exactly on the horizon so both runs finish at
    the same tick with identical trailing charges.
    """

    def record(timer) -> None:
        fired.append((timer.request_id, scheduler.now))

    for i in range(1, IDLE_TIMERS + 1):
        scheduler.start_timer(
            i * horizon // IDLE_TIMERS, request_id=f"idle{i}", callback=record
        )


def _arm(scheduler, workload: str, horizon: int, fired: List) -> None:
    if workload == "idle":
        _arm_idle(scheduler, horizon, fired)
    else:
        arm_timeline(scheduler, TIMELINE, fired)


def _run_signature(scheduler, fired) -> Tuple:
    """Everything the sync and async runs must agree on: the expiry
    sequence, OpCounter totals, final tick and pending count."""
    return (
        tuple(fired),
        scheduler.counter.snapshot(),
        scheduler.now,
        scheduler.pending_count,
    )


def _sync_control(scheme: str, workload: str, horizon: int) -> Tuple:
    scheduler = make_scheduler(scheme, **SCHEME_PARAMS.get(scheme, {}))
    fired: List = []
    _arm(scheduler, workload, horizon, fired)
    scheduler.advance_to(horizon)
    return _run_signature(scheduler, fired)


def _async_run(scheme: str, workload: str, horizon: int):
    """Returns (fingerprint, wakeups, recorder, wall seconds)."""

    async def main():
        scheduler = make_scheduler(scheme, **SCHEME_PARAMS.get(scheme, {}))
        recorder = _InstantRecorder()
        scheduler.attach_observer(recorder)
        fired: List = []
        _arm(scheduler, workload, horizon, fired)
        clock = FakeClock()
        service = AsyncTimerService(scheduler, tick_duration=1.0, clock=clock)
        await service.start()
        started = perf_counter()
        await clock.advance(float(horizon))
        elapsed = perf_counter() - started
        # The early-firing Nichols variants may run out of events before
        # the horizon, leaving the wheel parked short of it (by design —
        # the ticker only wakes for real work). Syncing the wheel to the
        # current reading is what any client operation would do first;
        # it charges the trailing empty span exactly as the synchronous
        # control's advance_to(horizon) does, and is a no-op when an
        # event already landed on the horizon. Counted separately from
        # ticker wakeups.
        service._sync_to_wall()
        print_ = _run_signature(scheduler, fired)
        wakeups = service.wakeups
        await service.aclose()
        return print_, wakeups, recorder, elapsed

    return asyncio.run(main())


def async_idle_cost(fast: bool = False) -> ExperimentResult:
    """Zero-wakeup idle spans + fingerprint identity, per registry scheme."""
    idle_horizon = 20_000 if fast else 100_000
    result = ExperimentResult(
        experiment_id="ASYNCIDLE",
        title="Asyncio runtime idle cost: ticker wakeups vs expiry instants",
        paper_claim=(
            "a timer module driven by a host clock need not poll: with "
            "next_expiry() from the occupancy bitmaps, the ticker wakes "
            "only when PER_TICK_BOOKKEEPING has real work"
        ),
        headers=[
            "scheme",
            "workload",
            "horizon",
            "expiry instants",
            "cascade instants",
            "wakeups",
            "ticks slept through",
            "identical",
        ],
    )
    measurements: List[Dict[str, object]] = []
    for scheme in scheme_names():
        for workload in ("timeline", "idle"):
            horizon = TIMELINE.horizon if workload == "timeline" else idle_horizon
            control = _sync_control(scheme, workload, horizon)
            observed, wakeups, recorder, elapsed = _async_run(
                scheme, workload, horizon
            )
            identical = observed == control
            expiry_instants = len(recorder.expiry_ticks)
            event_ticks = recorder.expiry_ticks | recorder.migrate_ticks
            cascade_instants = len(event_ticks) - expiry_instants
            expected = (
                len(event_ticks) if scheme in HIERARCHICAL else expiry_instants
            )
            result.add_row(
                scheme,
                workload,
                horizon,
                expiry_instants,
                cascade_instants,
                wakeups,
                horizon - wakeups,
                "yes" if identical else "NO",
            )
            result.check(
                f"{scheme}/{workload}: async fingerprint identical to "
                "synchronous advance_to",
                identical,
            )
            if scheme in HIERARCHICAL:
                result.check(
                    f"{scheme}/{workload}: wakeups == expiry ∪ cascade "
                    f"instants ({wakeups} == {expected})",
                    wakeups == expected,
                )
            else:
                result.check(
                    f"{scheme}/{workload}: wakeups == distinct expiry "
                    f"instants ({wakeups} == {expected})",
                    wakeups == expected,
                )
            if workload == "idle":
                result.check(
                    f"{scheme}/idle: ticker slept through ≥99% of the span",
                    wakeups <= horizon // 100,
                )
            measurements.append(
                {
                    "scheme": scheme,
                    "workload": workload,
                    "horizon_ticks": horizon,
                    "expiries": len(observed[0]),
                    "expiry_instants": expiry_instants,
                    "cascade_instants": cascade_instants,
                    "wakeups": wakeups,
                    "expected_wakeups": expected,
                    "ticks_slept_through": horizon - wakeups,
                    "identical_fingerprint": identical,
                    "async_run_seconds": elapsed,
                }
            )
    result.data = {
        "mode": "fast" if fast else "full",
        "idle_horizon_ticks": idle_horizon,
        "idle_timers": IDLE_TIMERS,
        "timeline_workload": {
            "n_timers": TIMELINE.n_timers,
            "horizon": TIMELINE.horizon,
            "seed": TIMELINE.seed,
        },
        "scheme_params": {
            scheme: {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in params.items()
            }
            for scheme, params in SCHEME_PARAMS.items()
        },
        "hierarchical_schemes": list(HIERARCHICAL),
        "measurements": measurements,
    }
    result.note(
        "wakeup equalities are exact, not thresholds: a single idle poll "
        "anywhere in the 100k-tick span fails the build"
    )
    result.note(
        "hierarchies wake at cascade boundaries too — the paper's internal "
        "60-second timer updating the minute array, §6.2 — so their bound "
        "is expiry ∪ migration instants; scheme7-lossy never migrates and "
        "meets the plain expiry-instant equality"
    )
    result.note(
        "hashed wheels are sized so no interval needs a second revolution "
        "(table 2^17); undersized tables would add one deterministic "
        "rounds-remaining scan per revolution per timer"
    )
    return result
