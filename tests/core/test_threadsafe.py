"""The thread-safe scheduler facade under real concurrency."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import HashedWheelUnsortedScheduler, OrderedListScheduler
from repro.core.interface import TimerScheduler
from repro.core.supervision import SupervisedScheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.durability import DurableScheduler
from repro.sharding import ShardedTimerService


def test_single_threaded_behaviour_unchanged():
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=64))
    fired = []
    wrapped.start_timer(5, request_id="a", callback=lambda t: fired.append(t.request_id))
    wrapped.start_timer(9, request_id="b")
    wrapped.stop_timer("b")
    wrapped.advance(10)
    assert fired == ["a"]
    assert wrapped.pending_count == 0
    assert wrapped.now == 10
    assert wrapped.scheme_name == "scheme6"


def test_reentrant_callbacks_from_ticking_thread():
    wrapped = ThreadSafeScheduler(OrderedListScheduler())
    fired = []

    def rearm(timer):
        fired.append(wrapped.now)
        if len(fired) < 3:
            wrapped.start_timer(4, callback=rearm)

    wrapped.start_timer(4, callback=rearm)
    wrapped.advance(20)
    assert fired == [4, 8, 12]


def test_concurrent_clients_and_ticker():
    """Client threads start/stop while a ticker thread drives the clock;
    bookkeeping must balance exactly at the end."""
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=128))
    stop_flag = threading.Event()
    errors = []

    def ticker():
        try:
            while not stop_flag.is_set():
                wrapped.tick()
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    def client(seed):
        rng = random.Random(seed)
        mine = []
        try:
            for _ in range(300):
                if rng.random() < 0.6 or not mine:
                    mine.append(wrapped.start_timer(rng.randint(1, 400)))
                else:
                    victim = mine.pop(rng.randrange(len(mine)))
                    try:
                        wrapped.stop_timer(victim)
                    except Exception:
                        pass  # expired concurrently: legitimate race
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    ticker_thread = threading.Thread(target=ticker)
    clients = [threading.Thread(target=client, args=(s,)) for s in range(4)]
    ticker_thread.start()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    stop_flag.set()
    ticker_thread.join()

    assert errors == []
    inner = wrapped.inner
    assert (
        inner.total_started
        == inner.total_stopped + inner.total_expired + inner.pending_count
    )
    # Drain and confirm structural integrity end to end.
    wrapped.advance(500)
    assert wrapped.pending_count == 0


def test_shutdown_under_lock():
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=32))
    for _ in range(5):
        wrapped.start_timer(100)
    cancelled = wrapped.shutdown()
    assert len(cancelled) == 5


def test_error_policy_surface_is_serialised():
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=32))
    wrapped.set_error_policy("collect")
    wrapped.start_timer(2, callback=lambda t: (_ for _ in ()).throw(RuntimeError("x")))
    wrapped.advance(2)
    errors = wrapped.callback_errors
    assert len(errors) == 1
    assert isinstance(errors[0][1], RuntimeError)
    # The property returns a snapshot, not the live ring.
    errors.append("sentinel")
    assert len(wrapped.callback_errors) == 1
    drained = wrapped.clear_callback_errors()
    assert len(drained) == 1
    assert wrapped.callback_errors == []
    assert wrapped.dropped_errors == 0


def test_error_capacity_through_facade():
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=32))
    wrapped.set_error_policy("collect")
    wrapped.set_error_capacity(2)

    def boom(timer):
        raise RuntimeError(str(timer.request_id))

    for i in range(5):
        wrapped.start_timer(1, request_id=f"t{i}", callback=boom)
        wrapped.advance(1)
    assert len(wrapped.callback_errors) == 2
    assert wrapped.dropped_errors == 3


def test_callback_raising_mid_hop_releases_the_lock():
    """Regression: a propagating Expiry_Action inside an advance_to hop
    must not leave the module lock held — a second thread's START_TIMER
    would deadlock forever."""
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=32))

    def boom(timer):
        raise RuntimeError("mid-hop failure")

    wrapped.start_timer(3, callback=boom)
    try:
        wrapped.advance(5)
    except RuntimeError:
        pass
    else:  # pragma: no cover - the raise is the scenario under test
        raise AssertionError("expected the callback error to propagate")

    # If the lock leaked, this second-thread operation would hang.
    result = {}

    def other_thread():
        result["timer"] = wrapped.start_timer(7, request_id="after")

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), "lock leaked by the raising callback"
    assert result["timer"].request_id == "after"
    # And the facade remains fully usable on the original thread.
    wrapped.set_error_policy("collect")
    wrapped.advance(10)
    assert wrapped.pending_count == 0


def test_error_policy_flip_races_ticker_without_deadlock():
    """set_error_policy contends with a hot advance_to loop; both sides
    must make progress and the facade must never drop the lock early."""
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=64))
    wrapped.set_error_policy("collect")
    stop_flag = threading.Event()
    errors = []

    def boom(timer):
        raise RuntimeError("expected")

    def ticker():
        try:
            while not stop_flag.is_set():
                wrapped.start_timer(1, callback=boom)
                wrapped.advance(2)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def flipper():
        try:
            for _ in range(200):
                wrapped.set_error_policy("collect")
                wrapped.clear_callback_errors()
                _ = wrapped.dropped_errors
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    ticker_thread = threading.Thread(target=ticker)
    flip_thread = threading.Thread(target=flipper)
    ticker_thread.start()
    flip_thread.start()
    flip_thread.join(timeout=30)
    stop_flag.set()
    ticker_thread.join(timeout=30)
    assert not ticker_thread.is_alive() and not flip_thread.is_alive()
    assert errors == []


class _StaleNextEventScheduler(HashedWheelUnsortedScheduler):
    """A scheduler whose ``_next_event`` lies: it claims an event at the
    *current* tick forever. The base scheduler tolerates that (a gap of
    zero falls through to plain per-tick bookkeeping), so the stub is a
    legal, if pessimal, ``_next_event`` implementation — and exactly the
    shape that used to livelock the facade's hop loop."""

    MAX_PROBES = 5_000

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.probes = 0

    def _next_event(self):
        self.probes += 1
        if self.probes > self.MAX_PROBES:
            raise AssertionError(
                "advance_to hop loop made no progress "
                f"after {self.MAX_PROBES} _next_event probes (livelock)"
            )
        return self._now


def test_advance_to_makes_progress_on_stale_next_event():
    """Regression: a ``_next_event`` claim at tick <= now made every hop
    a no-op, spinning the facade's advance_to loop forever. Each hop must
    now advance the clock by at least one tick."""
    inner = _StaleNextEventScheduler(table_size=32)
    wrapped = ThreadSafeScheduler(inner)
    fired = []
    wrapped.start_timer(5, request_id="x", callback=lambda t: fired.append(t.request_id))
    expired = wrapped.advance_to(20)
    assert wrapped.now == 20
    assert fired == ["x"]
    assert [t.request_id for t in expired] == ["x"]
    # One probe per one-tick hop, plus the wrapped scheduler's own
    # internal probing — nowhere near the livelock ceiling.
    assert inner.probes <= 4 * 20


def _public_surface(cls) -> set:
    return {name for name in dir(cls) if not name.startswith("_")}


@pytest.mark.parametrize(
    "facade_cls",
    [ThreadSafeScheduler, ShardedTimerService, SupervisedScheduler, DurableScheduler],
    ids=["threadsafe", "sharded", "supervised", "durable"],
)
def test_facade_covers_full_public_scheduler_surface(facade_cls):
    """Drift guard: every public TimerScheduler attribute must exist on
    every layer, or a stack composed from them raises AttributeError
    (or callers fall back to unserialised access to the wrapped
    scheduler)."""
    missing = _public_surface(TimerScheduler) - set(dir(facade_cls))
    assert not missing, (
        f"{facade_cls.__name__} is missing public TimerScheduler "
        f"surface: {sorted(missing)}"
    )


def test_new_passthroughs_are_serialised_and_functional():
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=32))
    timer = wrapped.start_timer(9, request_id="probe")
    assert wrapped.get_timer("probe") is timer
    assert [t.request_id for t in wrapped.pending_timers()] == ["probe"]
    assert wrapped.max_start_interval() is None
    assert wrapped.free_record_count == 0
    assert wrapped.is_shut_down is False
    assert "collect" in wrapped.ERROR_POLICIES
    wrapped.shutdown()
    assert wrapped.is_shut_down is True


def test_update_timer_is_serialised_through_the_facade():
    wrapped = ThreadSafeScheduler(HashedWheelUnsortedScheduler(table_size=64))
    fired = []
    wrapped.start_timer(
        200, request_id="a", callback=lambda t: fired.append(wrapped.now)
    )
    # Hammer update_timer from several threads while the ticker runs; the
    # lock must serialise every re-arm against the wheel's slot surgery.
    def storm(seed):
        rng = random.Random(seed)
        for _ in range(50):
            try:
                wrapped.update_timer("a", rng.randint(150, 400))
            except Exception:  # noqa: BLE001 - may lose the race to expiry
                return

    ticker = threading.Thread(target=lambda: wrapped.advance(100))
    clients = [threading.Thread(target=storm, args=(s,)) for s in range(4)]
    for t in clients + [ticker]:
        t.start()
    for t in clients + [ticker]:
        t.join()
    assert fired == []  # every re-arm kept the deadline beyond the horizon
    assert wrapped.pending_count == 1
    assert wrapped.introspect()["total_updated"] == 200
    wrapped.update_timer("a", 3)
    wrapped.advance(5)
    assert len(fired) == 1
