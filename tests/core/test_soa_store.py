"""SoA-vs-object equivalence for the hot wheel schemes (4, 6, 7).

The ``store="soa"`` constructor switch must be *observably invisible*:
for any operation sequence, the struct-of-arrays twin and the object
scheme produce bit-identical OpCounter totals, expiry streams (order
included), lifecycle totals, and sparse-tick behaviour. These tests
drive both stores with shared randomised workloads and diff everything;
the chaos differential (``tests/faults/test_chaos_differential.py``)
extends the same identity through supervision and fault plans.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import (
    StaleTimerHandleError,
    TimerConfigurationError,
    TimerStateError,
    UnknownTimerError,
)
from repro.core.interface import Timer, TimerState
from repro.core.registry import make_scheduler
from repro.core.scheme4_wheel import TimingWheelScheduler
from repro.core.scheme6_hashed_unsorted import HashedWheelUnsortedScheduler
from repro.core.scheme7_hierarchical import HierarchicalWheelScheduler
from repro.core.scheme7_variants import LossyHierarchicalScheduler
from repro.core.soa_base import SoATimerScheduler
from repro.structures.soa import SoATimerView

#: (name, factory) for each scheme with an SoA twin; the factory takes
#: only the ``store`` kwarg so both stores share identical geometry.
PAIRS = [
    ("scheme4", lambda store: TimingWheelScheduler(1 << 11, store=store)),
    ("scheme6", lambda store: HashedWheelUnsortedScheduler(128, store=store)),
    (
        "scheme7",
        lambda store: HierarchicalWheelScheduler((16, 16, 16), store=store),
    ),
    (
        "scheme7-span",
        lambda store: HierarchicalWheelScheduler(
            (16, 16, 16), placement="span", store=store
        ),
    ),
]
IDS = [name for name, _ in PAIRS]


def drive(sched, seed: int, steps: int = 300, max_interval: int = 2000):
    """A deterministic start/stop/update/tick/advance mix.

    Returns every observable artefact. The update calls put each scheme's
    fused UPDATE charge (and scheme 7's placement search under both
    rules) into the OpCounter totals the stores are compared on.
    """
    rng = random.Random(seed)
    fired = []
    live = {}
    for step in range(steps):
        for _ in range(rng.randint(0, 3)):
            interval = rng.randint(1, max_interval)
            key = f"t{step}.{len(live)}.{interval}"
            sched.start_timer(
                interval,
                request_id=key,
                callback=lambda t: fired.append(
                    (t.request_id, t.interval, t.fired_at)
                ),
            )
            live[key] = True
        if live and rng.random() < 0.25:
            key = rng.choice(sorted(live))
            if sched.is_pending(key):
                stopped = sched.stop_timer(key)
                assert stopped.state is TimerState.STOPPED
            del live[key]
        if live and rng.random() < 0.3:
            key = rng.choice(sorted(live))
            if sched.is_pending(key):
                updated = sched.update_timer(key, rng.randint(1, max_interval))
                assert updated.request_id == key
        if rng.random() < 0.4:
            sched.advance(rng.randint(1, 30))
        else:
            sched.tick()
    drained = sched.run_until_idle()
    return (
        fired,
        [(t.request_id, t.interval, t.fired_at) for t in drained],
        sched.counter.snapshot(),
        (sched.total_started, sched.total_stopped, sched.total_expired),
        sched.now,
    )


@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_soa_matches_object_bit_for_bit(name, factory):
    for seed in (3, 17):
        assert drive(factory("object"), seed) == drive(factory("soa"), seed)


@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_soa_fast_path_matches_per_tick_oracle(name, factory):
    """advance_to on the SoA store == tick-by-tick on the SoA store."""
    def run(use_advance: bool):
        sched = factory("soa")
        fired = []
        for i, interval in enumerate([1, 7, 130, 131, 977, 1999]):
            sched.start_timer(
                interval,
                request_id=f"k{i}",
                callback=lambda t: fired.append((t.request_id, t.fired_at)),
            )
        if use_advance:
            sched.advance_to(2100)
        else:
            for _ in range(2100):
                sched.tick()
        return fired, sched.counter.snapshot(), sched.now

    assert run(True) == run(False)


@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_soa_expiry_order_within_tick(name, factory):
    """Same-slot timers drain LIFO on both stores (push_front semantics)."""
    def order(store):
        sched = factory(store)
        fired = []
        for key in ("a", "b", "c"):
            sched.start_timer(
                5, request_id=key, callback=lambda t: fired.append(t.request_id)
            )
        sched.advance(5)
        return fired

    assert order("soa") == order("object") == ["c", "b", "a"]


def test_registry_accepts_store_kwarg():
    sched = make_scheduler("scheme6", table_size=64, store="soa")
    assert isinstance(sched, SoATimerScheduler)
    assert sched.scheme_name == "scheme6"
    assert make_scheduler("scheme6", table_size=64).introspect()["store"] == (
        "object"
    )


def test_store_kwarg_validation():
    with pytest.raises(TimerConfigurationError):
        TimingWheelScheduler(64, store="rowwise")
    # Subclasses keep their object records: no silent SoA dispatch.
    with pytest.raises(TimerConfigurationError):
        LossyHierarchicalScheduler((16, 16), store="soa")


class TestSoAClientSurface:
    def _sched(self):
        return HashedWheelUnsortedScheduler(64, store="soa")

    def test_start_returns_live_view(self):
        sched = self._sched()
        view = sched.start_timer(9, request_id="x", user_data=123)
        assert isinstance(view, SoATimerView)
        assert view.request_id == "x"
        assert view.deadline == 9
        assert view.user_data == 123
        assert sched.pending_count == 1

    def test_auto_id_is_int_handle_no_dict_entry(self):
        sched = self._sched()
        view = sched.start_timer(5)
        assert isinstance(view.request_id, int)
        assert view.request_id == view.handle
        assert sched._id_rows == {}  # the memory tier: no per-timer id map
        assert sched.is_pending(view.handle)
        stopped = sched.stop_timer(view.handle)
        assert stopped.state is TimerState.STOPPED
        assert stopped.request_id == view.handle

    def test_stop_by_view_id_and_handle(self):
        sched = self._sched()
        a = sched.start_timer(5, request_id="a")
        assert sched.stop_timer(a).request_id == "a"
        sched.start_timer(5, request_id="b")
        assert sched.stop_timer("b").request_id == "b"
        c = sched.start_timer(5, request_id="c")
        assert sched.stop_timer(c.handle).request_id == "c"

    def test_duplicate_explicit_id_rejected(self):
        sched = self._sched()
        sched.start_timer(5, request_id="dup")
        with pytest.raises(TimerStateError):
            sched.start_timer(9, request_id="dup")

        # An explicit id equal to a live auto handle names that timer.
        sched = self._sched()
        auto = sched.start_timer(10)
        with pytest.raises(TimerStateError):
            sched.start_timer(20, request_id=auto.request_id)
        assert sched.pending_count == 1
        assert sched.get_timer(auto.request_id).interval == 10

        # An auto handle is never one a live explicit id already holds:
        # row 1's first handle is 1, so the auto timer takes a later one.
        sched = self._sched()
        sched.start_timer(10, request_id=1)
        auto = sched.start_timer(20)
        assert auto.request_id != 1
        assert sched.stop_timer(1).interval == 10
        assert sched.is_pending(auto.request_id)
        assert sched.get_timer(auto.request_id).interval == 20

    def test_unknown_id_and_double_stop(self):
        sched = self._sched()
        with pytest.raises(UnknownTimerError):
            sched.stop_timer("ghost")
        view = sched.start_timer(5, request_id="once")
        sched.stop_timer("once")
        with pytest.raises(StaleTimerHandleError):
            sched.stop_timer(view)
        with pytest.raises(UnknownTimerError):
            sched.stop_timer("once")

    def test_stopping_a_materialised_record_is_a_state_error(self):
        sched = self._sched()
        sched.start_timer(3, request_id="gone")
        (expired,) = sched.advance(3)
        assert isinstance(expired, Timer)
        with pytest.raises(TimerStateError):
            sched.stop_timer(expired)

    def test_expired_timer_materialises_like_object_store(self):
        sched = self._sched()
        fired = []
        sched.start_timer(7, request_id="e", callback=fired.append)
        (timer,) = sched.advance(10)
        assert fired == [timer]
        assert timer.state is TimerState.EXPIRED
        assert timer.fired_at == timer.deadline == 7
        assert timer.interval == 7 and timer.started_at == 0
        assert sched.pending_count == 0

    def test_get_timer_and_pending_timers(self):
        sched = self._sched()
        sched.start_timer(5, request_id="g")
        auto = sched.start_timer(9)
        assert sched.get_timer("g").request_id == "g"
        assert sched.get_timer(auto.handle).interval == 9
        assert {v.request_id for v in sched.pending_timers()} == {
            "g",
            auto.handle,
        }
        with pytest.raises(UnknownTimerError):
            sched.get_timer("missing")

    def test_introspect_reports_store_and_rows(self):
        sched = self._sched()
        sched.start_timer(5)
        sched.start_timer(6, request_id="x")
        sched.stop_timer("x")
        info = sched.introspect()
        assert info["store"] == "soa"
        assert info["pending"] == 1
        assert info["free_records"] == 1
        assert info["store_bytes"] > 0
        assert info["bytes_per_timer"] > 0
        assert sched.free_record_count == 1

    def test_shutdown_cancels_rows(self):
        sched = self._sched()
        sched.start_timer(5, request_id="s")
        sched.start_timer(6)
        cancelled = sched.shutdown()
        assert sorted(t.state.value for t in cancelled) == [
            "stopped",
            "stopped",
        ]
        assert sched.pending_count == 0 and sched.is_shut_down
        assert sched.shutdown() == []  # idempotent

    def test_collect_error_policy(self):
        sched = self._sched()
        sched.set_error_policy("collect")

        def boom(timer):
            raise RuntimeError("bad action")

        sched.start_timer(2, request_id="b", callback=boom)
        sched.advance(3)
        ((timer, exc),) = sched.callback_errors
        assert timer.request_id == "b" and "bad action" in str(exc)

    def test_reentrant_start_in_callback(self):
        sched = self._sched()
        fired = []

        def rearm(timer):
            fired.append(sched.now)
            if len(fired) < 3:
                sched.start_timer(4, request_id="cycle", callback=rearm)

        sched.start_timer(4, request_id="cycle", callback=rearm)
        sched.run_until_idle()
        assert fired == [4, 8, 12]
