"""Timer records are never reused.

START_TIMER always allocates a fresh record and the object store keeps no
free list, so a record returned by ``start_timer``, ``stop_timer`` or
``tick`` names its timer for as long as the client holds it, and no two
live timers ever share a record. The SoA store's free rows are covered in
``tests/core/test_soa_store.py`` and ``tests/core/test_stale_handles.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core import make_scheduler
from repro.core.interface import TimerState

from tests.conftest import ALL_SCHEMES, build


def test_off_by_default(any_scheduler):
    timer = any_scheduler.start_timer(3)
    any_scheduler.stop_timer(timer)
    assert any_scheduler.free_record_count == 0
    replacement = any_scheduler.start_timer(3)
    assert replacement is not timer
    # Finalised records stay valid indefinitely: nothing reuses them.
    assert timer.state is TimerState.STOPPED
    assert "free_records" not in any_scheduler.introspect()


class TestNoAliasingWhileActive:
    def test_pending_records_are_never_handed_out(self):
        scheduler = make_scheduler("scheme6")
        live = [scheduler.start_timer(1000 + i) for i in range(5)]
        for fresh in (scheduler.start_timer(50 + i) for i in range(5)):
            assert all(fresh is not t for t in live)

    def test_reentrant_start_cannot_reuse_this_ticks_record(self):
        scheduler = make_scheduler("scheme6")
        grabbed = []

        def expire_action(timer):
            grabbed.append(scheduler.start_timer(30))

        victim = scheduler.start_timer(4, callback=expire_action)
        scheduler.advance(4)
        assert grabbed[0] is not victim
        assert victim.state is TimerState.EXPIRED

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_recycled_ids_never_alias_active_records(self, scheme):
        """Random churn: every start returns a record no live timer holds."""
        rng = random.Random(1987)
        scheduler = build(scheme)
        active = {}  # id(record) -> record, while pending
        for _ in range(400):
            op = rng.random()
            if op < 0.55:
                timer = scheduler.start_timer(rng.randint(1, 300))
                assert id(timer) not in active, scheme
                active[id(timer)] = timer
            elif op < 0.7 and active:
                key = rng.choice(list(active))
                scheduler.stop_timer(active.pop(key))
            else:
                for timer in scheduler.advance(rng.randint(1, 40)):
                    active.pop(id(timer), None)
            assert all(t.pending for t in active.values()), scheme
        assert scheduler.free_record_count == 0
