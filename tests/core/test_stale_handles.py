"""Generation-tagged handles: use-after-free across the SoA row free list.

The SoA store's free list is its allocator, so a row freed by expiry or
STOP_TIMER is handed to the next START_TIMER. A client still holding the
old int handle (or view) must not reach the new timer: every row carries
a generation that bumps on free, the handle packs it, and resolving a
handle whose generation has moved on raises
:class:`StaleTimerHandleError` (a :class:`TimerStateError`). The object
store needs no tag: it never reuses a record, so the record itself is an
unambiguous reference.
"""

from __future__ import annotations

import pytest

from repro.core.errors import StaleTimerHandleError, TimerStateError
from repro.core.scheme6_hashed_unsorted import HashedWheelUnsortedScheduler
from repro.structures.soa import unpack_handle


def _sched():
    return HashedWheelUnsortedScheduler(64, store="soa")


def _row(handle):
    return unpack_handle(handle)[0]


def _recycled_pair(sched):
    """Expire one timer, reuse its row; returns (stale_handle, victim)."""
    first = sched.start_timer(3, request_id="first")
    handle = first.handle
    sched.advance(3)  # expire -> row freed
    victim = sched.start_timer(50, request_id="victim")
    assert _row(victim.handle) == _row(handle), "free list must reuse the row"
    return handle, victim


def test_handle_tracks_generations():
    sched = _sched()
    view = sched.start_timer(3, request_id="x")
    handle = view.handle
    assert not view.stale
    assert sched.get_timer(handle).request_id == "x"
    assert view.generation == 0
    sched.advance(3)  # the expiry frees the row: its generation moves on
    assert view.stale
    reborn = sched.start_timer(5)
    assert _row(reborn.handle) == _row(handle)
    assert reborn.generation == 1
    assert reborn.handle != handle


def test_stale_handle_stop_raises_instead_of_cancelling_victim():
    sched = _sched()
    handle, victim = _recycled_pair(sched)
    with pytest.raises(StaleTimerHandleError):
        sched.stop_timer(handle)
    # The row's new timer is untouched.
    assert not victim.stale
    assert sched.pending_count == 1
    assert sched.is_pending("victim")


def test_is_pending_accepts_handles_without_raising():
    sched = _sched()
    view = sched.start_timer(3, request_id="x")
    handle = view.handle
    assert sched.is_pending(handle)
    assert sched.is_pending(view)
    sched.advance(3)
    assert not sched.is_pending(handle)
    sched.start_timer(9)  # reuses the row: the probe stays non-throwing
    assert not sched.is_pending(handle)
    assert not sched.is_pending(view)


def test_stop_by_live_handle_works():
    sched = _sched()
    view = sched.start_timer(30, request_id="x")
    stopped = sched.stop_timer(view.handle)
    assert stopped.request_id == "x"
    assert not sched.is_pending("x")


def test_stopping_finalised_but_unrecycled_handle_is_state_error():
    """Before reuse the row is already free; the stop is a state error."""
    sched = _sched()
    view = sched.start_timer(3, request_id="x")
    handle = view.handle
    sched.advance(3)
    with pytest.raises(TimerStateError):
        sched.stop_timer(handle)


def test_soa_store_enforces_the_same_contract_natively():
    sched = _sched()
    view = sched.start_timer(3)
    handle = view.handle
    sched.advance(3)  # expiry frees the row immediately
    victim = sched.start_timer(50)  # row reused under a new generation
    with pytest.raises(StaleTimerHandleError):
        sched.stop_timer(handle)
    with pytest.raises(StaleTimerHandleError):
        view.deadline
    assert not sched.is_pending(handle)
    assert sched.is_pending(victim.handle)
    assert sched.pending_count == 1

