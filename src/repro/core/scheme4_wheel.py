"""Scheme 4 — basic timing wheel for bounded intervals (Section 5).

"If we can guarantee that all timers are set for periods less than
MaxInterval, this modified algorithm takes O(1) latency for START_TIMER,
STOP_TIMER, and PER_TICK_BOOKKEEPING. ... To set a timer at j units past
current time, we index into Element (i + j mod MaxInterval), and put the
timer at the head of a list of timers that will expire at a time =
CurrentTime + j units."

Unlike the logic-simulation wheels of Section 4.2 (Figure 7), this wheel
"turns one array element every timer unit", so no overflow list is ever
needed for in-range intervals — the property the paper highlights as the
departure from conventional timing-wheel algorithms.

In sorting terms this is a bucket sort that trades memory for processing;
the crucial observation (Section 5) is that stepping through an empty bucket
costs only a few instructions for the entity that must update the current
time anyway.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.soa_base import StoreSelectable
from repro.core.validation import check_positive_int
from repro.cost.counters import OpCounter
from repro.structures.bitmap import SlotBitmap
from repro.structures.dlist import DLinkedList


class TimingWheelGeometry(TimerScheduler):
    """Scheme 4's wheel, independent of where the timers are stored.

    Owns the circular buffer's arithmetic and bookkeeping — cursor,
    occupancy bitmap, UPDATE charge, the sparse-tick fast path and
    ``introspect`` — for both :class:`TimingWheelScheduler` (object
    records) and its struct-of-arrays twin
    :class:`~repro.core.soa_schemes.SoATimingWheelScheduler`. A store
    class adds the slot containers and the four store hooks.
    """

    scheme_name = "scheme4"

    # UPDATE_TIMER is two pointer splices on a wheel: unlink from the old
    # slot, relink at the recomputed one. The index arithmetic rides the
    # cursor the per-tick bookkeeping already maintains, so the whole
    # re-arm costs half the STOP+START round trip (1 + 3 charged ops).
    _UPDATE_CHARGE = dict(links=2)  # = 2

    def __init__(
        self, max_interval: int, counter: Optional[OpCounter] = None
    ) -> None:
        super().__init__(counter)
        check_positive_int("max_interval", max_interval)
        if max_interval < 2:
            # A 1-slot wheel can hold no interval (they must be < max).
            raise TimerConfigurationError("max_interval must be at least 2")
        self.max_interval = max_interval
        # The paper's current time pointer, in [0, max); the invariant
        # cursor == now % max_interval holds between ticks.
        self._cursor = 0
        # One bit per slot, set while the slot list is non-empty; pure
        # fast-path bookkeeping, never charged to the counter.
        self._occupancy = SlotBitmap(max_interval)

    def max_start_interval(self) -> Optional[int]:
        return self.max_interval

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the circular buffer)."""
        return self._cursor

    @abc.abstractmethod
    def slot_sizes(self) -> List[int]:
        """Occupancy of each slot, for inspection and tests."""

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "wheel",
            "max_interval": self.max_interval,
            "cursor": self._cursor,
            "slot_occupancy": occupancy_summary(self.slot_sizes()),
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Exact: every occupied slot's visit tick *is* a deadline here."""
        index = self._occupancy.next_set_circular(
            (self._cursor + 1) % self.max_interval
        )
        if index is None:
            return None
        # Circular distance from the cursor, mapping 0 to a full turn.
        distance = (index - self._cursor - 1) % self.max_interval + 1
        return self._now + distance

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Per empty tick: pointer increment (write), slot load (read),
        # zero check (compare); the cursor advances with the clock.
        self._cursor = (self._cursor + count) % self.max_interval
        self.counter.charge(writes=count, reads=count, compares=count)


class TimingWheelScheduler(StoreSelectable, TimingWheelGeometry):
    """Scheme 4: circular buffer of ``max_interval`` slots, one tick each.

    ``store`` selects the timer representation: ``"object"`` (default)
    keeps per-timer :class:`Timer` records on intrusive lists;
    ``"soa"`` returns the struct-of-arrays twin
    (:class:`~repro.core.soa_schemes.SoATimingWheelScheduler`) — same
    scheme, same OpCounter charges and expiry order, a fraction of the
    memory per timer (see ``docs/performance.md``).
    """

    _soa_twin = "SoATimingWheelScheduler"

    def __init__(
        self,
        max_interval: int,
        counter: Optional[OpCounter] = None,
        store: str = "object",
        soa_store=None,
    ) -> None:
        # ``store`` and ``soa_store`` are consumed by StoreSelectable.__new__.
        super().__init__(max_interval, counter)
        self._slots = [DLinkedList() for _ in range(max_interval)]

    def slot_sizes(self) -> List[int]:
        return [len(slot) for slot in self._slots]

    def _insert(self, timer: Timer) -> None:
        index = (self._cursor + timer.interval) % self.max_interval
        timer._slot_index = index
        # Index computation + push at the head of the slot list.
        self.counter.charge(reads=1, writes=1, links=1)
        self._slots[index].push_front(timer)
        self._occupancy.set(index)

    def _remove(self, timer: Timer) -> None:
        index = timer._slot_index
        self._slots[index].remove(timer)
        timer._slot_index = -1
        self.counter.link(1)
        if not self._slots[index]:
            self._occupancy.clear(index)

    def _update(self, timer: Timer, new_interval: int) -> None:
        old_index = timer._slot_index
        self._slots[old_index].remove(timer)
        if not self._slots[old_index]:
            self._occupancy.clear(old_index)
        now = self._now
        timer.interval = new_interval
        timer.started_at = now
        timer.deadline = now + new_interval
        timer._remaining = new_interval
        timer._fire_at = timer.deadline
        index = (self._cursor + new_interval) % self.max_interval
        timer._slot_index = index
        self.counter.charge(**self._UPDATE_CHARGE)
        self._slots[index].push_front(timer)
        self._occupancy.set(index)

    def _collect_expired(self) -> List[Timer]:
        # "Each tick we increment the current timer pointer (mod
        # MaxInterval) and check the array element being pointed to."
        self._cursor = (self._cursor + 1) % self.max_interval
        self.counter.write(1)  # pointer increment
        slot = self._slots[self._cursor]
        self.counter.read(1)  # load slot head
        self.counter.compare(1)  # zero check
        if not slot:
            return []
        self._occupancy.clear(self._cursor)  # the drain empties the slot
        expired: List[Timer] = []
        for node in slot.drain():
            timer: Timer = node  # slot lists hold only Timers
            timer._slot_index = -1
            self.counter.charge(reads=1, links=1)
            expired.append(timer)
        return expired
