"""Scheme 6 — hash table with unsorted lists in each bucket (Section 6.1.2).

"If a worst case START_TIMER latency of O(n) is unacceptable, we can
maintain each time list as an unordered list ... Thus START_TIMER has a
worst case and average latency of O(1). But PER_TICK_BOOKKEEPING now takes
longer: every timer tick ... we must decrement the high order bits for
every element in the [bucket], exactly as in Scheme 1."

The paper's strong average-cost statement — every ``TableSize`` ticks each
living timer is decremented once, so per-tick work averages
``n / TableSize`` regardless of the hash distribution (the hash controls
only burstiness) — is what the SEC7 and SEC62 benches measure. This is the
scheme the authors implemented in MACRO-11 on a VAX (Section 7); the
instrumented operation charges below are calibrated so the default
:class:`~repro.cost.vax.VaxCostModel` reproduces the published constants:
insert 13, delete 7, empty tick 4, decrement-and-advance 6, expire 9 cheap
instructions (see ``tests/cost/test_vax.py``).

Timers carry their high-order rounds count in ``timer._rounds``
(``interval // table_size``); a bucket visit expires entries whose count is
zero and decrements the rest.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.soa_base import StoreSelectable
from repro.core.validation import check_positive_int
from repro.cost.counters import OpCounter
from repro.structures.bitmap import SlotBitmap
from repro.structures.dlist import DLinkedList


class HashedWheelGeometry(TimerScheduler):
    """Scheme 6's hashed wheel, independent of where the timers are stored.

    Owns the calibrated charges, the cursor and occupancy bitmap, the
    hash and rounds arithmetic, the sparse-tick fast path and
    ``introspect`` for both :class:`HashedWheelUnsortedScheduler` (object
    records) and its struct-of-arrays twin
    :class:`~repro.core.soa_schemes.SoAHashedWheelUnsortedScheduler`. A
    store class adds the bucket containers and the four store hooks.
    """

    scheme_name = "scheme6"

    # Operation mixes calibrated to the Section 7 instruction counts
    # (one cheap instruction per abstract op under the default VaxCostModel).
    _INSERT_CHARGE = dict(reads=4, writes=4, compares=1, links=4)  # = 13
    _DELETE_CHARGE = dict(reads=2, writes=1, links=4)  # = 7
    _EMPTY_TICK_CHARGE = dict(reads=2, writes=1, compares=1)  # = 4
    _DECREMENT_CHARGE = dict(reads=3, writes=1, compares=1, links=1)  # = 6
    _EXPIRE_CHARGE = dict(reads=3, writes=3, compares=1, links=2)  # = 9
    # UPDATE_TIMER fuses the delete and re-insert into one bucket hop:
    # unlink (4 links' worth of splicing shared with relink), rehash, and
    # store the fresh rounds count — half the DELETE+INSERT bill (7 + 13).
    _UPDATE_CHARGE = dict(reads=3, writes=2, compares=1, links=4)  # = 10

    def __init__(
        self, table_size: int = 256, counter: Optional[OpCounter] = None
    ) -> None:
        super().__init__(counter)
        check_positive_int("table_size", table_size)
        self.table_size = table_size
        self._cursor = 0  # invariant: cursor == now % table_size
        # One bit per bucket, set while the bucket is non-empty; fast-path
        # bookkeeping only, never charged.
        self._occupancy = SlotBitmap(table_size)
        #: bucket entries visited (decremented or expired) across all ticks;
        #: the Section 6.2 quantity — a timer alive T ticks is visited
        #: ~T/TableSize times.
        self.entry_visits = 0

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the hash array)."""
        return self._cursor

    @abc.abstractmethod
    def bucket_sizes(self) -> List[int]:
        """Occupancy of each bucket, for inspection and tests."""

    def bucket_index_for(self, interval: int) -> int:
        """The slot an interval hashes to: ``(cursor + interval) mod size``."""
        return (self._cursor + interval) % self.table_size

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "hashed-wheel-unsorted",
            "table_size": self.table_size,
            "cursor": self._cursor,
            "chains": occupancy_summary(self.bucket_sizes()),
            "entry_visits": self.entry_visits,
        }
        return info

    def rounds_for(self, interval: int) -> int:
        """Remaining full wheel revolutions stored with the entry.

        For ``interval = q * size + r`` with ``r > 0`` this is the paper's
        high-order bits ``q`` (Figure 9). When ``r == 0`` the slot is first
        visited a whole revolution after insertion, so the count must be
        ``q - 1`` — hence ``(interval - 1) // size``, which agrees with
        ``interval // size`` in every ``r > 0`` case.
        """
        return (interval - 1) // self.table_size

    def next_expiry(self) -> Optional[int]:
        """Next occupied-bucket visit: a lower bound on the next firing.

        A visited entry may only have its rounds count decremented (still
        a structure touch the cost model charges); ``advance_to`` treats
        every occupied visit as a real event, so the bound is safe.
        """
        index = self._occupancy.next_set_circular(
            (self._cursor + 1) % self.table_size
        )
        if index is None:
            return None
        distance = (index - self._cursor - 1) % self.table_size + 1
        return self._now + distance

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Every tick pays the calibrated 4-instruction empty-tick charge
        # (Section 7) before the bucket walk; skipped ticks visit only
        # empty buckets, so that charge is the whole cost.
        self._cursor = (self._cursor + count) % self.table_size
        self.counter.charge(
            reads=self._EMPTY_TICK_CHARGE["reads"] * count,
            writes=self._EMPTY_TICK_CHARGE["writes"] * count,
            compares=self._EMPTY_TICK_CHARGE["compares"] * count,
        )


class HashedWheelUnsortedScheduler(StoreSelectable, HashedWheelGeometry):
    """Scheme 6: hashed timing wheel, per-bucket unsorted lists.

    ``store="soa"`` returns the struct-of-arrays twin
    (:class:`~repro.core.soa_schemes.SoAHashedWheelUnsortedScheduler`):
    same scheme, same charges, a fraction of the memory; see
    ``docs/performance.md``.
    """

    _soa_twin = "SoAHashedWheelUnsortedScheduler"

    def __init__(
        self,
        table_size: int = 256,
        counter: Optional[OpCounter] = None,
        store: str = "object",
        soa_store=None,
    ) -> None:
        # ``store`` and ``soa_store`` are consumed by StoreSelectable.__new__.
        super().__init__(table_size, counter)
        self._buckets = [DLinkedList() for _ in range(table_size)]

    def bucket_sizes(self) -> List[int]:
        return [len(bucket) for bucket in self._buckets]

    def _insert(self, timer: Timer) -> None:
        index = self.bucket_index_for(timer.interval)
        timer._slot_index = index
        timer._rounds = self.rounds_for(timer.interval)
        self.counter.charge(**self._INSERT_CHARGE)
        self._buckets[index].push_front(timer)
        self._occupancy.set(index)

    def _remove(self, timer: Timer) -> None:
        index = timer._slot_index
        self._buckets[index].remove(timer)
        timer._slot_index = -1
        self.counter.charge(**self._DELETE_CHARGE)
        if not self._buckets[index]:
            self._occupancy.clear(index)

    def _update(self, timer: Timer, new_interval: int) -> None:
        old_index = timer._slot_index
        self._buckets[old_index].remove(timer)
        if not self._buckets[old_index]:
            self._occupancy.clear(old_index)
        now = self._now
        timer.interval = new_interval
        timer.started_at = now
        timer.deadline = now + new_interval
        timer._remaining = new_interval
        timer._fire_at = timer.deadline
        index = self.bucket_index_for(new_interval)
        timer._slot_index = index
        timer._rounds = self.rounds_for(new_interval)
        self.counter.charge(**self._UPDATE_CHARGE)
        self._buckets[index].push_front(timer)
        self._occupancy.set(index)

    def _collect_expired(self) -> List[Timer]:
        # Increment the pointer (mod TableSize); walk the whole bucket,
        # expiring zero-count entries and decrementing the rest — "exactly
        # as in Scheme 1" but confined to one bucket.
        self._cursor = (self._cursor + 1) % self.table_size
        bucket = self._buckets[self._cursor]
        self.counter.charge(**self._EMPTY_TICK_CHARGE)
        if not bucket:
            return []
        expired: List[Timer] = []
        for node in bucket:
            timer: Timer = node  # bucket lists hold only Timers
            # Every visited entry pays the 6-instruction decrement-and-
            # advance; an expiring entry pays the 9-instruction delete+
            # expiry on top (Section 7's "all n timers will be decremented
            # and possibly expire" accounting: 15 per expiring visit).
            self.counter.charge(**self._DECREMENT_CHARGE)
            self.entry_visits += 1
            if timer._rounds == 0:
                bucket.remove(timer)
                timer._slot_index = -1
                self.counter.charge(**self._EXPIRE_CHARGE)
                expired.append(timer)
            else:
                timer._rounds -= 1
        if not bucket:
            self._occupancy.clear(self._cursor)
        return expired
