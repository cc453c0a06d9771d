"""Scheme 5 — hash table with sorted lists in each bucket (Section 6.1.1).

Extension 1 hashes an arbitrary-size interval onto a fixed-size wheel: with
a power-of-two table size "the remainder (low order bits) is added to the
current time pointer to yield the index within the array. The result of the
division (high order bits) is stored in a list pointed to by the index."

In Scheme 5 each bucket list is kept sorted "exactly as in Scheme 2", so a
bucket visit touches only the head. START_TIMER's worst case stays O(n),
but the average is O(1) when ``n < TableSize`` and the hash spreads timers
uniformly. The paper closes with "a pleasing observation ... the scheme
reduces to Scheme 2 if the array size is 1"; a test pins that down.

Bucket entries are ordered by absolute deadline. The paper describes the
equivalent decrement form (sorted by remaining high-order bits, decrement
the head per visit); Section 3.1 notes DECREMENT vs. COMPARE-absolute-time
is an implementation choice valid "for all timer schemes we describe".
Deadline ordering within a bucket is identical to high-order-bit ordering
because every entry in a bucket shares the same low-order offset.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.validation import check_positive_int
from repro.cost.counters import OpCounter
from repro.structures.bitmap import SlotBitmap
from repro.structures.sorted_list import SearchDirection, SortedDList


class HashedWheelSortedScheduler(TimerScheduler):
    """Scheme 5: hashed timing wheel, per-bucket sorted lists."""

    scheme_name = "scheme5"

    def __init__(
        self,
        table_size: int = 256,
        counter: Optional[OpCounter] = None,
    ) -> None:
        super().__init__(counter)
        check_positive_int("table_size", table_size)
        self.table_size = table_size
        self._buckets = [
            SortedDList(
                key=lambda node: node.deadline,  # type: ignore[attr-defined]
                direction=SearchDirection.FROM_HEAD,
                counter=self.counter,
            )
            for _ in range(table_size)
        ]
        self._cursor = 0
        #: comparisons made by the most recent insertion (FIG9 metering).
        self.last_insert_compares = 0
        # One bit per bucket, set while the bucket is non-empty; fast-path
        # bookkeeping only, never charged.
        self._occupancy = SlotBitmap(table_size)

    @property
    def cursor(self) -> int:
        """Current time pointer (index into the hash array)."""
        return self._cursor

    def bucket_sizes(self) -> List[int]:
        """Occupancy of each bucket, for inspection and tests."""
        return [len(bucket) for bucket in self._buckets]

    def bucket_index_for(self, interval: int) -> int:
        """The slot an interval hashes to: ``(cursor + interval) mod size``.

        With a power-of-two table size the ``mod`` is the paper's cheap AND
        of the low-order bits.
        """
        return (self._cursor + interval) % self.table_size

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "hashed-wheel-sorted",
            "table_size": self.table_size,
            "cursor": self._cursor,
            "chains": occupancy_summary(self.bucket_sizes()),
            "last_insert_compares": self.last_insert_compares,
        }
        return info

    def next_expiry(self) -> Optional[int]:
        """Next occupied-bucket visit: a lower bound on the next firing.

        The visited bucket's head may still be due in a later revolution
        (the visit then costs one extra read + compare and fires nothing);
        ``advance_to`` treats every such visit as a real event, so the
        bound is safe.
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
        # Per empty tick: cursor write, bucket read, emptiness compare.
        self._cursor = (self._cursor + count) % self.table_size
        self.counter.charge(writes=count, reads=count, compares=count)

    def _insert(self, timer: Timer) -> None:
        index = self.bucket_index_for(timer.interval)
        timer._slot_index = index
        timer._rounds = timer.interval // self.table_size  # high-order bits
        self.counter.charge(reads=1, writes=1)  # hash + store high bits
        self.last_insert_compares = self._buckets[index].insert(timer)
        self._occupancy.set(index)

    def _remove(self, timer: Timer) -> None:
        index = timer._slot_index
        self._buckets[index].remove(timer)
        timer._slot_index = -1
        if not self._buckets[index]:
            self._occupancy.clear(index)

    def _collect_expired(self) -> List[Timer]:
        # Advance the current time pointer; if the bucket is empty there is
        # no more work (O(1) per tick). Otherwise only the head of the
        # sorted list is examined, "as in Scheme 2".
        self._cursor = (self._cursor + 1) % self.table_size
        self.counter.write(1)
        bucket = self._buckets[self._cursor]
        self.counter.read(1)
        self.counter.compare(1)
        expired: List[Timer] = []
        while bucket:
            head: Timer = bucket.head  # type: ignore[assignment]
            self.counter.read(1)
            self.counter.compare(1)
            if head.deadline > self._now:
                break
            bucket.pop_front()
            head._slot_index = -1
            expired.append(head)
        if not bucket:
            self._occupancy.clear(self._cursor)
        return expired
