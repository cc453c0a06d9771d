"""Schemes 4, 6 and 7 over the struct-of-arrays store.

Each class here is the row store of one hot wheel scheme, selected by
passing ``store="soa"`` to the object class's constructor (the dispatch
is :class:`~repro.core.soa_base.StoreSelectable`, so registry names and
client code never change). It inherits the scheme's geometry base —
:class:`~repro.core.scheme4_wheel.TimingWheelGeometry`,
:class:`~repro.core.scheme6_hashed_unsorted.HashedWheelGeometry` or
:class:`~repro.core.scheme7_hierarchical.HierarchicalWheelGeometry` —
alongside :class:`~repro.core.soa_base.SoATimerScheduler`, exactly as the
object class does alongside its lists. What is shared therefore lives
once: validation, cursor, occupancy bitmap, the calibrated ``_*_CHARGE``
constants (Scheme 6's Section 7 instruction mixes included), slot and
rounds arithmetic, Scheme 7's placement rules, the sparse-tick fast path
and ``introspect``.

What is store-specific is only the containers and the per-entry loops:
wheel slots are ``array('q')`` head tables, chains run through the
store's ``next``/``prev`` columns, and the scheme-private word (Scheme
6's rounds count, Scheme 7's level) lives in the ``aux`` column. The
row hooks charge the OpCounter at the same points as the object hooks,
and intra-slot expiry order matches because ``link_front`` + front-to-
back drain is exactly ``push_front`` + ``drain()``;
``tests/core/test_soa_store.py`` and the chaos differential diff the
counters and expiry streams between stores. What differs is memory: no
per-timer objects, no pointer-chased lists — the regime the MILLIONS
bench prices.

Slot indices are *derived*, not stored: scheme 4's wheel keeps the
invariant ``cursor == now % max_interval``, so a pending row's slot is
``deadline % max_interval`` (likewise ``deadline % table_size`` for
scheme 6 and ``(deadline // granularity) % slot_count`` per level for
scheme 7). That is what frees the store from a per-timer slot field.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.core.interface import Timer
from repro.core.observer import NULL_OBSERVER
from repro.core.scheme4_wheel import TimingWheelGeometry
from repro.core.scheme6_hashed_unsorted import HashedWheelGeometry
from repro.core.scheme7_hierarchical import (
    HierarchicalWheelGeometry,
    WheelLevel,
)
from repro.core.soa_base import SoATimerScheduler
from repro.cost.counters import OpCounter
from repro.structures.soa import NIL, SoATimerStore, SoATimerView


class SoATimingWheelScheduler(SoATimerScheduler, TimingWheelGeometry):
    """Scheme 4 on the SoA store: circular head table, one tick per slot."""

    def __init__(
        self,
        max_interval: int,
        counter: Optional[OpCounter] = None,
        soa_store: Optional[SoATimerStore] = None,
    ) -> None:
        super().__init__(max_interval, counter, soa_store=soa_store)
        self._heads = array("q", [NIL]) * max_interval

    def slot_sizes(self) -> List[int]:
        store = self._store
        return [store.chain_length(head) for head in self._heads]

    def _insert_row(self, row: int) -> None:
        store = self._store
        index = store.deadline_col[row] % self.max_interval
        # Index computation + push at the head of the slot chain.
        self.counter.charge(reads=1, writes=1, links=1)
        store.link_front(self._heads, index, row)
        self._occupancy.set(index)

    def _remove_row(self, row: int) -> None:
        store = self._store
        index = store.deadline_col[row] % self.max_interval
        store.unlink(self._heads, index, row)
        self.counter.link(1)
        if self._heads[index] == NIL:
            self._occupancy.clear(index)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        old_index = store.deadline_col[row] % self.max_interval
        store.unlink(self._heads, old_index, row)
        if self._heads[old_index] == NIL:
            self._occupancy.clear(old_index)
        now = self._now
        store.started_col[row] = now
        deadline = now + new_interval
        store.deadline_col[row] = deadline
        index = deadline % self.max_interval
        self.counter.charge(**self._UPDATE_CHARGE)
        store.link_front(self._heads, index, row)
        self._occupancy.set(index)

    def _collect_expired(self) -> List[Timer]:
        self._cursor = (self._cursor + 1) % self.max_interval
        counter = self.counter
        counter.write(1)  # pointer increment
        heads = self._heads
        head = heads[self._cursor]
        counter.read(1)  # load slot head
        counter.compare(1)  # zero check
        if head == NIL:
            return []
        self._occupancy.clear(self._cursor)  # the drain empties the slot
        heads[self._cursor] = NIL
        expired: List[Timer] = []
        next_col = self._store.next_col
        row = head
        while row != NIL:
            nxt = next_col[row]
            counter.charge(reads=1, links=1)
            expired.append(self._finalize_expired(row))
            row = nxt
        return expired


class SoAHashedWheelUnsortedScheduler(SoATimerScheduler, HashedWheelGeometry):
    """Scheme 6 on the SoA store: hashed head table, rounds in ``aux``."""

    def __init__(
        self,
        table_size: int = 256,
        counter: Optional[OpCounter] = None,
        soa_store: Optional[SoATimerStore] = None,
    ) -> None:
        super().__init__(table_size, counter, soa_store=soa_store)
        self._heads = array("q", [NIL]) * table_size

    def bucket_sizes(self) -> List[int]:
        store = self._store
        return [store.chain_length(head) for head in self._heads]

    def _insert_row(self, row: int) -> None:
        store = self._store
        interval = store.deadline_col[row] - store.started_col[row]
        index = store.deadline_col[row] % self.table_size
        store.aux_col[row] = self.rounds_for(interval)
        self.counter.charge(**self._INSERT_CHARGE)
        store.link_front(self._heads, index, row)
        self._occupancy.set(index)

    def _remove_row(self, row: int) -> None:
        store = self._store
        index = store.deadline_col[row] % self.table_size
        store.unlink(self._heads, index, row)
        self.counter.charge(**self._DELETE_CHARGE)
        if self._heads[index] == NIL:
            self._occupancy.clear(index)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        old_index = store.deadline_col[row] % self.table_size
        store.unlink(self._heads, old_index, row)
        if self._heads[old_index] == NIL:
            self._occupancy.clear(old_index)
        now = self._now
        store.started_col[row] = now
        deadline = now + new_interval
        store.deadline_col[row] = deadline
        index = deadline % self.table_size
        store.aux_col[row] = self.rounds_for(new_interval)
        self.counter.charge(**self._UPDATE_CHARGE)
        store.link_front(self._heads, index, row)
        self._occupancy.set(index)

    def _collect_expired(self) -> List[Timer]:
        # Walk the whole bucket, expiring zero-count entries and
        # decrementing the rest — "exactly as in Scheme 1", per bucket.
        self._cursor = (self._cursor + 1) % self.table_size
        counter = self.counter
        counter.charge(**self._EMPTY_TICK_CHARGE)
        heads = self._heads
        cursor = self._cursor
        if heads[cursor] == NIL:
            return []
        expired: List[Timer] = []
        store = self._store
        aux = store.aux_col
        next_col = store.next_col
        row = heads[cursor]
        while row != NIL:
            nxt = next_col[row]
            counter.charge(**self._DECREMENT_CHARGE)
            self.entry_visits += 1
            if aux[row] == 0:
                store.unlink(heads, cursor, row)
                counter.charge(**self._EXPIRE_CHARGE)
                expired.append(self._finalize_expired(row))
            else:
                aux[row] -= 1
            row = nxt
        if heads[cursor] == NIL:
            self._occupancy.clear(cursor)
        return expired


class _SoALevel(WheelLevel):
    """One wheel of the SoA hierarchy: a head table beside its bitmap."""

    __slots__ = ("heads",)

    def __init__(self, index: int, slot_count: int, granularity: int) -> None:
        super().__init__(index, slot_count, granularity)
        self.heads = array("q", [NIL]) * slot_count


class SoAHierarchicalWheelScheduler(
    SoATimerScheduler, HierarchicalWheelGeometry
):
    """Scheme 7 on the SoA store: per-level head tables, level in ``aux``."""

    _level_class = _SoALevel

    def slot_sizes(self, level: int) -> List[int]:
        store = self._store
        return [store.chain_length(h) for h in self._levels[level].heads]

    def _place(self, row: int) -> None:
        store = self._store
        deadline = store.deadline_col[row]
        level = self._charged_destination(deadline)
        slot_index = level.slot_for(deadline)
        store.aux_col[row] = level.index
        self.counter.charge(reads=1, writes=1, links=1)
        store.link_front(level.heads, slot_index, row)
        level.occupancy.set(slot_index)

    def _insert_row(self, row: int) -> None:
        self._place(row)

    def _remove_row(self, row: int) -> None:
        store = self._store
        level = self._levels[store.aux_col[row]]
        slot_index = level.slot_for(store.deadline_col[row])
        store.unlink(level.heads, slot_index, row)
        if level.heads[slot_index] == NIL:
            level.occupancy.clear(slot_index)
        self.counter.link(1)

    def _update_row(self, row: int, new_interval: int) -> None:
        store = self._store
        level = self._levels[store.aux_col[row]]
        slot_index = level.slot_for(store.deadline_col[row])
        store.unlink(level.heads, slot_index, row)
        if level.heads[slot_index] == NIL:
            level.occupancy.clear(slot_index)
        now = self._now
        store.started_col[row] = now
        deadline = now + new_interval
        store.deadline_col[row] = deadline
        # Same destination as _place, uncharged: the fused charge prices it.
        level, _ = self._destination(deadline)
        slot_index = level.slot_for(deadline)
        store.aux_col[row] = level.index
        self.counter.charge(**self._UPDATE_CHARGE)
        store.link_front(level.heads, slot_index, row)
        level.occupancy.set(slot_index)

    def _handle_cascaded(self, row: int, expired: List[Timer]) -> None:
        """One row drained from a cascading coarse slot: expire or migrate."""
        store = self._store
        if store.deadline_col[row] == self._now:
            expired.append(self._finalize_expired(row))
        else:
            self.migrations += 1
            from_level = store.aux_col[row]
            self._place(row)
            observer = self.observer
            if observer is not NULL_OBSERVER:
                observer.on_migrate(
                    self,
                    SoATimerView(store, row, store.meta_col[row] >> 1),
                    from_level,
                    store.aux_col[row],
                )

    def _collect_expired(self) -> List[Timer]:
        expired: List[Timer] = []
        now = self._now
        counter = self.counter
        store = self._store
        next_col = store.next_col
        counter.write(1)  # advance the clock

        # Coarse levels first: every boundary crossing cascades its slot —
        # each row either expires now or migrates to a finer wheel.
        for level in reversed(self._levels[1:]):
            if now % level.granularity != 0:
                continue
            self.cascades += 1
            counter.charge(reads=1, compares=1)
            slot_index = level.slot_for(now)
            head = level.heads[slot_index]
            level.occupancy.clear(slot_index)  # the drain empties the slot
            level.heads[slot_index] = NIL
            row = head
            while row != NIL:
                nxt = next_col[row]
                counter.charge(reads=1, links=1)
                self._handle_cascaded(row, expired)
                row = nxt

        # Level 0 advances every tick and expires with exact precision.
        base = self._levels[0]
        counter.charge(writes=1, reads=1, compares=1)
        slot_index = base.slot_for(now)
        head = base.heads[slot_index]
        base.occupancy.clear(slot_index)
        base.heads[slot_index] = NIL
        row = head
        while row != NIL:
            nxt = next_col[row]
            counter.charge(reads=1, links=1)
            expired.append(self._finalize_expired(row))
            row = nxt
        return expired
