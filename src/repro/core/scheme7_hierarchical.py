"""Scheme 7 — hierarchical timing wheels (Section 6.2).

"Instead [of one huge array] we can use a number of arrays, each of
different granularity. For instance ... a 100 element array in which each
element represents a day, a 24 element array [hours], a 60 element array
[minutes], a 60 element array [seconds]. Thus instead of 100*24*60*60 =
8.64 million locations to store timers up to 100 days, we need only
100 + 24 + 60 + 60 = 244 locations."

Level ``k`` has ``slot_counts[k]`` slots of granularity
``g[k] = slot_counts[0] * ... * slot_counts[k-1]`` ticks (``g[0] = 1``).
A timer is inserted at the lowest level whose span covers its remaining
time; when its slot is reached the timer *migrates* down ("EXPIRY_PROCESSING
will insert the remainder ... in the minute array"), expiring from level 0
with exact precision. The worked example of Figures 10–11 — an
(hour, minute, second) hierarchy at 11d 10:24:30 setting a 50m45s timer —
is reproduced verbatim in ``tests/core/test_scheme7.py``.

Costs (Section 6.2): START_TIMER is O(m) to find the right array among the
``m`` levels; STOP_TIMER is O(1) with doubly linked lists; a timer migrates
between at most ``m`` lists over its lifetime, so bookkeeping work per timer
is bounded by ``c7 * m`` versus Scheme 6's ``c6 * T / M`` — the trade the
SEC62 bench maps out.

The paper's formulation runs each coarser array off an internal 60-second /
60-minute / 24-hour timer ("there will always be a 60 second timer that is
used to update the minute array"). Equivalently — and how this module does
it — level ``k``'s cursor advances whenever ``now`` crosses a multiple of
``g[k]``, at which point its current slot *cascades*: every timer in it is
re-inserted by remaining time (or expired when due now). The observable
behaviour is identical; a test asserts cascade counts match the internal-
timer formulation.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import TimerConfigurationError
from repro.core.interface import Timer, TimerScheduler
from repro.core.introspect import occupancy_summary
from repro.core.soa_base import StoreSelectable
from repro.core.validation import check_positive_int
from repro.cost.counters import OpCounter
from repro.structures.bitmap import SlotBitmap
from repro.structures.dlist import DLinkedList

#: Seconds / minutes / hours / days, the paper's worked example (Figure 10),
#: with granularity 1 tick = 1 second. Spans 100 days of ticks.
PAPER_LEVELS: Tuple[int, ...] = (60, 60, 24, 100)

#: A power-of-two hierarchy similar to kernel timer wheels: four levels of
#: 256 slots spanning 2**32 ticks.
BINARY_LEVELS: Tuple[int, ...] = (256, 256, 256, 256)


class WheelLevel:
    """One wheel's geometry: slot count, granularity, span and occupancy.

    The per-level occupancy bitmap is the sparse-tick fast path's index,
    never charged to the counter. Each store subclasses this with its
    slot containers and keeps the bitmap in step with them.
    """

    __slots__ = ("index", "slot_count", "granularity", "span", "occupancy")

    def __init__(self, index: int, slot_count: int, granularity: int) -> None:
        self.index = index
        self.slot_count = slot_count
        self.granularity = granularity
        self.span = granularity * slot_count
        self.occupancy = SlotBitmap(slot_count)

    def slot_for(self, deadline: int) -> int:
        """The slot of this wheel whose drain covers ``deadline``."""
        return (deadline // self.granularity) % self.slot_count


class _Level(WheelLevel):
    """One wheel of the object store: a ``DLinkedList`` per slot.

    All slot mutation goes through :meth:`link` / :meth:`unlink` /
    :meth:`drain_slot` so the occupancy bitmap can never drift from the
    slot lists.
    """

    __slots__ = ("slots",)

    def __init__(self, index: int, slot_count: int, granularity: int) -> None:
        super().__init__(index, slot_count, granularity)
        self.slots = [DLinkedList() for _ in range(slot_count)]

    def link(self, slot_index: int, timer: "Timer") -> None:
        self.slots[slot_index].push_front(timer)
        self.occupancy.set(slot_index)

    def unlink(self, slot_index: int, timer: "Timer") -> None:
        slot = self.slots[slot_index]
        slot.remove(timer)
        if not slot:
            self.occupancy.clear(slot_index)

    def drain_slot(self, slot_index: int):
        """Drain one slot; clears its bit up front (the drain empties it)."""
        self.occupancy.clear(slot_index)
        return self.slots[slot_index].drain()


class HierarchicalWheelGeometry(TimerScheduler):
    """Scheme 7's hierarchy, independent of where the timers are stored.

    Owns the level arithmetic and both placement rules, the cascade and
    migration counters, the sparse-tick fast path and ``introspect`` for
    both :class:`HierarchicalWheelScheduler` (object records) and its
    struct-of-arrays twin
    :class:`~repro.core.soa_schemes.SoAHierarchicalWheelScheduler`. A
    store class names its level container in ``_level_class`` and adds
    the four store hooks.
    """

    scheme_name = "scheme7"

    #: the store's :class:`WheelLevel` subclass (its slot containers).
    _level_class = WheelLevel

    # UPDATE_TIMER on a hierarchy is two splices plus one level read: the
    # destination level search reuses the digit arithmetic the cascade
    # bookkeeping already pays, so one fused charge replaces the DELETE (1)
    # + placement-scan + INSERT (3) bill of a STOP+START round trip.
    _UPDATE_CHARGE = dict(reads=1, links=2)  # = 3

    def __init__(
        self,
        slot_counts: Sequence[int] = PAPER_LEVELS,
        counter: Optional[OpCounter] = None,
        placement: str = "paper",
    ) -> None:
        """``placement`` selects the insertion rule (an ablation knob):

        * ``"paper"`` (default) — the paper's mixed-radix rule: insert at
          the *highest* level whose time digit differs between now and the
          deadline (Figure 10 puts a 50m45s timer in the hour array because
          the hour digit changes 10 → 11). Timers may migrate up to m-1
          times.
        * ``"span"`` — insert at the *lowest* level whose span covers the
          remaining time (the rule modern kernel wheels use). Fewer
          migrations, same expiry ticks; the ablation bench quantifies the
          difference.
        """
        super().__init__(counter)
        if placement not in ("paper", "span"):
            raise TimerConfigurationError(
                f"placement must be 'paper' or 'span', got {placement!r}"
            )
        self.placement = placement
        if not slot_counts:
            raise TimerConfigurationError("at least one level is required")
        self._levels: List[WheelLevel] = []
        granularity = 1
        for index, count in enumerate(slot_counts):
            check_positive_int(f"slot_counts[{index}]", count)
            if count < 2:
                raise TimerConfigurationError(
                    f"slot_counts[{index}] must be >= 2 to be a wheel"
                )
            self._levels.append(self._level_class(index, count, granularity))
            granularity *= count
        self.total_span = granularity  # product of all slot counts
        self.total_slots = sum(level.slot_count for level in self._levels)
        #: migrations performed, per level migrated *into* (SEC62 metering).
        self.migrations = 0
        #: cascades (coarse-slot drains) performed, even if the slot was empty.
        self.cascades = 0

    # ------------------------------------------------------------ inspection

    @property
    def levels(self) -> int:
        """Number of wheels (the paper's ``m``)."""
        return len(self._levels)

    def level_granularities(self) -> List[int]:
        """Tick width of one slot at each level."""
        return [level.granularity for level in self._levels]

    def level_spans(self) -> List[int]:
        """Total ticks covered by each level's wheel."""
        return [level.span for level in self._levels]

    def cursor_positions(self) -> List[int]:
        """Current slot index of each level's conceptual cursor."""
        return [
            (self._now // level.granularity) % level.slot_count
            for level in self._levels
        ]

    @abc.abstractmethod
    def slot_sizes(self, level: int) -> List[int]:
        """Occupancy of each slot at ``level``, for inspection and tests."""

    def max_start_interval(self) -> Optional[int]:
        return self.total_span

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        info["structure"] = {
            "kind": "hierarchy",
            "levels": [
                {
                    "index": level.index,
                    "slot_count": level.slot_count,
                    "granularity": level.granularity,
                    "span": level.span,
                    "cursor": (self._now // level.granularity)
                    % level.slot_count,
                    "occupancy": occupancy_summary(
                        self.slot_sizes(level.index)
                    ),
                }
                for level in self._levels
            ],
            "placement": self.placement,
            "migrations": self.migrations,
            "cascades": self.cascades,
        }
        return info

    # ------------------------------------------------------------- placement

    def _destination(self, deadline: int) -> Tuple[WheelLevel, int]:
        """The placement rule's level for ``deadline``, and levels probed.

        Uncharged: :meth:`_charged_destination` prices the probes (the
        O(m) search Section 6.2 charges START_TIMER for); the fused UPDATE
        charge prices them itself. Either rule gives a destination ``ℓ``
        with ``deadline // g[ℓ] > now // g[ℓ]`` and a unit difference of
        at most ``s[ℓ]``, so the destination slot's next drain is exactly
        the deadline's unit boundary — never earlier, never a revolution
        late — and cascading there leaves ``remaining < g[ℓ]``, which
        re-places strictly downward until level 0 expires the timer
        exactly.
        """
        now = self._now
        if self.placement == "paper":
            # "We first calculate the absolute time at which the timer
            # will expire ... then we insert the timer into a list
            # beginning (11 - 10 hours) ahead of the current hour pointer
            # in the hour array": the highest level whose digit changes.
            for probes, level in enumerate(reversed(self._levels), 1):
                if deadline // level.granularity != now // level.granularity:
                    return level, probes
            raise AssertionError("placement requires deadline > now")
        # "span": the lowest level whose span covers the remaining time.
        remaining = deadline - now
        for probes, level in enumerate(self._levels, 1):
            if remaining < level.span:
                return level, probes
        raise AssertionError("interval validated against total_span")

    def _charged_destination(self, deadline: int) -> WheelLevel:
        """:meth:`_destination`, charging one compare per level probed."""
        level, probes = self._destination(deadline)
        self.counter.compare(probes)
        return level

    # ------------------------------------------------------- sparse advance

    def next_expiry(self) -> Optional[int]:
        """Next tick that visits an occupied slot on any level.

        Level 0 visits are exact deadlines; a coarse-level visit is the
        cascade that starts migrating its slot's timers down, a lower
        bound on their actual firing ticks. ``advance_to`` must stop at
        either kind, so the minimum over levels is both the fast-path
        event bound and the client-facing lower bound.
        """
        best: Optional[int] = None
        now = self._now
        for level in self._levels:
            if not level.occupancy.any():
                continue
            # Level k's cursor lives in *units* of its granularity; the
            # slot for unit u is visited when now first reaches u * g.
            unit_now = now // level.granularity
            index = level.occupancy.next_set_circular(
                (unit_now + 1) % level.slot_count
            )
            if index is None:
                continue
            unit_distance = (index - unit_now - 1) % level.slot_count + 1
            visit = (unit_now + unit_distance) * level.granularity
            if best is None or visit < best:
                best = visit
        return best

    def _next_event(self) -> Optional[int]:
        return self.next_expiry()

    def _charge_empty_ticks(self, count: int) -> None:
        # Per empty tick: clock write + level-0 cursor write/read/compare.
        # Each coarse-level boundary crossed inside the gap is an (empty)
        # cascade: read + compare, and the cascade counter still advances
        # exactly as the per-tick path would.
        now = self._now
        crossings = 0
        for level in self._levels[1:]:
            g = level.granularity
            crossings += (now + count) // g - now // g
        self.cascades += crossings
        self.counter.charge(
            writes=2 * count,
            reads=count + crossings,
            compares=count + crossings,
        )


class HierarchicalWheelScheduler(StoreSelectable, HierarchicalWheelGeometry):
    """Scheme 7: a hierarchy of timing wheels with coarsening granularity.

    ``store="soa"`` returns the struct-of-arrays twin
    (:class:`~repro.core.soa_schemes.SoAHierarchicalWheelScheduler`):
    same scheme, same charges, a fraction of the memory; see
    ``docs/performance.md``. Only the base hierarchy supports it — the
    Nichols variants keep their object records.
    """

    _soa_twin = "SoAHierarchicalWheelScheduler"
    _level_class = _Level

    def __init__(
        self,
        slot_counts: Sequence[int] = PAPER_LEVELS,
        counter: Optional[OpCounter] = None,
        placement: str = "paper",
        store: str = "object",
        soa_store=None,
    ) -> None:
        # ``store`` and ``soa_store`` are consumed by StoreSelectable.__new__.
        super().__init__(slot_counts, counter, placement)

    def slot_sizes(self, level: int) -> List[int]:
        return [len(slot) for slot in self._levels[level].slots]

    def _place(self, timer: Timer) -> None:
        """Insert ``timer`` at the level its placement rule selects."""
        deadline = timer.deadline
        level = self._charged_destination(deadline)
        slot_index = level.slot_for(deadline)
        timer._level = level.index
        timer._slot_index = slot_index
        self.counter.charge(reads=1, writes=1, links=1)
        level.link(slot_index, timer)

    def _insert(self, timer: Timer) -> None:
        self._place(timer)

    def _handle_cascaded(self, timer: Timer, expired: List[Timer]) -> None:
        """Process one timer drained from a cascading coarse slot.

        Scheme 7 proper migrates the timer toward finer wheels until level 0
        expires it exactly; the Nichols variants in
        :mod:`repro.core.scheme7_variants` override this to trade precision
        for fewer migrations.
        """
        if timer.deadline == self._now:
            timer._level = -1
            timer._slot_index = -1
            expired.append(timer)
        else:
            self.migrations += 1
            from_level = timer._level
            self._place(timer)
            self.observer.on_migrate(self, timer, from_level, timer._level)

    def _remove(self, timer: Timer) -> None:
        self._levels[timer._level].unlink(timer._slot_index, timer)
        timer._level = -1
        timer._slot_index = -1
        self.counter.link(1)

    def _update(self, timer: Timer, new_interval: int) -> None:
        self._levels[timer._level].unlink(timer._slot_index, timer)
        now = self._now
        timer.interval = new_interval
        timer.started_at = now
        deadline = now + new_interval
        timer.deadline = deadline
        timer._remaining = new_interval
        timer._rounds = 0
        timer._fire_at = deadline
        timer._migrated = False
        # Same destination as _place, uncharged: the fused charge below
        # prices the search, and expiry behaviour is bit-identical to a
        # remove + reinsert.
        level, _ = self._destination(deadline)
        slot_index = level.slot_for(deadline)
        timer._level = level.index
        timer._slot_index = slot_index
        self.counter.charge(**self._UPDATE_CHARGE)
        level.link(slot_index, timer)

    def _collect_expired(self) -> List[Timer]:
        expired: List[Timer] = []
        now = self._now
        self.counter.write(1)  # advance the clock

        # Coarse levels first: whenever `now` crosses a level boundary the
        # level's new slot cascades — each timer either expires now or
        # migrates to a finer wheel ("EXPIRY_PROCESSING will insert the
        # remainder in the minute array").
        for level in reversed(self._levels[1:]):
            if now % level.granularity != 0:
                continue
            self.cascades += 1
            self.counter.charge(reads=1, compares=1)
            for node in level.drain_slot(level.slot_for(now)):
                timer: Timer = node  # slots hold only Timers
                self.counter.charge(reads=1, links=1)
                self._handle_cascaded(timer, expired)

        # Level 0 advances every tick and expires with exact precision.
        base = self._levels[0]
        self.counter.charge(writes=1, reads=1, compares=1)
        for node in base.drain_slot(base.slot_for(now)):
            timer = node
            self.counter.charge(reads=1, links=1)
            timer._level = -1
            timer._slot_index = -1
            expired.append(timer)
        return expired
