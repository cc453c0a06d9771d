"""Seeded operation schedules and the shadow model that checks them.

Every workload is a list of steps generated from the seed alone. The
generator keeps its own ``id -> deadline`` map (:class:`Shadow`) and
records, with every clock advance, the expiries that advance must
deliver. The program under test only ever sees the generated steps; it
is never asked what is pending while the schedule is made.

Step encodings (single-op workloads ``rearm`` and ``expire``):

* ``(START, id, interval)``, ``(STOP, id)``, ``(UPDATE, id, interval)``
* ``(ADVANCE, target_tick)``; the expected expiries of advance ``k``
  are ``Schedule.expected[k]``, a list of ``(id, tick)``.

Batch steps (``mp_batch``):

* ``(ADVANCE, target_tick)`` as above
* ``(UPDATE_MANY, [(id, interval), ...])``, ``(STOP_MANY, [id, ...])``
* ``(START_MANY, [(interval, id, auto), ...])`` where ``auto`` marks a
  timer the program names itself (``request_id=None``); ``id`` is then
  the schedule's own alias for it.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

START, STOP, UPDATE, ADVANCE = "s", "p", "u", "a"
START_MANY, STOP_MANY, UPDATE_MANY = "S", "P", "U"


class Shadow:
    """The generator's own model of the pending set.

    Deadlines are bucketed by tick so an advance pops exactly the ids due
    in ``(now, target]``. A list plus position index gives O(1) uniform
    choice of a pending id.
    """

    def __init__(self) -> None:
        self.now = 0
        self.deadline: Dict[str, int] = {}
        self._buckets: Dict[int, Dict[str, None]] = {}
        self._ids: List[str] = []
        self._pos: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.deadline)

    def start(self, rid: str, interval: int) -> None:
        if rid in self.deadline:
            raise ValueError(f"shadow: {rid!r} is already pending")
        if interval < 1:
            raise ValueError(f"shadow: interval {interval} < 1")
        due = self.now + interval
        self.deadline[rid] = due
        self._buckets.setdefault(due, {})[rid] = None
        self._pos[rid] = len(self._ids)
        self._ids.append(rid)

    def stop(self, rid: str) -> None:
        due = self.deadline.pop(rid)
        del self._buckets[due][rid]
        self._forget(rid)

    def update(self, rid: str, interval: int) -> None:
        due = self.deadline[rid]
        del self._buckets[due][rid]
        new_due = self.now + interval
        self.deadline[rid] = new_due
        self._buckets.setdefault(new_due, {})[rid] = None

    def advance(self, target: int) -> List[Tuple[str, int]]:
        """Move to ``target``; return ``(id, tick)`` of every expiry."""
        fired: List[Tuple[str, int]] = []
        for tick in range(self.now + 1, target + 1):
            bucket = self._buckets.pop(tick, None)
            if not bucket:
                continue
            for rid in bucket:
                del self.deadline[rid]
                self._forget(rid)
                fired.append((rid, tick))
        self.now = target
        return fired

    def sample(self, rng: random.Random, k: int) -> List[str]:
        """``k`` distinct pending ids, uniformly."""
        picked = rng.sample(range(len(self._ids)), min(k, len(self._ids)))
        return [self._ids[i] for i in picked]

    def _forget(self, rid: str) -> None:
        index = self._pos.pop(rid)
        last = self._ids.pop()
        if last != rid:
            self._ids[index] = last
            self._pos[last] = index


@dataclass
class Schedule:
    """One workload's generated inputs, replayed identically by every
    episode of a run."""

    #: steps that build the population and warm up (timed as set-up).
    setup: List[tuple]
    #: the timed steps.
    timed: List[tuple]
    #: expected expiries per ADVANCE step, setup advances first.
    expected: List[List[Tuple[str, int]]]
    #: how many entries of ``expected`` belong to the set-up steps.
    setup_advances: int
    #: the shadow's pending set when the timed steps end.
    final_pending: Dict[str, int]
    #: the shadow's clock when the timed steps end.
    final_now: int
    #: every id the schedule stops (a delivered expiry of one is a bug).
    stopped: frozenset
    #: parameters, for the benchmark's info line.
    params: Dict[str, object] = field(default_factory=dict)


def _stationary_residual(rng: random.Random, low: int, high: int) -> int:
    """Residual life of a timer in a steady renewal process whose
    intervals are uniform on ``[low, high]``: length-biased interval,
    then a uniform point inside it. Loading the population this way
    starts the run at steady state instead of a synchronised burst."""
    while True:
        interval = rng.randint(low, high)
        if rng.random() * high <= interval:
            return rng.randint(1, interval)


# --------------------------------------------------------------- rearm


def make_rearm(
    seed: int,
    *,
    population: int = 7000,
    low: int = 16,
    high: int = 4000,
    ops_per_tick: int = 32,
    warmup_rounds: int = 1,
    rounds: int = 6,
) -> Schedule:
    """Re-arm storm: each round sweeps the pending set in a fixed order,
    updating ~90% and stopping ~9% of it, refilling with starts; the
    clock moves one tick every ``ops_per_tick`` client ops."""
    rng = random.Random(f"rearm:{seed}")
    shadow = Shadow()
    expected: List[List[Tuple[str, int]]] = []
    stopped = set()
    serial = [0]

    def fresh() -> str:
        serial[0] += 1
        return f"r{serial[0]}"

    setup: List[tuple] = []
    for _ in range(population):
        rid, interval = fresh(), rng.randint(low, high)
        shadow.start(rid, interval)
        setup.append((START, rid, interval))

    def one_round(out: List[tuple]) -> None:
        since_tick = 0
        order = sorted(shadow.deadline, key=lambda r: int(r[1:]))
        for rid in order:
            if rid in shadow.deadline:
                draw = rng.random()
                if draw < 0.90:
                    interval = rng.randint(low, high)
                    shadow.update(rid, interval)
                    out.append((UPDATE, rid, interval))
                    since_tick += 1
                elif draw < 0.99:
                    shadow.stop(rid)
                    stopped.add(rid)
                    out.append((STOP, rid))
                    since_tick += 1
            while len(shadow) < population:
                new, interval = fresh(), rng.randint(low, high)
                shadow.start(new, interval)
                out.append((START, new, interval))
                since_tick += 1
            if since_tick >= ops_per_tick:
                since_tick = 0
                out.append((ADVANCE, shadow.now + 1))
                expected.append(shadow.advance(shadow.now + 1))

    for _ in range(warmup_rounds):
        one_round(setup)
    setup_advances = len(expected)
    timed: List[tuple] = []
    for _ in range(rounds):
        one_round(timed)
    return Schedule(
        setup=setup,
        timed=timed,
        expected=expected,
        setup_advances=setup_advances,
        final_pending=dict(shadow.deadline),
        final_now=shadow.now,
        stopped=frozenset(stopped),
        params={
            "population": population,
            "intervals": [low, high],
            "ops_per_tick": ops_per_tick,
            "rounds": rounds,
            "warmup_rounds": warmup_rounds,
        },
    )


# --------------------------------------------------------------- expire


def make_expire(
    seed: int,
    *,
    population: int = 100_000,
    low: int = 1000,
    high: int = 5000,
    ticks_per_round: int = 10,
    updates_per_round: int = 10,
    stops_per_round: int = 5,
    warmup_rounds: int = 10,
    rounds: int = 300,
) -> Schedule:
    """Drain-heavy: a large population whose timers all fire; every round
    advances the clock, refills what fired and what a few stops removed,
    and re-arms a handful of pending timers."""
    rng = random.Random(f"expire:{seed}")
    shadow = Shadow()
    expected: List[List[Tuple[str, int]]] = []
    stopped = set()
    serial = [0]

    def fresh() -> str:
        serial[0] += 1
        return f"x{serial[0]}"

    setup: List[tuple] = []
    for _ in range(population):
        rid, interval = fresh(), _stationary_residual(rng, low, high)
        shadow.start(rid, interval)
        setup.append((START, rid, interval))
    load_steps = len(setup)

    def one_round(out: List[tuple]) -> None:
        target = shadow.now + ticks_per_round
        out.append((ADVANCE, target))
        expected.append(shadow.advance(target))
        for rid in shadow.sample(rng, updates_per_round):
            interval = rng.randint(low, high)
            shadow.update(rid, interval)
            out.append((UPDATE, rid, interval))
        for rid in shadow.sample(rng, stops_per_round):
            shadow.stop(rid)
            stopped.add(rid)
            out.append((STOP, rid))
        while len(shadow) < population:
            rid, interval = fresh(), rng.randint(low, high)
            shadow.start(rid, interval)
            out.append((START, rid, interval))

    for _ in range(warmup_rounds):
        one_round(setup)
    setup_advances = len(expected)
    timed: List[tuple] = []
    for _ in range(rounds):
        one_round(timed)
    return Schedule(
        setup=setup,
        timed=timed,
        expected=expected,
        setup_advances=setup_advances,
        final_pending=dict(shadow.deadline),
        final_now=shadow.now,
        stopped=frozenset(stopped),
        params={
            "population": population,
            "intervals": [low, high],
            "ticks_per_round": ticks_per_round,
            "updates_per_round": updates_per_round,
            "stops_per_round": stops_per_round,
            "rounds": rounds,
            "warmup_rounds": warmup_rounds,
            "load_steps": load_steps,
        },
    )


# --------------------------------------------------------------- mp_batch


def make_mp_batch(
    seed: int,
    *,
    population: int = 20_000,
    low: int = 500,
    high: int = 3000,
    ticks_per_round: int = 2,
    updates_per_round: int = 40,
    stops_per_round: int = 10,
    load_batch: int = 1000,
    warmup_rounds: int = 50,
    rounds: int = 800,
) -> Schedule:
    """Process boundary: per round one ``advance_to``, one
    ``update_many``, one ``stop_many`` and one ``start_many`` refilling
    what fired or stopped, half of it with program-assigned ids."""
    rng = random.Random(f"mp_batch:{seed}")
    shadow = Shadow()
    expected: List[List[Tuple[str, int]]] = []
    stopped = set()
    serial = [0]

    def fresh(auto: bool) -> str:
        serial[0] += 1
        return f"{'a' if auto else 'm'}{serial[0]}"

    setup: List[tuple] = []
    batch: List[tuple] = []
    for _ in range(population):
        rid, interval = fresh(False), _stationary_residual(rng, low, high)
        shadow.start(rid, interval)
        batch.append((interval, rid, False))
        if len(batch) == load_batch:
            setup.append((START_MANY, batch))
            batch = []
    if batch:
        setup.append((START_MANY, batch))

    def one_round(out: List[tuple]) -> None:
        target = shadow.now + ticks_per_round
        out.append((ADVANCE, target))
        expected.append(shadow.advance(target))
        updates = []
        for rid in shadow.sample(rng, updates_per_round):
            interval = rng.randint(low, high)
            shadow.update(rid, interval)
            updates.append((rid, interval))
        out.append((UPDATE_MANY, updates))
        stops = shadow.sample(rng, stops_per_round)
        for rid in stops:
            shadow.stop(rid)
            stopped.add(rid)
        out.append((STOP_MANY, stops))
        starts = []
        while len(shadow) < population:
            auto = len(starts) % 2 == 1
            rid, interval = fresh(auto), rng.randint(low, high)
            shadow.start(rid, interval)
            starts.append((interval, rid, auto))
        out.append((START_MANY, starts))

    for _ in range(warmup_rounds):
        one_round(setup)
    setup_advances = len(expected)
    timed: List[tuple] = []
    for _ in range(rounds):
        one_round(timed)
    return Schedule(
        setup=setup,
        timed=timed,
        expected=expected,
        setup_advances=setup_advances,
        final_pending=dict(shadow.deadline),
        final_now=shadow.now,
        stopped=frozenset(stopped),
        params={
            "population": population,
            "intervals": [low, high],
            "ticks_per_round": ticks_per_round,
            "updates_per_round": updates_per_round,
            "stops_per_round": stops_per_round,
            "rounds": rounds,
            "warmup_rounds": warmup_rounds,
            "auto_id_share": 0.5,
        },
    )


# --------------------------------------------------------------- oracle


def fingerprint(delivered: Iterable[Tuple[str, int]]) -> str:
    """CRC-32 of an expiry sequence, in delivery order."""
    crc = 0
    for rid, tick in delivered:
        crc = zlib.crc32(f"{rid}@{tick};".encode(), crc)
    return f"{crc:08x}"


def expected_multiset(expected: Sequence[Sequence[Tuple[str, int]]]) -> Counter:
    return Counter(pair for step in expected for pair in step)


def check_expiries(
    expected: Sequence[Sequence[Tuple[str, int]]],
    delivered: Sequence[Sequence[Tuple[str, int]]],
    stopped: Optional[Iterable[str]] = None,
    limit: int = 10,
    want: Optional[Counter] = None,
) -> List[str]:
    """Compare delivered expiries with the shadow's, advance by advance.

    Returns one line per problem (at most ``limit``; empty when the
    program fired exactly what the shadow expects at exactly the ticks it
    expects). Within-tick order is free: the program merges shards, the
    shadow does not. An unmatched delivery is classified against the
    id's unmatched expected ticks: *early* (it was due later), *late* (it
    was due earlier), *stopped timer fired*, or *spurious*; an unmatched
    expectation is a *skip*. ``want`` is ``expected`` as a multiset, for
    callers that check many deliveries against one schedule.
    """
    problems: List[str] = []
    if len(expected) != len(delivered):
        problems.append(
            f"advance count: expected {len(expected)}, got {len(delivered)}"
        )
    if want is None:
        want = expected_multiset(expected)
    got = Counter(pair for step in delivered for pair in step)
    extra = got - want
    missing = want - got
    if not extra and not missing:
        return problems
    missing_by_id: Dict[str, List[int]] = {}
    for (rid, tick), count in missing.items():
        missing_by_id.setdefault(rid, []).extend([tick] * count)
    stopped_set = set(stopped or ())
    for (rid, tick), count in sorted(extra.items()):
        for _ in range(count):
            due = missing_by_id.get(rid)
            if due:
                nearest = min(due, key=lambda t: abs(t - tick))
                due.remove(nearest)
                kind = "early" if tick < nearest else "late"
                problems.append(
                    f"{kind} fire: {rid} fired at {tick}, due at {nearest}"
                )
            elif rid in stopped_set:
                problems.append(f"stopped timer fired: {rid} at {tick}")
            else:
                problems.append(f"spurious fire: {rid} at {tick}")
    for rid, ticks in sorted(missing_by_id.items()):
        for tick in ticks:
            problems.append(f"skipped expiry: {rid} due at {tick}")
    return problems[:limit] + (
        [f"... {len(problems) - limit} more"] if len(problems) > limit else []
    )


def check_pending(
    want: Dict[str, int], got: Dict[str, int], limit: int = 10
) -> List[str]:
    """Compare a pending set (id -> deadline) with the shadow's."""
    problems: List[str] = []
    for rid in sorted(set(want) - set(got))[:limit]:
        problems.append(f"lost timer: {rid} due at {want[rid]}")
    for rid in sorted(set(got) - set(want))[:limit]:
        problems.append(f"unexpected pending timer: {rid} due at {got[rid]}")
    for rid in sorted(set(want) & set(got)):
        if want[rid] != got[rid]:
            problems.append(
                f"deadline moved: {rid} due at {got[rid]}, shadow {want[rid]}"
            )
            if len(problems) >= limit:
                break
    return problems[:limit]
