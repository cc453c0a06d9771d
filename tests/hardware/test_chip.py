"""The Appendix A scanning timer chip."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    HashedWheelUnsortedScheduler,
    HierarchicalWheelScheduler,
    OrderedListScheduler,
)
from repro.hardware.chip import ScanningChipAssist


def test_rejects_unsupported_schemes():
    with pytest.raises(TypeError):
        ScanningChipAssist(OrderedListScheduler())


def test_no_interrupts_when_idle():
    chip = ScanningChipAssist(HashedWheelUnsortedScheduler(table_size=32))
    chip.advance(200)
    assert chip.report.host_interrupts == 0
    assert chip.report.ticks == 200


def test_interrupt_exactly_on_busy_slot():
    chip = ScanningChipAssist(HashedWheelUnsortedScheduler(table_size=32))
    chip.start_timer(5)
    expired = chip.advance(5)
    assert len(expired) == 1
    assert chip.report.host_interrupts == 1  # only the busy visit
    assert chip.report.timers_completed == 1


def test_busy_notifications_on_edges():
    chip = ScanningChipAssist(HashedWheelUnsortedScheduler(table_size=32))
    t1 = chip.start_timer(10)
    assert chip.report.busy_notifications == 1
    t2 = chip.start_timer(10)  # same slot: no new edge
    assert chip.report.busy_notifications == 1
    chip.stop_timer(t1)
    assert chip.report.idle_notifications == 0  # slot still non-empty
    chip.stop_timer(t2)
    assert chip.report.idle_notifications == 1  # now empty


def test_scheme6_interrupts_track_t_over_m():
    """Appendix A: 'the host is interrupted an average of T/M times per
    timer interval'."""
    table = 64
    chip = ScanningChipAssist(HashedWheelUnsortedScheduler(table_size=table))
    rng = random.Random(45)
    T = 1600
    count = 100
    for _ in range(count):
        chip.start_timer(rng.randint(T - 200, T + 200))
    while chip.pending_count:
        chip.advance(table)
    per_timer = chip.report.interrupts_per_timer
    # Interrupts happen per busy *slot* visit; with 100 timers over 64
    # slots most visits are busy, so the count per timer is bounded by and
    # of the order of T/M.
    assert per_timer <= T / table + 2
    assert per_timer >= (T / table) / (count / table + 1) * 0.5


def test_scheme7_interrupts_bounded_by_levels():
    levels = (16, 16, 16)
    chip = ScanningChipAssist(HierarchicalWheelScheduler(levels))
    rng = random.Random(46)
    count = 100
    for _ in range(count):
        chip.start_timer(rng.randint(500, 4000))
    while chip.pending_count:
        chip.advance(32)
    assert chip.report.interrupts_per_timer <= len(levels)


def test_scheme7_single_timer_interrupt_count_matches_migrations():
    sched = HierarchicalWheelScheduler((16, 16, 16))
    chip = ScanningChipAssist(sched)
    chip.start_timer(16 * 16 * 3 + 16 * 2 + 5)  # touches all three levels
    while chip.pending_count:
        chip.tick()
    assert chip.report.host_interrupts == sched.migrations + 1


def test_chip_passthrough_api():
    chip = ScanningChipAssist(HashedWheelUnsortedScheduler(table_size=16))
    timer = chip.start_timer(7, request_id="x")
    assert chip.pending_count == 1
    assert chip.now == 0
    chip.stop_timer("x")
    assert chip.pending_count == 0
    assert timer.stopped_at == 0


@pytest.mark.parametrize(
    "factory",
    [
        lambda store: HashedWheelUnsortedScheduler(32, store=store),
        lambda store: HierarchicalWheelScheduler((8, 8, 8), store=store),
        lambda store: HierarchicalWheelScheduler(
            (8, 8, 8), placement="span", store=store
        ),
    ],
    ids=["scheme6", "scheme7", "scheme7-span"],
)
def test_soa_store_gives_the_same_report(factory):
    """The chip reads only wheel geometry, so both stores report alike."""

    def run(store):
        chip = ScanningChipAssist(factory(store))
        rng = random.Random(47)
        for step in range(400):
            if rng.random() < 0.3:
                chip.start_timer(rng.randint(1, 500), request_id=f"t{step}")
            if rng.random() < 0.1:
                victim = f"t{rng.randrange(step + 1)}"
                if chip.scheduler.is_pending(victim):
                    chip.stop_timer(victim)
            chip.tick()
        return chip.report

    report = run("soa")
    assert report.host_interrupts > 0 and report.idle_notifications > 0
    assert report == run("object")
