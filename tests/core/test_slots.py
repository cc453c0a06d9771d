"""Slots audit: per-timer (and per-entry) records must carry no ``__dict__``.

At the MILLIONS tier a stray ``__dict__`` on any per-timer class costs
~100 extra bytes per record — more than the whole SoA row. This suite
pins ``__slots__`` on every class that is (or rides along with) a
per-timer record, so a refactor that drops one fails loudly instead of
silently tripling memory.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.interface import Timer
from repro.core.periodic import PeriodicTimer
from repro.core.scheme1_unordered import StraightforwardScheduler
from repro.core.supervision import QuarantineRecord, RearmId, _Entry
from repro.structures.dlist import DLinkedList, DNode
from repro.structures.soa import SoATimerStore, SoATimerView

#: (class, constructor) for every record-like class that must be slotted.
RECORD_FACTORIES = [
    (Timer, lambda: Timer("id", 5, 0)),
    (DNode, DNode),
    (RearmId, lambda: RearmId("origin", 1)),
    (_Entry, lambda: _Entry("origin", None, None, 10)),
    (
        QuarantineRecord,
        lambda: QuarantineRecord("q", 3, "attempts", "err", 5, 4),
    ),
    (
        PeriodicTimer,
        lambda: PeriodicTimer(StraightforwardScheduler(), period=5),
    ),
    (
        SoATimerView,
        lambda: SoATimerView(SoATimerStore(), 0, 0),
    ),
]


@pytest.mark.parametrize(
    "cls,factory", RECORD_FACTORIES, ids=[c.__name__ for c, _ in RECORD_FACTORIES]
)
def test_record_classes_have_no_dict(cls, factory):
    instance = factory()
    assert not hasattr(instance, "__dict__"), (
        f"{cls.__name__} grew a __dict__ — ~100 wasted bytes per record "
        "at million-timer scale; restore __slots__ on it and every base"
    )
    with pytest.raises(AttributeError):
        instance.not_a_slot = 1  # slots also reject silent attr typos


def test_timer_record_size_is_bounded():
    timer = Timer("id", 5, 0)
    # A slotted 20-field record: ~190 bytes on CPython 3.11. The bound is
    # loose (interpreter-dependent) but catches a __dict__ regression,
    # which would push getsizeof past this immediately.
    assert sys.getsizeof(timer) <= 256


def test_structure_container_classes_are_slotted():
    assert not hasattr(DLinkedList(), "__dict__")
    assert not hasattr(SoATimerStore(), "__dict__")


def test_wheel_level_classes_are_slotted():
    from repro.core.scheme7_hierarchical import _Level
    from repro.core.soa_schemes import _SoALevel

    assert not hasattr(_Level(0, 4, 1), "__dict__")
    assert not hasattr(_SoALevel(0, 4, 1), "__dict__")
