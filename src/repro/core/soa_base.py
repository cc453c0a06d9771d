"""Scheduler base for struct-of-arrays timer storage, and the ``store=`` switch.

A scheme with an SoA store is written once as a *geometry* base —
:class:`~repro.core.scheme4_wheel.TimingWheelGeometry`,
:class:`~repro.core.scheme6_hashed_unsorted.HashedWheelGeometry` or
:class:`~repro.core.scheme7_hierarchical.HierarchicalWheelGeometry` —
that owns everything the paper defines: constructor validation, cursor,
occupancy bitmap, calibrated charges, slot arithmetic, the sparse-tick
fast path and ``introspect``. Two store classes inherit it side by side:
the object class links :class:`~repro.core.interface.Timer` records into
``DLinkedList`` slots, and its twin in :mod:`repro.core.soa_schemes`
mixes in :class:`SoATimerScheduler` and links rows of one
:class:`~repro.structures.soa.SoATimerStore`. Each store class keeps only
its container constructor and its four store hooks (``_insert`` /
``_remove`` / ``_update`` / ``_collect_expired``, or the ``_row`` forms
here), so OpCounter charges, expiry order and fast-path events are the
same on both stores by construction — and the equivalence suites diff
them anyway.

:class:`SoATimerScheduler` carries the row store's client surface: same
four-routine API, observer stream and error policies as
:class:`~repro.core.interface.TimerScheduler`, but every pending timer is
a row instead of a heap-allocated record. :class:`StoreSelectable` is the
one ``__new__`` that turns ``store="soa"`` on an object class into its
twin, so registry names and client code never change.

Identity model
--------------
``start_timer`` returns a :class:`~repro.structures.soa.SoATimerView`
flyweight, not a record. With an **auto id** (``request_id=None``) the
timer's public id *is* the store's packed generation-tagged int handle:
no id string, no dict entry — the memory tier the MILLIONS bench prices.
An **explicit id** additionally lands in an id → row dict so STOP_TIMER
by client id keeps working. The two namespaces never name two live
timers at once: an explicit int id equal to a live handle is rejected,
and an auto handle equal to a live explicit id is re-tagged. A handle or
view held across the row's free-and-reuse raises
:class:`~repro.core.errors.StaleTimerHandleError` — the store's free list
is the allocator, so use-after-free checking is native.

Finalised timers (stopped, expired, shutdown-cancelled) are materialised
as ordinary :class:`Timer` records at the moment they leave the store,
so everything downstream — supervision, spans, chaos fingerprints,
``callback_errors`` — sees exactly what the object store produces.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Union

from repro.core.errors import (
    TimerConfigurationError,
    TimerStateError,
    UnknownTimerError,
)
from repro.core.interface import (
    ExpiryAction,
    Timer,
    TimerScheduler,
    TimerState,
)
from repro.core.observer import NULL_OBSERVER
from repro.core.validation import check_interval
from repro.structures.soa import SoATimerStore, SoATimerView


class StoreSelectable:
    """``store=`` constructor switch for an object scheme with an SoA twin.

    Mixed in ahead of the geometry base by the object classes of schemes
    4, 6 and 7. ``store="object"`` (the default) builds the class itself;
    ``store="soa"`` builds the twin named by ``_soa_twin`` in
    :mod:`repro.core.soa_schemes` instead — same scheme, same OpCounter
    charges and expiry order, a fraction of the memory per timer (see
    ``docs/performance.md``). The twin is not a subclass, so Python skips
    the object ``__init__`` and the twin is built whole here. Subclasses
    (the Nichols variants) keep their object records and reject
    ``store="soa"``.
    """

    #: class name of the struct-of-arrays twin in ``repro.core.soa_schemes``.
    _soa_twin = ""

    def __new__(cls, *args, store: str = "object", soa_store=None, **kwargs):
        if store not in ("object", "soa"):
            raise TimerConfigurationError(
                f"store must be 'object' or 'soa', got {store!r}"
            )
        if store == "object":
            if soa_store is not None:
                raise TimerConfigurationError("soa_store requires store='soa'")
            return super().__new__(cls)
        if "_soa_twin" not in vars(cls):
            owner = next(k for k in cls.__mro__ if "_soa_twin" in vars(k))
            raise TimerConfigurationError(
                f"store='soa' is not available on {cls.__name__}; "
                f"construct {owner.__name__} directly"
            )
        from repro.core import soa_schemes

        twin = getattr(soa_schemes, cls._soa_twin)
        return twin(*args, soa_store=soa_store, **kwargs)


class SoATimerScheduler(TimerScheduler):
    """Client surface of a scheduler whose pending timers live in an SoA store.

    Mixed in ahead of a scheme's geometry base; the concrete class adds
    its head tables and the row hooks ``_insert_row`` / ``_remove_row`` /
    ``_update_row`` / ``_collect_expired``. Clock advance, observer
    dispatch, expiry-action policies and the ``advance_to`` fast path are
    inherited unchanged from :class:`TimerScheduler`.
    """

    def __init__(
        self,
        *args,
        soa_store: Optional[SoATimerStore] = None,
        **kwargs,
    ) -> None:
        # ``soa_store`` injects a pre-built store — the shard backends use
        # it to hand a scheduler a shared-memory-backed
        # :class:`~repro.structures.soa.SharedSoATimerStore` so the timer
        # state lives in an OS shm block instead of process-private heap.
        # The remaining arguments go to the geometry base.
        super().__init__(*args, **kwargs)
        if soa_store is not None and soa_store.live_count:
            raise ValueError(
                "injected store already holds live rows; schedulers must "
                "start from an empty store"
            )
        self._store = soa_store if soa_store is not None else SoATimerStore()
        #: explicit client id -> row; auto-id rows appear in no dict at all.
        self._id_rows: Dict[Hashable, int] = {}

    # ------------------------------------------------------------ client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> SoATimerView:
        """START_TIMER; returns a generation-tagged view, not a record.

        With ``request_id=None`` the packed int handle *is* the public id
        (``view.request_id`` / ``view.handle``) — the zero-overhead path.
        """
        self._check_open()
        check_interval(interval, self.max_start_interval())
        store = self._store
        id_rows = self._id_rows
        if request_id is None:
            row = store.alloc(self._now, interval, None, callback, user_data)
            if id_rows:
                # An explicit int id may equal this row's handle: move the
                # row to its next generation until the handle is unclaimed.
                while store.handle_of(row) in id_rows:
                    store.retag(row)
            self._insert_row(row)
        else:
            if self.is_pending(request_id):
                raise TimerStateError(
                    f"request_id {request_id!r} already names a pending timer"
                )
            row = store.alloc(
                self._now, interval, request_id, callback, user_data
            )
            self._insert_row(row)
            id_rows[request_id] = row
        self.total_started += 1
        view = SoATimerView(store, row, store.meta_col[row] >> 1)
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_start(self, view)
        return view

    def update_timer(
        self,
        timer_or_id: Union[SoATimerView, Timer, Hashable],
        new_interval: int,
    ) -> SoATimerView:
        """UPDATE_TIMER on the row store: same row, same generation.

        The row is unlinked, its deadline/started columns rewritten, and
        relinked at the recomputed slot — the handle stays valid (the
        generation does not advance; only finalisation or free recycles a
        row). A stale view or handle raises
        :class:`~repro.core.errors.StaleTimerHandleError`, exactly like
        :meth:`stop_timer`.
        """
        self._check_open()
        check_interval(new_interval, self.max_start_interval())
        row = self._resolve_row(timer_or_id)
        store = self._store
        old_deadline = store.deadline_col[row]
        self._update_row(row, new_interval)
        self.total_updated += 1
        view = SoATimerView(store, row, store.meta_col[row] >> 1)
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_update(self, view, old_deadline)
        return view

    def restart_timer(
        self,
        timer: Timer,
        interval: Optional[int] = None,
        request_id: Optional[Hashable] = None,
    ) -> SoATimerView:
        """Re-arm a finalised (materialised) record as a fresh row.

        The row-store twin of the base class's in-place restart: finalised
        SoA timers are materialised records whose row was already freed,
        so the re-arm allocates a row (from the store's free list) but
        keeps the record's public id by default — the id stability the
        periodic and supervision re-arm paths rely on. Counts as a start.
        """
        self._check_open()
        if isinstance(timer, SoATimerView):
            raise TimerStateError(
                f"timer {timer!r} is a live view; use update_timer to "
                "reschedule a pending timer"
            )
        if timer.state is TimerState.PENDING:
            raise TimerStateError(
                f"timer {timer.request_id!r} is still pending; use "
                "update_timer to reschedule a live timer"
            )
        new_interval = timer.interval if interval is None else interval
        check_interval(new_interval, self.max_start_interval())
        new_id = timer.request_id if request_id is None else request_id
        if self.is_pending(new_id):
            raise TimerStateError(
                f"request_id {new_id!r} already names a pending timer"
            )
        store = self._store
        row = store.alloc(
            self._now, new_interval, new_id, timer.callback, timer.user_data
        )
        self._insert_row(row)
        self._id_rows[new_id] = row
        self.total_started += 1
        view = SoATimerView(store, row, store.meta_col[row] >> 1)
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_start(self, view)
        return view

    def stop_timer(
        self, timer_or_id: Union[SoATimerView, Timer, Hashable]
    ) -> Timer:
        """STOP_TIMER by view, int handle, or explicit client id.

        Returns the finalised (materialised) record, state ``STOPPED``.
        A view or handle that outlived its row's incarnation raises
        :class:`~repro.core.errors.StaleTimerHandleError`.
        """
        row = self._resolve_row(timer_or_id)
        self._remove_row(row)
        store = self._store
        timer = self._materialize(row)
        timer.state = TimerState.STOPPED
        timer.stopped_at = self._now
        if store.request_ids[row] is not None:
            del self._id_rows[store.request_ids[row]]
        store.free(row)
        self.total_stopped += 1
        observer = self.observer
        if observer is not NULL_OBSERVER:
            observer.on_stop(self, timer)
        return timer

    def shutdown(self) -> List[Timer]:
        """Cancel every pending row and refuse further work. Idempotent."""
        if self._shut_down:
            return []
        store = self._store
        cancelled: List[Timer] = []
        for row in list(store.live_rows()):
            self._remove_row(row)
            timer = self._materialize(row)
            timer.state = TimerState.STOPPED
            timer.stopped_at = self._now
            store.free(row)
            cancelled.append(timer)
            self.total_stopped += 1
            self.observer.on_stop(self, timer)
        self._id_rows.clear()
        self._shut_down = True
        return cancelled

    # ------------------------------------------------------------ inspection

    @property
    def pending_count(self) -> int:
        return self._store.live_count

    @property
    def free_record_count(self) -> int:
        """Pooled free rows — always live here; the free list is the allocator."""
        return self._store.free_count

    @property
    def store(self) -> SoATimerStore:
        """The backing column store (inspection and benches)."""
        return self._store

    def pending_timers(self) -> List[SoATimerView]:
        store = self._store
        return [
            SoATimerView(store, row, store.meta_col[row] >> 1)
            for row in store.live_rows()
        ]

    def is_pending(self, request_id: Union[SoATimerView, Hashable]) -> bool:
        """Non-throwing probe: stale views/handles are simply not pending."""
        if isinstance(request_id, SoATimerView):
            return not request_id.stale
        if request_id in self._id_rows:
            return True
        if isinstance(request_id, int):
            try:
                return self._store.resolve_handle(request_id) is not None
            except TimerStateError:
                return False
        return False

    def get_timer(self, request_id: Hashable) -> SoATimerView:
        """Pending-timer lookup by explicit id or int handle; returns a view."""
        store = self._store
        row = self._id_rows.get(request_id)
        if row is None and isinstance(request_id, int):
            row = store.resolve_handle(request_id)  # may raise stale
        if row is None:
            raise UnknownTimerError(
                f"no pending timer with request_id {request_id!r}"
            )
        return SoATimerView(store, row, store.meta_col[row] >> 1)

    def introspect(self) -> Dict[str, object]:
        info = super().introspect()
        store = self._store
        info["store"] = "soa"
        info["pending"] = store.live_count
        info["free_records"] = store.free_count
        info["store_bytes"] = store.bytes_estimate()
        per_timer = store.bytes_per_timer()
        if per_timer is not None:
            info["bytes_per_timer"] = round(per_timer, 1)
        return info

    # -------------------------------------------------------------- plumbing

    def _resolve_row(
        self, timer_or_id: Union[SoATimerView, Timer, Hashable]
    ) -> int:
        """Map any accepted reference to a live row (or raise)."""
        if isinstance(timer_or_id, SoATimerView):
            return timer_or_id._live_row()
        if isinstance(timer_or_id, Timer):
            # A materialised record is by construction no longer pending.
            raise TimerStateError(
                f"timer {timer_or_id.request_id!r} is "
                f"{timer_or_id.state.value}, not pending"
            )
        row = self._id_rows.get(timer_or_id)
        if row is not None:
            return row
        if isinstance(timer_or_id, int):
            row = self._store.resolve_handle(timer_or_id)  # may raise stale
            if row is not None:
                return row
        raise UnknownTimerError(
            f"no pending timer with request_id {timer_or_id!r}"
        )

    def _materialize(self, row: int) -> Timer:
        """Build the ordinary Timer record for a row leaving the store."""
        store = self._store
        return Timer(
            request_id=store.request_id_of(row),
            interval=store.deadline_col[row] - store.started_col[row],
            started_at=store.started_col[row],
            callback=store.callbacks[row],
            user_data=store.user_datas[row],
        )

    def _finalize_expired(self, row: int) -> Timer:
        """Materialise an expiring row and free it (links already detached)."""
        timer = self._materialize(row)
        self._store.free(row)
        return timer

    def _mark_expired(self, timer: Timer) -> None:
        """Row-store twin of the base marking: no ``_active`` map to pop."""
        timer.state = TimerState.EXPIRED
        timer.expired_at = self._now
        timer.fired_at = self._now
        # Explicit ids leave the map before any callback runs, so a
        # re-entrant start_timer may reuse the id (auto handles are
        # self-retiring: the row's generation already advanced).
        self._id_rows.pop(timer.request_id, None)
        self.total_expired += 1

    # ------------------------------------------------------------- row hooks

    def _insert_row(self, row: int) -> None:
        """Place ``row`` into the scheme's structure (charges ops)."""
        raise NotImplementedError

    def _remove_row(self, row: int) -> None:
        """Remove pending ``row`` from the structure (charges ops)."""
        raise NotImplementedError

    def _update_row(self, row: int, new_interval: int) -> None:
        """Re-place pending ``row`` at ``now + new_interval`` (charges ops)."""
        raise NotImplementedError

    # The object-record hooks are dead code on an SoA scheme; defined so
    # the ABC is satisfiable, loud if something reaches them.

    def _insert(self, timer: Timer) -> None:  # pragma: no cover - guard
        raise TypeError("SoA schedulers place rows, not Timer records")

    def _remove(self, timer: Timer) -> None:  # pragma: no cover - guard
        raise TypeError("SoA schedulers place rows, not Timer records")
