"""The durable timer service: WAL-before-mutate and crash recovery.

:class:`DurableScheduler` decorates any scheduler-shaped stack — a bare
registry scheme, or (the production shape) a
:class:`~repro.core.supervision.SupervisedScheduler` over one, SoA store
included — with the write-ahead discipline: **every client operation is
journaled before it mutates the stack**, and every supervision outcome
(survivor, retry re-arm, shed, quarantine) is journaled through the
supervisor's ledger seam as it happens. The service keeps the journal's
:class:`~repro.durability.state.DurableState` reduction up to date
incrementally, so taking a snapshot is O(live timers), never O(journal).

:func:`recover` is the other half: newest valid snapshot → seek to the
journal tail → reduce → rebuild a *fresh* stack from the reduction —
re-arming each pending timer at ``max(1, due - now)`` so deadlines that
passed while the process was dead fire **late, never skipped** (the PR 3
clock-jump discipline, reused for death) — then truncate any torn tail
bytes and continue appending at the next sequence number.

Semantics the journal buys, and their price (``docs/durability.md``):

* acknowledged ops survive a crash (``sync="always"``), or survive up to
  a bounded group-commit window (``sync="batch"``);
* expiry actions are **at-least-once**: a callback that ran just before
  the crash, whose outcome record missed the disk, runs again after
  recovery. Exactly-once is impossible without client cooperation; the
  chaos oracle (:func:`repro.faults.chaos.run_chaos` with a durable
  kill point) proves the *state* converges to the uninterrupted run
  bit-for-bit regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.core.errors import (
    TimerConfigurationError,
    TimerStateError,
)
from repro.core.interface import ExpiryAction, Timer
from repro.core.layer import SchedulerLayer
from repro.core.supervision import QuarantineRecord, origin_of
from repro.core.validation import check_interval
from repro.durability.journal import (
    DEFAULT_BATCH_SIZE,
    Journal,
    JournalWriteError,
    read_journal,
    truncate_to,
)
from repro.durability.snapshot import load_latest_snapshot, write_snapshot
from repro.durability.state import DurableState
from repro.faults.crash import CrashPoint

#: File name of the journal inside a durable service directory.
JOURNAL_NAME = "journal.jsonl"


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did (also printed by ``repro recover``)."""

    snapshot_seq: int
    snapshot_path: Optional[str]
    rejected_snapshots: List[Tuple[str, str]]
    replayed_records: int
    last_seq: int
    skipped_tail: List[Tuple[int, str]]
    truncated_bytes: int
    pending: int
    survivors: int
    quarantined: int
    catch_up_fired: int = 0

    def describe(self) -> List[str]:
        """Human-readable recovery summary, one line per fact."""
        lines = [
            f"snapshot: seq {self.snapshot_seq}"
            + (f" ({self.snapshot_path})" if self.snapshot_path else " (none)"),
            f"tail replayed: {self.replayed_records} records "
            f"(journal at seq {self.last_seq})",
            f"pending re-armed: {self.pending}; survivors on record: "
            f"{self.survivors}; quarantined: {self.quarantined}",
        ]
        for name, reason in self.rejected_snapshots:
            lines.append(f"rejected snapshot {name}: {reason}")
        for lineno, reason in self.skipped_tail:
            lines.append(f"skipped torn tail line {lineno}: {reason}")
        if self.truncated_bytes:
            lines.append(f"truncated {self.truncated_bytes} torn tail bytes")
        if self.catch_up_fired:
            lines.append(
                f"fired {self.catch_up_fired} missed deadlines late (never skipped)"
            )
        return lines


class DurableScheduler(SchedulerLayer):
    """Write-ahead-journaled facade over a scheduler stack.

    Request ids must be strings (they become JSON journal keys) and
    ``user_data`` must be JSON-serialisable; both are validated before
    anything is journaled or mutated. Omitted ids are assigned a
    persistent ``auto-d<n>`` series that survives recovery.
    """

    def __init__(
        self,
        scheduler,
        directory: Union[str, Path],
        *,
        sync: str = "batch",
        batch_size: int = DEFAULT_BATCH_SIZE,
        snapshot_every: Optional[int] = 256,
        keep_snapshots: int = 2,
        crash: Optional[CrashPoint] = None,
        fsync_fail_at_seq: Optional[int] = None,
        start_seq: int = 0,
        state: Optional[DurableState] = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise TimerConfigurationError(
                f"snapshot_every must be >= 1 or None, got {snapshot_every}"
            )
        if keep_snapshots < 1:
            raise TimerConfigurationError(
                f"keep_snapshots must be >= 1, got {keep_snapshots}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        journal_path = self.directory / JOURNAL_NAME
        if start_seq == 0 and state is None and journal_path.exists():
            if journal_path.stat().st_size > 0:
                raise TimerStateError(
                    f"{journal_path} already holds a journal; use "
                    "repro.durability.recover() to resume it"
                )
        super().__init__(scheduler)
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
        self._state = state if state is not None else DurableState()
        self._journal = Journal(
            journal_path,
            sync=sync,
            batch_size=batch_size,
            start_seq=start_seq,
            crash=crash,
            fsync_fail_at_seq=fsync_fail_at_seq,
        )
        self._snapshot_seq = start_seq
        self._supervised = hasattr(scheduler, "set_ledger")
        if self._supervised:
            scheduler.set_ledger(self._append)
        #: filled in by :func:`recover`.
        self.recovery: Optional[RecoveryReport] = None

    # ------------------------------------------------------------ client API

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback: Optional[ExpiryAction] = None,
        user_data: object = None,
    ) -> Timer:
        """START_TIMER, journaled before the stack is touched."""
        stack = self.inner
        auto = request_id is None
        if auto:
            request_id = f"auto-d{self._state.auto_seq}"
        if not isinstance(request_id, str):
            raise TimerConfigurationError(
                "durable timers require string request ids (journal keys); "
                f"got {type(request_id).__name__}"
            )
        if stack.is_pending(request_id):
            # Delegate so the stack raises its own duplicate-id error
            # without a phantom record reaching the journal first.
            return stack.start_timer(
                interval,
                request_id=request_id,
                callback=callback,
                user_data=user_data,
            )
        check_interval(interval, stack.max_start_interval())
        data = {
            "id": request_id,
            "interval": interval,
            "deadline": stack.now + interval,
            "now": stack.now,
            "user_data": user_data,
        }
        if auto:
            data["auto"] = True
        self._append("start", data)
        timer = stack.start_timer(
            interval,
            request_id=request_id,
            callback=callback,
            user_data=user_data,
        )
        self._maybe_snapshot()
        return timer

    def stop_timer(self, timer_or_id: Union[Timer, Hashable]) -> Timer:
        """STOP_TIMER, journaled before the stack is touched."""
        stack = self.inner
        if isinstance(timer_or_id, Timer):
            origin = origin_of(timer_or_id.request_id)
        else:
            origin = origin_of(timer_or_id)
        if not stack.is_pending(origin):
            return stack.stop_timer(timer_or_id)  # raises the stack's error
        self._append("stop", {"id": str(origin), "now": stack.now})
        stopped = stack.stop_timer(timer_or_id)
        self._maybe_snapshot()
        return stopped

    def update_timer(
        self, timer_or_id: Union[Timer, Hashable], new_interval: int
    ) -> Timer:
        """UPDATE_TIMER, journaled before the stack is touched.

        One ``update`` record per re-arm — replayed on recovery as a
        deadline move on the same pending entry, never a stop+start pair,
        so the journal stays one line per client op and the recovered id
        is the original one.
        """
        stack = self.inner
        if isinstance(timer_or_id, Timer):
            origin = origin_of(timer_or_id.request_id)
        else:
            origin = origin_of(timer_or_id)
        if not stack.is_pending(origin):
            # Delegate so the stack raises its own unknown/stale error
            # without a phantom record reaching the journal first.
            return stack.update_timer(timer_or_id, new_interval)
        check_interval(new_interval, stack.max_start_interval())
        self._append(
            "update",
            {
                "id": str(origin),
                "interval": new_interval,
                "deadline": stack.now + new_interval,
                "now": stack.now,
            },
        )
        updated = stack.update_timer(timer_or_id, new_interval)
        self._maybe_snapshot()
        return updated

    def tick(self) -> List[Timer]:
        """One supervised tick, with its clock motion journaled."""
        return self._advance_to(self.inner.now + 1)

    def advance(self, ticks: int) -> List[Timer]:
        """Advance ``ticks`` ticks; the clock motion is journaled first."""
        return self._advance_to(self.inner.now + ticks)

    def advance_to(self, deadline: int) -> List[Timer]:
        """Advance to an absolute tick; the motion is journaled first."""
        return self._advance_to(deadline)

    def _advance_to(self, target: int) -> List[Timer]:
        stack = self.inner
        if target > stack.now:
            self._append("advance", {"target": target})
        fired = stack.advance_to(target)
        if not self._supervised:
            self._journal_plain_expiries(fired)
        self._maybe_snapshot()
        return fired

    def run_until_idle(self, max_ticks: int = 1_000_000) -> List[Timer]:
        """Drain the stack, then journal the net clock motion."""
        stack = self.inner
        fired = stack.run_until_idle(max_ticks=max_ticks)
        if not self._supervised:
            self._journal_plain_expiries(fired)
        if stack.now > self._state.now:
            self._append("advance", {"target": stack.now})
        self._maybe_snapshot()
        return fired

    def sync_clock(self, wall_tick: int) -> List[Timer]:
        """Follow an external clock reading (supervised stacks only)."""
        stack = self.inner
        if not hasattr(stack, "sync_clock"):
            raise TimerStateError(
                "sync_clock requires a SupervisedScheduler stack"
            )
        self._append("sync", {"wall": wall_tick})
        fired = stack.sync_clock(wall_tick)
        self._maybe_snapshot()
        return fired

    def restart_timer(
        self,
        timer: Timer,
        interval: Optional[int] = None,
        request_id: Optional[Hashable] = None,
    ) -> Timer:
        """Not supported: a record-level restart would bypass the journal.

        Recovery rebuilds timers from ``start`` records; a restarted
        record has none. Re-arm a finished timer with :meth:`start_timer`.
        """
        raise TimerStateError(
            "DurableScheduler cannot restart a record in place; "
            "use start_timer so the re-arm is journaled"
        )

    def shutdown(self) -> List[Timer]:
        """Shut the stack down and close the journal (flushes first)."""
        cancelled = self.inner.shutdown()
        self.close()
        return cancelled

    # -------------------------------------------------------------- journal

    def _append(self, op: str, data: Dict[str, object]) -> int:
        """Journal one record and fold it into the live reduction.

        This is also the supervisor's ledger seam, so supervision
        outcomes flow through the same path as client ops.
        """
        seq = self._journal.append(op, data)
        self._state.apply(seq, op, data)
        return seq

    def _journal_plain_expiries(self, fired: List[Timer]) -> None:
        for timer in fired:
            self._append(
                "expire",
                {
                    "id": str(timer.request_id),
                    "deadline": timer.deadline,
                    "attempts": 1,
                    "now": self.inner.now,
                },
            )

    def _maybe_snapshot(self) -> None:
        if self.snapshot_every is None:
            return
        if self._journal.last_seq - self._snapshot_seq >= self.snapshot_every:
            try:
                self.snapshot()
            except JournalWriteError:
                pass  # an injected fsync failure defers the snapshot

    def snapshot(self) -> Path:
        """Write a snapshot covering everything journaled so far."""
        self._journal.flush(fsync=self._journal.sync != "never")
        seq = self._journal.last_seq
        path = write_snapshot(
            self.directory,
            self._state.to_dict(),
            seq,
            journal_offset=self._journal._length,
            keep=self.keep_snapshots,
        )
        self._snapshot_seq = seq
        return path

    def flush(self, fsync: bool = True) -> None:
        """Group-commit anything buffered in the journal."""
        self._journal.flush(fsync=fsync)

    def close(self) -> None:
        """Flush and close the journal; the stack stays usable in memory."""
        self._journal.close()

    def __enter__(self) -> "DurableScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ inspection

    @property
    def state(self) -> DurableState:
        """The live journal reduction (what a snapshot would contain)."""
        return self._state

    @property
    def journal(self) -> Journal:
        """The underlying :class:`~repro.durability.journal.Journal`."""
        return self._journal

    def introspect(self) -> Dict[str, object]:
        """The stack's introspection dict plus a ``"durability"`` section."""
        info = self.inner.introspect()
        info["durability"] = {
            "directory": str(self.directory),
            "sync": self._journal.sync,
            "batch_size": self._journal.batch_size,
            "journal_seq": self._journal.last_seq,
            "journal_unsynced": self._journal.unsynced,
            "journal_fsyncs": self._journal.fsyncs,
            "journal_bytes": self._journal.bytes_written,
            "snapshot_seq": self._snapshot_seq,
            "snapshot_every": self.snapshot_every,
            "pending_in_state": len(self._state.pending),
        }
        return info

    def __repr__(self) -> str:
        return (
            f"DurableScheduler({self.inner!r}, dir={str(self.directory)!r}, "
            f"sync={self._journal.sync!r}, seq={self._journal.last_seq})"
        )


def recover(
    directory: Union[str, Path],
    build_stack: Callable[[], object],
    *,
    rebind: Optional[Callable[[str, object], Optional[ExpiryAction]]] = None,
    sync: str = "batch",
    batch_size: int = DEFAULT_BATCH_SIZE,
    snapshot_every: Optional[int] = 256,
    keep_snapshots: int = 2,
    catch_up: bool = True,
) -> DurableScheduler:
    """Rebuild a durable service from its directory after a crash.

    ``build_stack`` constructs a fresh, empty scheduler stack of the
    same shape the journal was written against (scheme geometry and
    retry policy are code, not data — they are not serialised).
    ``rebind(request_id, user_data)`` resupplies the expiry callback for
    each recovered timer, since functions cannot be journaled; ``None``
    recovers bare timers.

    Steps: newest valid snapshot → seek to the journal tail → reduce →
    advance the fresh stack to the recovered tick → re-arm every pending
    timer (``max(1, due - now)``: late, never skipped) → restore
    survivor/quarantine/counter history → truncate torn tail bytes →
    reopen the journal at the next sequence number. With ``catch_up``
    (supervised stacks that had synced a wall clock), deadlines missed
    while dead are fired before the call returns; their outcomes are
    journaled like any others.
    """
    directory = Path(directory)
    loaded = load_latest_snapshot(directory)
    if loaded is not None:
        state = DurableState.from_dict(loaded.state)
        start_after = loaded.seq
        offset: Optional[int] = loaded.journal_offset
    else:
        state = DurableState()
        start_after = 0
        offset = None
    journal_path = directory / JOURNAL_NAME
    read = read_journal(journal_path, start_after=start_after, offset=offset)
    for seq, op, data in read.records:
        state.apply(seq, op, data)
    truncated = (
        truncate_to(journal_path, read.valid_length)
        if journal_path.exists()
        else 0
    )

    stack = build_stack()
    supervised = hasattr(stack, "adopt_timer")
    if state.now > stack.now:
        stack.advance_to(state.now)  # an empty stack: pure clock motion
    if supervised:
        for key, entry in state.pending.items():
            stack.adopt_timer(
                key,
                callback=rebind(key, entry["user_data"]) if rebind else None,
                user_data=entry["user_data"],
                deadline=entry["deadline"],
                due=entry["due"],
                attempts=entry["attempts"],
                rearm_seq=entry["rearm_seq"],
            )
        stack.restore_outcomes(
            [(key, deadline, attempts) for key, deadline, attempts in state.survivors],
            {
                key: QuarantineRecord(
                    request_id=key,
                    attempts=rec["attempts"],
                    reason=rec["reason"],
                    error=rec["error"],
                    quarantined_at=rec["at"],
                    deadline=rec["deadline"],
                )
                for key, rec in state.quarantine.items()
            },
        )
        stack.restore_counters(clock_jumps=state.clock_jumps, **state.counters)
        stack.restore_clock(state.wall, state.synced)
    else:
        bound = stack.max_start_interval()
        for key, entry in state.pending.items():
            interval = max(1, int(entry["due"]) - stack.now)
            if bound is not None and interval >= bound:
                interval = bound - 1
            stack.start_timer(
                interval,
                request_id=key,
                callback=rebind(key, entry["user_data"]) if rebind else None,
                user_data=entry["user_data"],
            )

    durable = DurableScheduler(
        stack,
        directory,
        sync=sync,
        batch_size=batch_size,
        snapshot_every=snapshot_every,
        keep_snapshots=keep_snapshots,
        start_seq=read.last_seq,
        state=state,
    )
    report = RecoveryReport(
        snapshot_seq=start_after,
        snapshot_path=str(loaded.path) if loaded is not None else None,
        rejected_snapshots=list(loaded.rejected) if loaded is not None else [],
        replayed_records=len(read.records),
        last_seq=read.last_seq,
        skipped_tail=list(read.skipped),
        truncated_bytes=truncated,
        pending=len(state.pending),
        survivors=len(state.survivors),
        quarantined=len(state.quarantine),
    )
    overdue = [
        key
        for key, entry in state.pending.items()
        if int(entry["due"]) <= state.now
    ]
    if catch_up and overdue:
        # Deadlines that passed while the process was dead were re-armed
        # one tick out; deliver them now — late, never skipped — through
        # the durable facade so their outcomes are journaled like any
        # others (ledger events on supervised stacks, expire records on
        # plain ones).
        report.catch_up_fired = len(durable.advance_to(state.now + 1))
    durable.recovery = report
    return durable
