"""Crash chaos: kill the durable service mid-plan, recover, compare.

The strongest claim the durability layer makes is not "it writes a
journal" — it is that **process death is unobservable in the outcome**:
run the standard chaos workload (:mod:`repro.faults.chaos`) against a
``DurableScheduler``-wrapped supervised scheme
(``run_chaos(scheme, durable=DurableSpec(kill_at_seq=...))``), kill the process at an
arbitrary journal sequence number (leaving the log fully-missing, torn,
corrupt, or fully durable at the kill point), recover from disk, let the
surviving clients re-issue whatever was never made durable, drain — and
the resulting fingerprint (survivors with their attempt counts,
quarantine set, retry/shed/jump/injection counters, the lot) must be
**bit-identical** to an uninterrupted :func:`~repro.faults.chaos.
run_chaos` of the same plan on the same scheme.

Why that holds: every fault and retry decision keys on ``(request_id,
attempt)``, never on wall time; the journal reduction restores exactly
the durable attempt history; re-executed attempts (the at-least-once
window) re-draw the *same* planned outcomes; and derived state (clock
jumps) is recomputed from the sync-record stream rather than stored.

The crash boundary is modelled faithfully: the **service** loses
everything in memory and is rebuilt purely from disk (fresh scheme,
fresh supervisor, injector service-state re-derived from the journal via
:meth:`~repro.faults.injector.FaultInjector.reset_service_state`); the
**clients** survive (they are other processes) and keep their op
cursor, their ack history, and their client-side injector state — so on
reconnect they skip ops the journal proves applied, re-issue the
acknowledged-but-lost group-commit tail idempotently, and carry on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.supervision import SupervisedScheduler
from repro.faults.chaos import ChaosClient, ChaosShard, DurableSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability.service import RecoveryReport


def recover_and_reissue(
    client: ChaosClient,
    ops: List[Tuple[str, object, int]],
    spec: DurableSpec,
    directory: str,
    build_supervisor: Callable[[], SupervisedScheduler],
) -> Optional["RecoveryReport"]:
    """The service died mid-run: recover it, re-issue the lost ops, drain.

    Rebuilds the stack purely from ``directory`` and points ``client``
    at it, then replays ``ops``: skipping what the journal proves
    applied, re-issuing bare service calls for ops the client had
    already attempted (their client-side admission ran before the
    crash), and issuing the rest normally.
    """
    # repro.durability imports repro.faults.crash; importing it here, at
    # call time, keeps the two packages cycle-free.
    from repro.durability.service import recover

    injector = client.injector
    supervisors: List[SupervisedScheduler] = []

    def build_stack() -> SupervisedScheduler:
        supervisors.append(build_supervisor())
        return supervisors[-1]

    durable = recover(
        directory,
        build_stack,
        rebind=lambda request_id, user_data: injector.wrap_action(
            None, key=request_id
        ),
        sync=spec.sync,
        batch_size=spec.batch_size,
        snapshot_every=spec.snapshot_every,
    )
    client.stack = client.clock = ChaosShard(
        durable, supervisors[-1], injector, durable
    )
    # The service-side injector state died with it; re-derive it from
    # the journal. Client-side state survives in the injector.
    injector.reset_service_state(durable.state.attempts_map())
    client.stopped.update(durable.state.stopped)

    seen = durable.state.seen_ids()
    syncs_done = durable.state.syncs
    sync_ordinal = 0
    for index, (kind, key, value) in enumerate(ops):
        if kind == "sync":
            sync_ordinal += 1
            if sync_ordinal > syncs_done:  # else durably applied
                client.sync(key)
        elif kind == "start":
            if key in seen or key in client.alloc_failed:
                continue  # durably applied, or resolved client-side
            if index <= client.cursor:
                # Attempted before the crash: client admission
                # (allocator-pressure ordinal) was already consumed,
                # so re-issue the bare service call idempotently.
                client.stack.start_timer(value, request_id=key)
            else:
                client.start(key, value)
            seen.add(key)
        elif durable.is_pending(key):  # stop
            if index <= client.cursor:
                # Any stop race already resolved client-side.
                durable.stop_timer(key)
                client.stopped.add(key)
            else:
                client.stop(key)
    client.clock.run_until_idle(max_ticks=client.drain_ticks)
    return durable.recovery
