"""Workload runs: episodes of set-up, timed steps, close and recovery.

A run repeats identical *episodes* until the timed steps have taken at
least ``--seconds`` in total (and at least :data:`MIN_EPISODES` times).
Each episode builds a fresh stack, loads the population and warms it up
(one ``setup_s`` sample), replays the schedule's timed steps (latencies
and throughput windows), checks the live pending set, closes the stack,
rebuilds its pending set in a fresh one (one ``recover_s`` sample), and
checks every delivered expiry against the shadow model. Fixed work per
episode keeps each sample comparable across runs and hosts; only the
number of episodes follows the host's speed.

The traced run alternates untraced and traced episodes, so tracing
overhead is measured on the same seed in the same process, and every
episode of both kinds must deliver the same expiry fingerprint.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.supervision import origin_of

from timerbench import measure, schedule as sched
from timerbench.schedule import (
    ADVANCE,
    START,
    STOP,
    STOP_MANY,
    UPDATE,
    UPDATE_MANY,
    Schedule,
)
from timerbench.stacks import (
    Stack,
    build_expire,
    build_mp,
    build_plain_expire,
    build_rearm,
    recover_rearm,
)
from timerbench.tracing import BACKEND, Tracer

MIN_EPISODES = 3
#: Rebuilds timed per episode (from the same journals or shadow set), so
#: ``recover_s`` is a median over at least six samples.
RECOVER_REPEATS = 2
#: Stop adding episodes past this much wall time (the hard limit is 180 s).
WALL_CAP_S = 120.0
LAYERS = ("runtime", "sharding", "durability", "core.supervision", "core")
OPS = ("start", "stop", "update", "advance")
LOAD_BATCH = 1024


@dataclass
class Side:
    """What one kind of episode (untraced or traced) measured."""

    window_ops: int
    windows: measure.Windows = field(init=False)
    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {op: [] for op in OPS}
    )
    episodes: int = 0
    timed_s: float = 0.0
    ops: int = 0
    advances: int = 0
    expiries: int = 0

    def __post_init__(self) -> None:
        self.windows = measure.Windows(
            self.window_ops, [self.latency[op] for op in OPS]
        )


@dataclass
class Run:
    """Everything a run measured and checked, across its episodes."""

    workload: str
    schedule: Schedule
    untraced: Side
    traced: Side
    tracer: Optional[Tracer] = None
    setup_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    #: per-layer counts gathered in traced episodes.
    counts: Dict[str, float] = field(default_factory=dict)
    #: the schedule's expected expiries as a multiset.
    want: Counter = field(init=False)

    def __post_init__(self) -> None:
        self.want = sched.expected_multiset(self.schedule.expected)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def fail(self, where: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")


# ------------------------------------------------------------- replaying steps


async def _drive_async(
    client, steps, sink: List[list], run: Run, side: Optional[Side], callback
) -> None:
    """Replay single-op steps through the async runtime.

    With ``side`` the steps are timed: one latency sample per client call
    and throughput windows over timer ops (starts, stops, updates and
    expiries delivered). Without it they are set-up.
    """
    if side is None:
        timing = None
    else:
        timing = side.latency
        windows = side.windows
        starts, stops, updates, advances = (
            timing["start"],
            timing["stop"],
            timing["update"],
            timing["advance"],
        )
    clock = perf_counter
    for step in steps:
        kind = step[0]
        run.attempted += 1
        ops = 1
        try:
            if kind == UPDATE:
                began = clock()
                await client.update_timer(step[1], step[2])
                if timing is not None:
                    updates.append(clock() - began)
            elif kind == START:
                began = clock()
                await client.start_timer(step[2], step[1], callback)
                if timing is not None:
                    starts.append(clock() - began)
            elif kind == STOP:
                began = clock()
                await client.stop_timer(step[1])
                if timing is not None:
                    stops.append(clock() - began)
            else:
                began = clock()
                fired = await client.advance_clock(step[1])
                if timing is not None:
                    advances.append(clock() - began)
                sink.append(fired)
                ops = len(fired)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            run.fail(f"{kind} {step[1]}", exc)
            if kind == ADVANCE:
                sink.append([])
            ops = 0
        if timing is not None:
            windows.add(ops)
            side.ops += ops


def _drive_batches(
    client,
    steps,
    sink: List[list],
    alias: Dict[str, str],
    run: Run,
    side: Optional[Side],
) -> None:
    """Replay batch steps straight into the sharded service.

    ``alias`` maps the schedule's name for an auto-id timer to the id the
    program gave it, learned from ``start_many``'s return value.
    """
    if side is None:
        timing = None
    else:
        timing = side.latency
        windows = side.windows
        starts, stops, updates, advances = (
            timing["start"],
            timing["stop"],
            timing["update"],
            timing["advance"],
        )
    clock = perf_counter
    for step in steps:
        kind = step[0]
        run.attempted += 1
        try:
            if kind == ADVANCE:
                began = clock()
                fired = client.advance_to(step[1])
                if timing is not None:
                    advances.append(clock() - began)
                sink.append(fired)
                ops = len(fired)
            elif kind == UPDATE_MANY:
                pairs = [(alias.get(rid, rid), iv) for rid, iv in step[1]]
                began = clock()
                client.update_many(pairs)
                if timing is not None:
                    updates.append(clock() - began)
                ops = len(pairs)
            elif kind == STOP_MANY:
                ids = [alias.get(rid, rid) for rid in step[1]]
                began = clock()
                client.stop_many(ids)
                if timing is not None:
                    stops.append(clock() - began)
                ops = len(ids)
            else:
                specs = [
                    (iv,) if auto else (iv, rid) for iv, rid, auto in step[1]
                ]
                began = clock()
                timers = client.start_many(specs)
                if timing is not None:
                    starts.append(clock() - began)
                for (_iv, rid, auto), timer in zip(step[1], timers):
                    if auto:
                        alias[rid] = timer.request_id
                ops = len(specs)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            run.fail(f"{kind}", exc)
            if kind == ADVANCE:
                sink.append([])
            ops = 0
        if timing is not None:
            windows.add(ops)
            side.ops += ops


# ------------------------------------------------------------- checks


def _delivered(sink: List[list], rename: Callable[[object], str]):
    return [
        [(rename(timer.request_id), timer.expired_at) for timer in fired]
        for fired in sink
    ]


def _pending(service, rename: Callable[[object], str]) -> Dict[str, int]:
    return {
        rename(timer.request_id): timer.deadline
        for timer in service.pending_timers()
    }


def _check_episode(
    run: Run,
    sink: List[list],
    rename: Callable[[object], str],
    pending_at_close: Dict[str, int],
    recovered: Optional[Dict[str, int]],
) -> None:
    """Shadow-model checks of one episode; problems go on ``run``.

    ``recovered`` is the pending set ``recover()`` rebuilt from the
    journals, or ``None`` for an in-memory stack, whose rebuild re-armed
    the shadow's own pending set and is only counted.
    """
    s = run.schedule
    delivered = _delivered(sink, rename)
    problems = sched.check_expiries(s.expected, delivered, s.stopped, want=run.want)
    problems += [
        f"at close: {p}"
        for p in sched.check_pending(s.final_pending, pending_at_close)
    ]
    if recovered is not None:
        problems += [
            f"after recovery: {p}"
            for p in sched.check_pending(s.final_pending, recovered)
        ]
    run.problems.extend(problems)
    timed = delivered[s.setup_advances:]
    run.fingerprints.append(
        sched.fingerprint(pair for step in timed for pair in step)
    )


def _origin_name(request_id) -> str:
    return str(origin_of(request_id))


# ------------------------------------------------------------- episodes


def _quiesce() -> None:
    """Collect the previous phase's garbage before timing the next one.

    Stacks hold reference cycles (supervisors store bound methods in
    their timers), so a closed stack lingers until a full collection,
    and a phase that starts on top of it allocates fresh pages and
    traverses it in every collection: each recovery of the same journal
    ran slower than the last without this.
    """
    gc.collect()


def _begin_timed(run: Run, side: Side, stack: Stack, traced: bool) -> dict:
    mark = {"t": perf_counter(), "ops": side.ops}
    if traced:
        run.tracer.enabled = True
        if stack.runtime is not None:
            mark["replans"] = stack.runtime.replans
        if stack.counter is not None:
            mark["core_ops"] = stack.counter.total
        mark["records"] = sum(d.journal.last_seq for d in stack.durables)
        mark["bytes"] = sum(d.journal.bytes_written for d in stack.durables)
    side.windows.begin()
    return mark


def _end_timed(
    run: Run, side: Side, stack: Stack, traced: bool, mark: dict, sink_timed
) -> None:
    side.timed_s += perf_counter() - mark["t"]
    side.episodes += 1
    side.advances += len(sink_timed)
    side.expiries += sum(len(fired) for fired in sink_timed)
    if not traced:
        return
    run.tracer.enabled = False
    ops = side.ops - mark["ops"]
    run.count("ops", ops)
    if stack.runtime is not None:
        run.count("replans", stack.runtime.replans - mark["replans"])
    if stack.counter is not None:
        run.count("core_ops", stack.counter.total - mark["core_ops"])
    for durable in stack.durables:
        durable.flush(fsync=False)
    run.count(
        "records", sum(d.journal.last_seq for d in stack.durables) - mark["records"]
    )
    run.count(
        "bytes",
        sum(d.journal.bytes_written for d in stack.durables) - mark["bytes"],
    )
    run.count("retries", sum(s.retries for s in stack.supervisors))
    bpt = _soa_bytes_per_timer(stack)
    if bpt is not None:
        run.count("soa_bytes", bpt[0])
        run.count("soa_timers", bpt[1])


def _soa_bytes_per_timer(stack: Stack) -> Optional[Tuple[int, int]]:
    """(store bytes, live timers) of the SoA stores, if the stack has any."""
    info = stack.service.introspect()
    shm = info.get("shared_memory")
    if shm:
        blocks = [b for b in shm if b]
        return (
            sum(b["bytes"] for b in blocks),
            sum(b["live_rows"] for b in blocks),
        )
    per_shard = info.get("per_shard", [])
    if per_shard and all("store_bytes" in s for s in per_shard):
        return (
            sum(s["store_bytes"] for s in per_shard),
            sum(s["pending"] for s in per_shard),
        )
    return None


async def _rearm_episode(run: Run, side: Side, workdir: Path, traced: bool) -> None:
    s = run.schedule
    directory = Path(tempfile.mkdtemp(prefix="rearm-", dir=workdir))
    try:
        _quiesce()
        began = perf_counter()
        stack = build_rearm(directory, run.tracer if traced else None)
        await stack.runtime.start()
        sink: List[list] = []
        await _drive_async(stack.client, s.setup, sink, run, None, None)
        for durable in stack.durables:
            durable.flush(fsync=False)
        run.setup_s.append(perf_counter() - began)

        _quiesce()
        mark = _begin_timed(run, side, stack, traced)
        await _drive_async(stack.client, s.timed, sink, run, side, None)
        _end_timed(run, side, stack, traced, mark, sink[s.setup_advances:])

        at_close = _pending(stack.service, _origin_name)
        await stack.runtime.aclose()  # shutdown flushes and closes journals
        stack.service.close()

        for _ in range(RECOVER_REPEATS):
            # recover() reopens each journal for append and closing it
            # writes nothing, so every repeat replays the same records.
            _quiesce()
            began = perf_counter()
            recovered = recover_rearm(directory)
            elapsed = perf_counter() - began
            run.recover_s.append(elapsed)
            if traced:
                replayed = sum(
                    shard.recovery.replayed_records for shard in recovered.shards
                )
                run.count("replayed", replayed)
                run.count("replay_s", elapsed)
            after = _pending(recovered, _origin_name)
            for shard in recovered.shards:
                shard.close()
            recovered.close()
        _check_episode(run, sink, _origin_name, at_close, after)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


async def _expire_episode(run: Run, side: Side, traced: bool) -> None:
    s = run.schedule
    delivered_by_callback: List[object] = []
    callback = delivered_by_callback.append
    _quiesce()
    began = perf_counter()
    stack = build_expire(run.tracer if traced else None)
    load = s.params["load_steps"]
    try:
        for index in range(0, load, LOAD_BATCH):
            stack.service.start_many(
                [
                    (step[2], step[1], callback)
                    for step in s.setup[index:min(index + LOAD_BATCH, load)]
                ]
            )
            run.attempted += 1
    except Exception as exc:  # noqa: BLE001 - counted and reported
        run.fail("load", exc)
    await stack.runtime.start()
    sink: List[list] = []
    await _drive_async(stack.client, s.setup[load:], sink, run, None, callback)
    run.setup_s.append(perf_counter() - began)

    _quiesce()
    mark = _begin_timed(run, side, stack, traced)
    await _drive_async(stack.client, s.timed, sink, run, side, callback)
    _end_timed(run, side, stack, traced, mark, sink[s.setup_advances:])

    at_close = _pending(stack.service, _origin_name)
    await stack.runtime.aclose()
    stack.service.close()
    fired = sum(len(f) for f in sink)
    if len(delivered_by_callback) != fired:
        run.problems.append(
            f"callbacks ran {len(delivered_by_callback)} times for {fired} expiries"
        )

    for _ in range(RECOVER_REPEATS):
        _quiesce()
        began = perf_counter()
        fresh = build_plain_expire()
        _restore(fresh, s.final_now, s.final_pending, {})
        run.recover_s.append(perf_counter() - began)
        _check_restored(run, fresh)
        fresh.close()
    _check_episode(run, sink, _origin_name, at_close, None)


def _check_restored(run: Run, service) -> None:
    want = len(run.schedule.final_pending)
    if service.pending_count != want:
        run.problems.append(
            f"after restore: {service.pending_count} pending, shadow {want}"
        )


def _restore(service, now: int, pending: Dict[str, int], alias: Dict[str, str]) -> None:
    """Re-arm a closed in-memory stack's pending set in a fresh one: the
    only recovery a stack without a journal has."""
    service.advance_to(now)
    specs = [
        (due - now, alias.get(rid, rid)) for rid, due in pending.items()
    ]
    for index in range(0, len(specs), LOAD_BATCH):
        service.start_many(specs[index:index + LOAD_BATCH])


def _mp_episode(run: Run, side: Side, traced: bool) -> None:
    s = run.schedule
    population = s.params["population"]
    alias: Dict[str, str] = {}
    names: Dict[object, str] = {}

    def rename(request_id) -> str:
        return names.get(request_id, request_id)

    _quiesce()
    began = perf_counter()
    stack = build_mp(population, run.tracer if traced else None)
    try:
        sink: List[list] = []
        _drive_batches(stack.client, s.setup, sink, alias, run, None)
        run.setup_s.append(perf_counter() - began)

        _quiesce()
        mark = _begin_timed(run, side, stack, traced)
        _drive_batches(stack.client, s.timed, sink, alias, run, side)
        _end_timed(run, side, stack, traced, mark, sink[s.setup_advances:])
        names.update((program, name) for name, program in alias.items())
        at_close = _pending(stack.service, rename)
    finally:
        stack.service.close()

    for _ in range(RECOVER_REPEATS):
        _quiesce()
        began = perf_counter()
        fresh = build_mp(population).service
        try:
            _restore(fresh, s.final_now, s.final_pending, alias)
            run.recover_s.append(perf_counter() - began)
            _check_restored(run, fresh)
        finally:
            fresh.close()
    _check_episode(run, sink, rename, at_close, None)


# ------------------------------------------------------------- the run

MAKERS = {
    "rearm": sched.make_rearm,
    "expire": sched.make_expire,
    "mp_batch": sched.make_mp_batch,
}
#: Throughput window size in timer ops, per workload (~0.05-0.1 s each).
WINDOW_OPS = {"rearm": 2048, "expire": 8192, "mp_batch": 2048}


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> Run:
    schedule = MAKERS[workload](seed)
    size = WINDOW_OPS[workload]
    run = Run(
        workload=workload,
        schedule=schedule,
        untraced=Side(size),
        traced=Side(size),
        tracer=Tracer() if trace else None,
    )
    workdir.mkdir(parents=True, exist_ok=True)

    def kinds():
        """Untraced episodes; the traced run alternates with traced ones."""
        episode = 0
        started = perf_counter()
        while True:
            if episode >= MIN_EPISODES:
                timed = run.untraced.timed_s + run.traced.timed_s
                if timed >= seconds or perf_counter() - started > WALL_CAP_S:
                    return
            yield trace and episode % 2 == 1
            episode += 1

    if workload == "mp_batch":
        for traced in kinds():
            side = run.traced if traced else run.untraced
            _mp_episode(run, side, traced)
    else:

        async def main() -> None:
            for traced in kinds():
                side = run.traced if traced else run.untraced
                if workload == "rearm":
                    await _rearm_episode(run, side, workdir, traced)
                else:
                    await _expire_episode(run, side, traced)

        asyncio.run(main())
    return run


# ------------------------------------------------------------- metrics


def end_to_end(run: Run) -> Dict[str, float]:
    """End-to-end metrics of the untraced episodes. Medians use every
    sample; tails use the steady windows' samples (see
    :meth:`~timerbench.measure.Windows.steady`)."""
    side = run.untraced
    lat = side.latency
    tail = dict(zip(OPS, side.windows.steady()[1]))
    us = 1e6
    return {
        "ops_per_s": measure.windowed_median(side.windows.rates),
        "start_us_p50": measure.p50(lat["start"]) * us,
        "start_us_p95": measure.p95(tail["start"]) * us,
        "stop_us_p50": measure.p50(lat["stop"]) * us,
        "update_us_p50": measure.p50(lat["update"]) * us,
        "update_us_p95": measure.p95(tail["update"]) * us,
        "advance_us_p50": measure.p50(lat["advance"]) * us,
        "advance_us_p95": measure.p95(tail["advance"]) * us,
        "recover_s": measure.p50(run.recover_s),
        "peak_rss_mb": measure.peak_rss_mb(),
        "setup_s": measure.p50(run.setup_s),
    }


def per_layer(run: Run) -> Dict[str, float]:
    """Per-layer figures from the traced episodes (0 for a layer that is
    not on this workload's measured path)."""
    tracer = run.tracer
    counts = run.counts
    ops = counts.get("ops", 0.0) or 1.0
    metrics: Dict[str, float] = {}
    for name in LAYERS:
        for op in OPS:
            metrics[f"{name}.{op}.self_us"] = tracer.self_us(f"{name}.{op}")
    # Supervision's per-expiry dispatch runs inside the scheme's advance;
    # it is supervision's share of each advance.
    supervised_advances = tracer.calls.get("core.supervision.advance", 0)
    if supervised_advances:
        metrics["core.supervision.advance.self_us"] = (
            tracer.self_s["core.supervision.advance"]
            + tracer.self_s.get("core.supervision.expire", 0.0)
        ) / supervised_advances * 1e6
    sharding_advances = tracer.calls.get("sharding.advance", 0)
    backend_submits = tracer.calls.get(f"{BACKEND}.submit", 0)
    replay_s = counts.get("replay_s", 0.0)
    soa_timers = counts.get("soa_timers", 0.0)
    traced_rate = measure.windowed_median(run.traced.windows.rates)
    untraced_rate = measure.windowed_median(run.untraced.windows.rates)
    metrics.update(
        {
            "runtime.replans_per_op": counts.get("replans", 0.0) / ops,
            "sharding.crossings_per_op": tracer.crossings / ops,
            "sharding.backends.submit_us": (
                tracer.self_s.get(f"{BACKEND}.submit", 0.0) / backend_submits * 1e6
                if backend_submits
                else 0.0
            ),
            "sharding.backends.advance_us": (
                tracer.self_s.get(f"{BACKEND}.advance", 0.0) / sharding_advances * 1e6
                if sharding_advances
                else 0.0
            ),
            "sharding.backends.crossings": (
                tracer.crossings / tracer.client_calls if tracer.client_calls else 0.0
            ),
            "durability.records_per_op": counts.get("records", 0.0) / ops,
            "durability.bytes_per_op": counts.get("bytes", 0.0) / ops,
            "durability.replay_records_per_s": (
                counts.get("replayed", 0.0) / replay_s if replay_s else 0.0
            ),
            "core.supervision.retries": counts.get("retries", 0.0),
            "core.ops_per_op": counts.get("core_ops", 0.0) / ops,
            "core.expiries_per_advance": (
                run.traced.expiries / run.traced.advances
                if run.traced.advances
                else 0.0
            ),
            "structures.soa.bytes_per_timer": (
                counts.get("soa_bytes", 0.0) / soa_timers if soa_timers else 0.0
            ),
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.traced_ops_per_s": traced_rate,
            "trace.slowdown": untraced_rate / traced_rate,
        }
    )
    return metrics


def checks(run: Run) -> List[str]:
    """Run-level checks on top of the per-episode shadow checks."""
    problems = list(run.problems)
    if run.failed:
        problems.append(f"{run.failed} client call(s) raised: {run.errors[:3]}")
    if len(set(run.fingerprints)) > 1:
        problems.append(
            f"expiry fingerprint differs between episodes: {run.fingerprints}"
        )
    return problems
