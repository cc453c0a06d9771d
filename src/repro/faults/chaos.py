"""Differential chaos: one fault plan replayed across every scheme.

The oracle trick of ``tests/core/test_advance_fast_path.py`` (two runs
must agree bit-for-bit) generalised to fault tolerance: because a
:class:`~repro.faults.plan.FaultPlan` keys every decision on
``(request_id, attempt)`` and a
:class:`~repro.core.supervision.SupervisedScheduler` keys every backoff
on the same pair, replaying one plan + one client workload over all nine
scheme modules must yield **identical surviving-expiry sequences and
identical retry/quarantine/shed counts** — any divergence is a
scheme-specific fault-handling bug. ``python -m repro chaos`` runs this
as a command; the ``chaos-smoke`` CI job runs it on every push.

Canonicalisation: survivors are compared sorted by ``(client deadline,
request_id)`` rather than firing order, because the two Nichols variants
legitimately fire at rounded ticks — the *set of timers that survive,
and how hard each had to be retried*, is scheme-invariant; the firing
instant is not. Client stops are scheduled strictly before any scheme's
earliest possible (early-fired) deadline so the stop/fire race cannot
diverge between exact and lossy hierarchies.

The same replay runs through composed stacks — sharded over any
execution backend, behind the async runtime, journaled (and killed and
recovered) by the durable layer: :func:`run_chaos` takes each
composition as a parameter, and every composition must reproduce the
plain supervised run's fingerprint.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import random
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.errors import TimerStateError, UnknownTimerError
from repro.core.layer import SchedulerLayer
from repro.core.registry import make_scheduler, scheme_names
from repro.core.supervision import RetryPolicy, SupervisedScheduler
from repro.faults.clock import SkewedClock
from repro.faults.crash import CrashPoint, SimulatedCrash
from repro.faults.injector import (
    AllocationPressure,
    FaultInjector,
    TransientStopRace,
)
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability.service import RecoveryReport

#: Construction kwargs giving every scheme room for the chaos workload's
#: interval range (<= ~4000 ticks plus retry backoffs).
SCHEME_KWARGS: Dict[str, Dict[str, object]] = {
    "scheme4": {"max_interval": 1 << 13},
    "scheme7": {"slot_counts": (64, 64, 64)},
    "scheme7-lossy": {"slot_counts": (64, 64, 64)},
    "scheme7-onemigration": {"slot_counts": (64, 64, 64)},
}

#: The default plan the CLI and CI smoke replay: callback failures (two ids
#: scripted to exhaust their retries and land in quarantine), simulated slow
#: callbacks, transient stop races, allocator pressure, and a forward + a
#: backward clock jump.
DEFAULT_PLAN = FaultPlan(
    seed=7,
    fail_rate=0.35,
    slow_rate=0.10,
    stop_race_rate=0.5,
    alloc_failure_every=7,
    clock_jumps=((120, 80), (260, -60)),
    scripted={
        "t3": ("fail", "fail", "fail", "fail"),
        "t9": ("fail", "fail", "fail", "fail"),
    },
)

#: The retry policy every chaos run uses unless given another.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_backoff=1, backoff_multiplier=2.0, max_backoff=48
)

#: Fingerprint fields a finite tick budget makes stack-dependent: shedding
#: follows each scheme's per-tick burstiness, and a sharded stack meters
#: the budget per shard.
BUDGET_DEPENDENT = frozenset({
    "shed", "retries", "injected_failures", "injected_hangs",
    "slow_invocations", "survivors", "quarantined",
})


def fingerprint(pairs: Iterable[Tuple[int, int]]) -> int:
    """CRC-32 over sorted ``(fired_at, interval)`` expiry pairs.

    Order-independent, so schemes with different within-tick drain
    orders still compare equal.
    """
    crc = 0
    for fired_at, interval in sorted(pairs):
        crc = zlib.crc32(b"%d:%d;" % (fired_at, interval), crc)
    return crc


@dataclass(frozen=True)
class ChaosWorkload:
    """A deterministic client-op schedule, identical for every scheme.

    Timers arrive over the first ``arrival_window`` steps with intervals
    drawn either short (level-0 exact on every hierarchy) or long
    (``>= large_min``, where the Nichols variants' early-fire error is
    bounded by one level-1 slot, 63 ticks). Stops are planned only for
    long timers at offsets ``<= interval // 8`` so they always precede
    the earliest possible firing on any scheme, even after the plan's
    forward clock jumps.
    """

    n_timers: int = 40
    horizon: int = 600
    seed: int = 1
    arrival_window: int = 150
    small_max: int = 63
    large_min: int = 512
    large_max: int = 4000
    large_fraction: float = 0.5
    stop_fraction: float = 0.25

    def ops(self) -> Dict[int, List[Tuple[str, str, int]]]:
        """``step -> [("start", key, interval) | ("stop", key, 0)]``."""
        rng = random.Random(self.seed)
        schedule: Dict[int, List[Tuple[str, str, int]]] = {}
        for i in range(self.n_timers):
            key = f"t{i}"
            step = rng.randint(1, self.arrival_window)
            if rng.random() < self.large_fraction:
                interval = rng.randint(self.large_min, self.large_max)
                if rng.random() < self.stop_fraction:
                    offset = rng.randint(1, interval // 8)
                    schedule.setdefault(step + offset, []).append(
                        ("stop", key, 0)
                    )
            else:
                interval = rng.randint(1, self.small_max)
            schedule.setdefault(step, []).append(("start", key, interval))
        return schedule


@dataclass(frozen=True)
class DurableSpec:
    """The durable layer of a chaos stack.

    ``sync``/``batch_size``/``snapshot_every`` configure each
    :class:`~repro.durability.service.DurableScheduler`. ``kill_at_seq``
    and ``crash_mode`` (or, when ``kill_at_seq`` is ``None``, the plan's
    own ``crash_at_seq`` fields) place a
    :class:`~repro.faults.crash.CrashPoint`: the service dies there, is
    recovered from disk, and the clients re-issue what the journal lost
    (:mod:`repro.faults.chaos_durable`). ``journal_dir=None`` uses a
    temp directory, removed afterwards.
    """

    sync: str = "batch"
    kill_at_seq: Optional[int] = None
    crash_mode: str = "after"
    journal_dir: Optional[Union[str, Path]] = None
    batch_size: int = 16
    snapshot_every: Optional[int] = 64

    def crash_point(self, plan: FaultPlan) -> Optional[CrashPoint]:
        """Where the run dies, if anywhere."""
        if self.kill_at_seq is not None:
            return CrashPoint(self.kill_at_seq, self.crash_mode)
        return plan.crash_point()


@dataclass
class DurableReport:
    """What the durable layer of a chaos run saw: the crash, if any, and
    the journal it left."""

    crashed: bool
    crash: Optional[CrashPoint]
    recovery: Optional["RecoveryReport"]
    #: the journal directory, or ``None`` when it was a removed temp dir.
    journal_dir: Optional[str]
    records_appended: int
    fsyncs: int
    snapshots_kept: int


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    #: the stack's label, e.g. ``scheme6``, ``sharded[4xscheme6]``,
    #: ``async:scheme1``.
    scheme: str
    #: (request_id, client deadline, attempts) sorted by (deadline, id).
    survivors: Tuple[Tuple[str, int, int], ...]
    #: (request_id, attempts, reason) sorted by id.
    quarantined: Tuple[Tuple[str, int, str], ...]
    retries: int
    shed: int
    deferred: int
    dropped: int
    degraded: int
    clock_jumps: int
    overruns: int
    stopped: int
    alloc_skipped: int
    stop_races: int
    injected_failures: int
    injected_hangs: int
    slow_invocations: int
    pending_left: int
    introspection: Dict[str, object] = field(default_factory=dict)
    #: set when the stack had a durable layer.
    durable: Optional[DurableReport] = None

    def fingerprint(self) -> Dict[str, object]:
        """The scheme-invariant subset the differential check compares."""
        return {
            "survivors": self.survivors,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "shed": self.shed,
            "clock_jumps": self.clock_jumps,
            "stopped": self.stopped,
            "alloc_skipped": self.alloc_skipped,
            "stop_races": self.stop_races,
            "injected_failures": self.injected_failures,
            "injected_hangs": self.injected_hangs,
            "slow_invocations": self.slow_invocations,
            "pending_left": self.pending_left,
        }

    def summary_row(self) -> Tuple[object, ...]:
        """One row for the CLI's differential table."""
        return (
            self.scheme,
            len(self.survivors),
            len(self.quarantined),
            self.retries,
            self.shed,
            self.stopped,
            self.clock_jumps,
            self.injected_failures,
        )


class ChaosShard(SchedulerLayer):
    """The top of one chaos stack: fault wrapping plus the run's counters.

    Below it sits a supervised scheme, behind a
    :class:`~repro.durability.service.DurableScheduler` when the stack
    is durable. Unsharded, one ChaosShard is the whole stack; sharded,
    every shard is one, living wherever the backend runs it — this
    process or a worker process. Every STARTed callback
    is wrapped at this seam; supervisor re-arms go through the scheme
    directly, so the wrap happens exactly once per client timer.

    Determinism across backends: the service routes each request id to
    exactly one shard, so the per-shard attempt maps partition the
    single shared map an unsharded run keeps — and every plan decision
    is a pure function of ``(request_id, attempt)``, so *where* the
    shard executes cannot change any outcome. Summing the per-shard
    injected counters therefore reproduces the shared-injector totals
    exactly. Order-*dependent* seams (allocator pressure, stop races)
    never reach this class — the client keeps them
    (:meth:`FaultInjector.check_alloc` / ``check_stop_race``).
    """

    def __init__(
        self,
        inner,
        supervisor: SupervisedScheduler,
        injector: FaultInjector,
        durable=None,
    ) -> None:
        super().__init__(inner)
        self.supervisor = supervisor
        self.injector = injector
        #: the DurableScheduler layer, when the stack has one.
        self.durable = durable

    def start_timer(
        self,
        interval: int,
        request_id: Optional[Hashable] = None,
        callback=None,
        user_data: object = None,
    ):
        """START_TIMER with the callback behind the plan's fault wrapper."""
        # key=None: the plan key resolves from the fired timer's origin,
        # so re-arm attempts continue the same per-id series.
        return self.inner.start_timer(
            interval,
            request_id=request_id,
            callback=self.injector.wrap_action(callback, key=None),
            user_data=user_data,
        )

    def sync_clock(self, wall_tick: int):
        """Follow the chaos clock (the supervisor's jump discipline)."""
        return self.inner.sync_clock(wall_tick)

    def finish(self) -> Dict[str, object]:
        """This shard's contribution to the run's result (picklable).

        Closes the durable layer first, which group-commits the journal
        the way a clean shutdown would.
        """
        supervisor = self.supervisor
        stats: Dict[str, object] = {
            "survivors": [
                (str(origin), deadline, attempts)
                for origin, deadline, attempts in supervisor.survivors
            ],
            "quarantined": [
                (str(rec.request_id), rec.attempts, rec.reason)
                for rec in supervisor.quarantine.values()
            ],
            "pending_left": supervisor.supervised_count,
            "counters": supervisor.counters(),
            "injected": self.injector.counters(),
        }
        if self.durable is not None:
            self.durable.close()
            stats["journal"] = (
                self.durable.journal.last_seq,
                self.durable.journal.fsyncs,
            )
        return stats


def _build_supervisor(
    scheme: str,
    scheme_kwargs: Dict[str, object],
    injector: FaultInjector,
    retry_policy: RetryPolicy,
    tick_budget: Optional[int],
    overload_policy: str,
) -> SupervisedScheduler:
    """A fresh supervised scheme priced by the plan's cost hook."""
    return SupervisedScheduler(
        make_scheduler(scheme, **scheme_kwargs),
        retry_policy=retry_policy,
        tick_budget=tick_budget,
        overload_policy=overload_policy,
        cost_hook=injector.cost_of,
    )


def build_chaos_shard(
    index: int,
    scheme: str,
    scheme_kwargs: Dict[str, object],
    plan: FaultPlan,
    retry_policy: RetryPolicy,
    tick_budget: Optional[int],
    overload_policy: str,
    durable: Optional[DurableSpec] = None,
    journal_dir: Optional[str] = None,
    injector: Optional[FaultInjector] = None,
) -> ChaosShard:
    """Module-level shard factory — picklable, so every backend can use it.

    A sharded stack gives every shard its own injector and journal
    directory (``<journal_dir>/shard<index>``); an unsharded one passes
    the client's injector, so one object holds both halves of the plan.
    """
    sharded = injector is None
    injector = FaultInjector(plan) if sharded else injector
    supervisor = _build_supervisor(
        scheme, scheme_kwargs, injector, retry_policy, tick_budget, overload_policy
    )
    if durable is None:
        return ChaosShard(supervisor, supervisor, injector)
    from repro.durability.service import DurableScheduler

    layer = DurableScheduler(
        supervisor,
        Path(journal_dir) / f"shard{index}" if sharded else journal_dir,
        sync=durable.sync,
        batch_size=durable.batch_size,
        snapshot_every=durable.snapshot_every,
        crash=durable.crash_point(plan),
        fsync_fail_at_seq=plan.fsync_fail_at_seq,
    )
    return ChaosShard(layer, supervisor, injector, layer)


def _client_ops(
    workload: ChaosWorkload, plan: FaultPlan
) -> List[Tuple[str, object, int]]:
    """The client op stream as one ordered list: each step's start/stop
    ops, then that step's (skewed) clock reading as a ``sync`` op."""
    schedule = workload.ops()
    clock = SkewedClock(plan.clock_jumps)
    ops: List[Tuple[str, object, int]] = []
    for step, reading in enumerate(clock.ticks(workload.horizon), start=1):
        ops.extend(schedule.get(step, ()))
        ops.append(("sync", reading, 0))
    return ops


class ChaosClient:
    """The client side of a chaos run: the one drive loop.

    Issues the op stream to ``stack`` through the order-dependent fault
    seams, which stay here whatever the stack — the allocator-pressure
    decision depends on the client's serial start order, the stop race
    on the client colliding with expiry processing. Clock readings and
    the final drain go to ``clock``: the stack itself, or the async
    runtime in front of it. Remembers which keys it stopped and which
    starts the allocator refused, and how far it got (``cursor``), so a
    crash-recovered run knows what is left to re-issue.
    """

    def __init__(
        self,
        stack,
        injector: FaultInjector,
        drain_ticks: int,
        transient: Tuple[type, ...] = (),
    ) -> None:
        self.stack = stack
        self.clock = stack
        self.injector = injector
        self.drain_ticks = drain_ticks
        #: one-shot service errors whose retry goes through (an injected
        #: journal fsync failure).
        self.transient = transient
        self.stopped: Set[str] = set()
        self.alloc_failed: Set[str] = set()
        self.cursor = -1

    def call(self, method, *args, **kwargs):
        """One service call, retried once past a transient error."""
        try:
            return method(*args, **kwargs)
        except self.transient:
            return method(*args, **kwargs)

    def start(self, key: str, interval: int) -> None:
        """START_TIMER unless the allocator-pressure seam refuses it."""
        try:
            self.injector.check_alloc()
        except AllocationPressure:
            self.alloc_failed.add(key)
            return
        self.call(self.stack.start_timer, interval, request_id=key)

    def stop(self, key: str) -> None:
        """STOP_TIMER of a live timer, riding out a planned stop race."""
        if not self.stack.is_pending(key):
            return
        try:
            self.injector.check_stop_race(key)
        except TransientStopRace:
            # The race is transient by construction: retry once.
            try:
                self.stack.stop_timer(key)
            except (UnknownTimerError, TimerStateError):
                return
        else:
            self.call(self.stack.stop_timer, key)
        self.stopped.add(key)

    def sync(self, reading: int) -> None:
        """Feed one clock reading."""
        self.call(self.clock.sync_clock, reading)

    def run(self, ops: List[Tuple[str, object, int]]) -> None:
        """Issue every op in order, then drain until idle."""
        for index, (kind, key, value) in enumerate(ops):
            self.cursor = index
            if kind == "start":
                self.start(key, value)
            elif kind == "stop":
                self.stop(key)
            else:
                self.sync(key)
        self.cursor = len(ops)
        self.clock.run_until_idle(max_ticks=self.drain_ticks)


class _Runtime:
    """An :class:`~repro.runtime.service.AsyncTimerService` on a
    :class:`~repro.runtime.clock.FakeClock` in front of a stack, driven
    from synchronous code: each reading and the drain run under the
    event loop (the runtime's explicit-sync ``advance_clock`` mode)."""

    def __init__(self, stack) -> None:
        from repro.runtime.clock import FakeClock
        from repro.runtime.service import AsyncTimerService

        self._loop = asyncio.new_event_loop()
        self.service = AsyncTimerService(
            stack, tick_duration=1.0, clock=FakeClock()
        )
        self._loop.run_until_complete(self.service.start())

    def sync_clock(self, reading: int):
        return self._loop.run_until_complete(self.service.advance_clock(reading))

    def run_until_idle(self, max_ticks: int):
        return self._loop.run_until_complete(
            self.service.run_until_idle(max_ticks=max_ticks)
        )

    def close(self) -> None:
        try:
            self._loop.run_until_complete(self.service.aclose())
        finally:
            self._loop.close()


def run_chaos(
    scheme: str,
    plan: Optional[FaultPlan] = None,
    workload: Optional[ChaosWorkload] = None,
    retry_policy: Optional[RetryPolicy] = None,
    tick_budget: Optional[int] = None,
    overload_policy: str = "defer",
    drain_ticks: int = 100_000,
    scheme_kwargs: Optional[Dict[str, object]] = None,
    *,
    shards: Optional[int] = None,
    backend: str = "inprocess",
    backend_options: Optional[Dict[str, object]] = None,
    runtime: bool = False,
    durable: Optional[DurableSpec] = None,
) -> ChaosResult:
    """Replay one fault plan + workload through one stack.

    The stack, bottom up: ``scheme`` (with ``scheme_kwargs`` overlaid on
    its :data:`SCHEME_KWARGS` defaults, e.g. ``{"store": "soa"}``) →
    supervision → a durable journal when ``durable`` is given → a
    :class:`ChaosShard` → a ``shards``-way sharded service on
    ``backend`` when ``shards`` is given → the async runtime when
    ``runtime`` is true. Every composition replays the identical client
    op stream, and every fault decision is a pure function of
    ``(request_id, attempt)``, so the fingerprint must equal the plain
    supervised run's: partitioning may move timers between queues,
    backends may move queues between address spaces, the runtime may
    deliver the clock from an event loop, and the journal may kill and
    recover the process — none may change what survives or how hard it
    was retried.

    Client operations are issued by *step number* (the external clock's
    drive count), then the stack syncs to the skewed clock reading;
    after the drive the run drains until idle so every retry chain
    resolves to a survivor or a quarantine entry.

    Per-shard supervisors each count the *same* clock-jump sequence, so
    ``clock_jumps`` is read from one shard, not summed. A finite
    ``tick_budget`` applies *per shard*, so sharded shedding legitimately
    diverges from the unsharded run's (see :data:`BUDGET_DEPENDENT`).
    A kill point (see :class:`DurableSpec`) needs the unsharded,
    synchronous stack.
    """
    plan = plan if plan is not None else DEFAULT_PLAN
    workload = workload if workload is not None else ChaosWorkload()
    build_kwargs = dict(SCHEME_KWARGS.get(scheme, {}))
    if scheme_kwargs:
        build_kwargs.update(scheme_kwargs)
    crash = durable.crash_point(plan) if durable is not None else None
    if crash is not None and (shards is not None or runtime):
        raise ValueError(
            "a durable kill point needs the unsharded, synchronous stack"
        )
    injector = FaultInjector(plan)  # the client-side seams
    supervisor_args = dict(
        scheme=scheme,
        scheme_kwargs=build_kwargs,
        retry_policy=retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY,
        tick_budget=tick_budget,
        overload_policy=overload_policy,
    )
    transient: Tuple[type, ...] = ()
    report: Optional[DurableReport] = None
    with contextlib.ExitStack() as cleanup:
        journal_dir: Optional[str] = None
        if durable is not None:
            from repro.durability.journal import JournalWriteError

            transient = (JournalWriteError,)
            if durable.journal_dir is not None:
                journal_dir = str(durable.journal_dir)
            else:
                journal_dir = tempfile.mkdtemp(prefix="repro-durable-chaos-")
                cleanup.callback(shutil.rmtree, journal_dir, ignore_errors=True)
        factory = functools.partial(
            build_chaos_shard,
            plan=plan,
            durable=durable,
            journal_dir=journal_dir,
            **supervisor_args,
        )
        label = scheme
        if shards is None:
            stack = factory(0, injector=injector)
        else:
            from repro.sharding.service import ShardedTimerService

            stack = ShardedTimerService(
                shards=shards,
                shard_factory=factory,
                backend=backend,
                backend_options=backend_options,
            )
            cleanup.callback(stack.close)
            at = "" if backend == "inprocess" else f"@{backend}"
            label = f"sharded[{shards}x{scheme}{at}]"
        client = ChaosClient(stack, injector, drain_ticks, transient)
        if runtime:
            client.clock = _Runtime(stack)
            cleanup.callback(client.clock.close)
            label = f"async:{label}"
        ops = _client_ops(workload, plan)
        recovery = None
        try:
            client.run(ops)
        except SimulatedCrash:
            from repro.faults.chaos_durable import recover_and_reissue

            recovery = recover_and_reissue(
                client,
                ops,
                durable,
                journal_dir,
                lambda: _build_supervisor(injector=injector, **supervisor_args),
            )
        introspection = (
            client.clock.service if runtime else client.stack
        ).introspect()
        if shards is None:
            stats = [client.stack.finish()]
        else:
            stats = _scatter(client.stack, "finish")
        if durable is not None:
            report = DurableReport(
                crashed=recovery is not None,
                crash=crash,
                recovery=recovery,
                journal_dir=None if durable.journal_dir is None else journal_dir,
                records_appended=sum(s["journal"][0] for s in stats),
                fsyncs=sum(s["journal"][1] for s in stats),
                snapshots_kept=len(list(Path(journal_dir).rglob("snapshot-*.json"))),
            )
    return _assemble(label, stats, client, introspection, report)


def _scatter(service, method: str) -> List[object]:
    """Call ``method`` on every shard, wherever the backend runs it."""
    results = []
    for (status, value), in service.backend.scatter([("call", method, (), {})]):
        if status == "err":
            raise value
        results.append(value)
    return results


def _assemble(
    label: str,
    stats: List[Dict[str, object]],
    client: ChaosClient,
    introspection: Dict[str, object],
    durable: Optional[DurableReport],
) -> ChaosResult:
    """One result from the per-shard stats and the client's counts."""

    def total(name: str) -> int:
        return sum(s["counters"][name] for s in stats)

    def injected(name: str) -> int:
        return sum(s["injected"][name] for s in stats)

    return ChaosResult(
        scheme=label,
        survivors=tuple(
            sorted(
                (tuple(row) for s in stats for row in s["survivors"]),
                key=lambda row: (row[1], row[0]),
            )
        ),
        quarantined=tuple(
            sorted(tuple(row) for s in stats for row in s["quarantined"])
        ),
        retries=total("retries"),
        shed=total("shed"),
        deferred=total("deferred"),
        dropped=total("dropped"),
        degraded=total("degraded"),
        # every supervisor sees the identical reading sequence, so each
        # counts the same jumps: read one, do not sum shards times over.
        clock_jumps=stats[0]["counters"]["clock_jumps"],
        overruns=total("overruns"),
        stopped=len(client.stopped),
        alloc_skipped=len(client.alloc_failed),
        stop_races=client.injector.stop_races,
        injected_failures=injected("injected_failures"),
        injected_hangs=injected("injected_hangs"),
        slow_invocations=injected("slow_invocations"),
        pending_left=sum(s["pending_left"] for s in stats),
        introspection=introspection,
        durable=durable,
    )


@dataclass
class DifferentialReport:
    """Outcome of replaying one plan across several schemes."""

    results: List[ChaosResult]
    identical: bool
    #: per diverging scheme: the fingerprint fields that differ from the
    #: reference (first) scheme's.
    divergences: Dict[str, List[str]]

    @property
    def reference(self) -> ChaosResult:
        """The first scheme's result — the baseline all others are diffed against."""
        return self.results[0]


def run_differential(
    plan: Optional[FaultPlan] = None,
    schemes: Optional[Sequence[str]] = None,
    workload: Optional[ChaosWorkload] = None,
    retry_policy: Optional[RetryPolicy] = None,
    tick_budget: Optional[int] = None,
    overload_policy: str = "defer",
    scheme_kwargs: Optional[Dict[str, object]] = None,
) -> DifferentialReport:
    """Replay one plan over many schemes and diff the fingerprints.

    With the default ``tick_budget=None`` the shed counts are zero
    everywhere and the full fingerprint must match; with a finite budget
    shedding depends on each scheme's per-tick burstiness, so shed-derived
    fields are excluded from the identity check (they remain in the
    per-scheme results for inspection). ``scheme_kwargs`` overlays extra
    constructor kwargs on every scheme (see :func:`run_chaos`).
    """
    names = list(schemes) if schemes else scheme_names()
    if not names:
        raise ValueError("no schemes to run")
    workload = workload if workload is not None else ChaosWorkload()
    results = [
        run_chaos(
            name,
            plan=plan,
            workload=workload,
            retry_policy=retry_policy,
            tick_budget=tick_budget,
            overload_policy=overload_policy,
            scheme_kwargs=scheme_kwargs,
        )
        for name in names
    ]
    reference = results[0].fingerprint()
    divergences: Dict[str, List[str]] = {}
    for result in results[1:]:
        fingerprint = result.fingerprint()
        fields = [
            key
            for key in reference
            if fingerprint[key] != reference[key]
            and not (tick_budget is not None and key in BUDGET_DEPENDENT)
        ]
        if fields:
            divergences[result.scheme] = fields
    return DifferentialReport(
        results=results, identical=not divergences, divergences=divergences
    )
