"""The measured stacks, built from the program's public constructors.

Each ``build_*`` function returns a :class:`Stack`: ``client`` is what
the workload code calls (the async runtime, or the sharded service when
there is no async layer), the other fields keep the real layer objects for counters
and introspection. With a :class:`~timerbench.tracing.Tracer`, a
pass-through proxy sits between every pair of layers and the shard
backend's protocol methods are wrapped; without one the stack is exactly
what a deployment would build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.core.registry import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.cost.counters import NULL_COUNTER, OpCounter
from repro.durability import DurableScheduler, recover
from repro.runtime import AsyncTimerService, FakeClock
from repro.sharding import ShardedTimerService

from timerbench.tracing import Tracer, layer, trace_backend

SHARDS = 2
TABLE_SIZE = 4096


@dataclass
class Stack:
    client: object
    service: ShardedTimerService
    runtime: Optional[AsyncTimerService] = None
    durables: List[DurableScheduler] = field(default_factory=list)
    supervisors: List[SupervisedScheduler] = field(default_factory=list)
    #: the schemes' shared OpCounter (traced in-process stacks only).
    counter: Optional[OpCounter] = None


def _counter(tracer: Optional[Tracer]):
    """Metering costs time, so only the traced run counts ops."""
    return OpCounter() if tracer is not None else NULL_COUNTER


def _scheme(store: str, counter):
    return make_scheduler(
        "scheme6", table_size=TABLE_SIZE, store=store, counter=counter
    )


def _supervise(scheme, tracer: Optional[Tracer]) -> SupervisedScheduler:
    """A supervisor over ``scheme``; traced, its expiry dispatcher (the
    Expiry_Action every supervised timer carries, which runs inside the
    scheme's advance) records ``core.supervision.expire`` spans, so
    supervision's per-expiry work is not counted as the scheme's."""
    supervised = SupervisedScheduler(layer(scheme, tracer, "core"))
    if tracer is not None:
        supervised._dispatch = tracer.wrap(
            "core.supervision.expire", supervised._dispatch
        )
    return supervised


def _runtime_on(service, tracer: Optional[Tracer]) -> AsyncTimerService:
    return AsyncTimerService(
        layer(service, tracer, "sharding"), clock=FakeClock()
    )


def _finish(service, tracer: Optional[Tracer]) -> None:
    if tracer is not None:
        trace_backend(service.backend, tracer)


def build_rearm(directory: Path, tracer: Optional[Tracer] = None) -> Stack:
    """runtime -> sharding(2, inprocess) -> durability per shard ->
    supervision -> scheme6 (object store)."""
    counter = _counter(tracer)
    durables: List[DurableScheduler] = []
    supervisors: List[SupervisedScheduler] = []

    def shard(index: int):
        supervised = _supervise(_scheme("object", counter), tracer)
        supervisors.append(supervised)
        durable = DurableScheduler(
            layer(supervised, tracer, "core.supervision"),
            directory / f"shard{index}",
            sync="never",
            snapshot_every=None,
        )
        durables.append(durable)
        return layer(durable, tracer, "durability")

    service = ShardedTimerService(shards=SHARDS, shard_factory=shard)
    _finish(service, tracer)
    runtime = _runtime_on(service, tracer)
    return Stack(
        client=layer(runtime, tracer, "runtime"),
        service=service,
        runtime=runtime,
        durables=durables,
        supervisors=supervisors,
        counter=counter if tracer is not None else None,
    )


def recover_rearm(directory: Path) -> ShardedTimerService:
    """``recover()`` every shard directory into a fresh sharded stack."""
    recovered = [
        recover(
            directory / f"shard{index}",
            lambda: SupervisedScheduler(_scheme("object", NULL_COUNTER)),
            sync="never",
            snapshot_every=None,
        )
        for index in range(SHARDS)
    ]
    return ShardedTimerService(
        shards=SHARDS, shard_factory=lambda index: recovered[index]
    )


def build_expire(tracer: Optional[Tracer] = None) -> Stack:
    """runtime -> sharding(2, inprocess) -> supervision -> scheme6 (SoA)."""
    counter = _counter(tracer)
    supervisors: List[SupervisedScheduler] = []

    def shard(index: int):
        supervised = _supervise(_scheme("soa", counter), tracer)
        supervisors.append(supervised)
        return layer(supervised, tracer, "core.supervision")

    service = ShardedTimerService(shards=SHARDS, shard_factory=shard)
    _finish(service, tracer)
    runtime = _runtime_on(service, tracer)
    return Stack(
        client=layer(runtime, tracer, "runtime"),
        service=service,
        runtime=runtime,
        supervisors=supervisors,
        counter=counter if tracer is not None else None,
    )


def build_plain_expire() -> ShardedTimerService:
    """The expire stack below the runtime, untraced (for the restore)."""
    return ShardedTimerService(
        shards=SHARDS,
        shard_factory=lambda index: SupervisedScheduler(
            _scheme("soa", NULL_COUNTER)
        ),
    )


def build_mp(population: int, tracer: Optional[Tracer] = None) -> Stack:
    """sharding(2, multiprocessing) -> scheme6 SoA on the shared-memory
    plane, driven directly (no async layer has a batch surface).

    ``shm_rows`` is the declared population: any one shard may end up
    holding all of it.
    """
    service = ShardedTimerService(
        "scheme6",
        shards=SHARDS,
        backend="multiprocessing",
        backend_options={"shm_rows": population},
        counter=NULL_COUNTER,
        table_size=TABLE_SIZE,
        store="soa",
    )
    _finish(service, tracer)
    return Stack(client=layer(service, tracer, "sharding"), service=service)
