"""One worker **process** per shard: Appendix B with the GIL removed.

Each shard scheduler lives in its own forked process with its own
interpreter and its own GIL; the machine-word timer state (deadline,
links, aux, generation+live meta) lives in one
``multiprocessing.shared_memory`` block per shard backing the SoA
columns (:class:`~repro.structures.soa.SharedSoATimerStore`) whenever
the scheme was built with ``store="soa"`` — the parent can count live
rows or salvage deadlines straight out of the block without a byte
crossing a pipe, and the block outlives a crashed worker.

Operations travel as batched op tuples over one duplex pipe per shard —
a ``start_many`` of 128 timers crosses the boundary **once** — and
``advance_to`` scatters the deadline to every worker before gathering,
so four shards genuinely drive four cores.

Liveness: every gather polls the pipe while checking the worker is
alive, so a killed worker surfaces as
:class:`~repro.sharding.backends.base.ShardFaultError` (carrying the
shard index) instead of a hang.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from typing import Dict, List, Optional, Sequence

from repro.core.interface import Timer
from repro.sharding.backends.base import (
    BackendCapabilityError,
    OpResult,
    ShardBackend,
    ShardFaultError,
    ShardPlane,
    decode_value,
)
from repro.sharding.backends.worker import shard_loop

#: Seconds between liveness checks while waiting on a worker.
_POLL_INTERVAL = 0.05


class MultiprocessingBackend(ShardBackend):
    """Shard schedulers in per-shard worker processes (fork start method).

    ``shm_rows`` sizes each shard's shared-memory block (rows, not
    bytes) when the scheme runs ``store="soa"``; it bounds the shard's
    peak pending population. ``fault_timeout`` caps how long a gather
    waits for a silent-but-alive worker before declaring a fault
    (``None`` waits forever as long as the process stays alive).
    """

    name = "multiprocessing"

    def __init__(
        self,
        shard_count: int,
        plane: ShardPlane,
        *,
        shm_rows: int = 1 << 16,
        fault_timeout: Optional[float] = None,
    ) -> None:
        self.shard_count = shard_count
        self.fault_timeout = fault_timeout
        self._contended = [0] * shard_count
        self._closed = False
        self._faulted: Optional[int] = None
        ctx = multiprocessing.get_context("fork")
        self._stores = []  # parent-side creator handles (introspection)
        self._conns = []
        self._pipe_locks = [threading.Lock() for _ in range(shard_count)]
        self.processes: List[multiprocessing.Process] = []
        try:
            for index in range(shard_count):
                shm_name = None
                if plane.wants_shared_store:
                    from repro.structures.soa import SharedSoATimerStore

                    store = SharedSoATimerStore(shm_rows)
                    self._stores.append(store)
                    shm_name = store.name
                else:
                    self._stores.append(None)
                build = plane.builder(shm_name)
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=shard_loop,
                    args=(child_conn, index, build),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self.processes.append(process)
            for index in range(shard_count):
                kind, value = self._recv(index)
                if kind != "ready":
                    raise ShardFaultError(
                        index, f"worker failed to build its shard: {value!r}"
                    )
        except BaseException:
            self.close()
            raise

    # --------------------------------------------------------------- plumbing

    def _send(self, index: int, message: object) -> None:
        try:
            payload = pickle.dumps(message)
        except Exception as exc:
            raise BackendCapabilityError(
                f"operation cannot cross the process boundary to shard "
                f"{index} (unpicklable callback or payload): {exc}"
            ) from exc
        try:
            self._conns[index].send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            raise ShardFaultError(index, f"worker pipe broken: {exc}") from exc

    def _recv(self, index: int):
        conn = self._conns[index]
        waited = 0.0
        while True:
            # A SIGKILLed peer can surface as a readable EOF, an
            # ECONNRESET from poll/recv, or nothing at all — every arm
            # below must land on the same typed ShardFaultError.
            try:
                if conn.poll(_POLL_INTERVAL):
                    break
            except OSError as exc:
                self._faulted = index
                raise ShardFaultError(
                    index, f"worker pipe broken: {exc!r}"
                ) from exc
            waited += _POLL_INTERVAL
            if not self.processes[index].is_alive():
                self._faulted = index
                raise ShardFaultError(
                    index,
                    "worker died mid-operation "
                    f"(exitcode {self.processes[index].exitcode})",
                )
            if (
                self.fault_timeout is not None
                and waited >= self.fault_timeout
            ):
                self._faulted = index
                raise ShardFaultError(
                    index, f"worker silent for {waited:.1f}s"
                )
        try:
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError) as exc:
            self._faulted = index
            raise ShardFaultError(
                index, f"worker closed its pipe: {exc!r}"
            ) from exc
        if message[0] == "fatal":
            self._faulted = index
            raise ShardFaultError(
                index, f"worker failed: {message[1]!r}"
            )
        return message

    def _acquire_pipe(self, index: int) -> None:
        lock = self._pipe_locks[index]
        if not lock.acquire(blocking=False):
            self._contended[index] += 1
            lock.acquire()

    # ----------------------------------------------------------- the protocol

    def submit_batch(
        self, index: int, ops: Sequence[tuple], stop_on_error: bool = True
    ) -> List[OpResult]:
        self._acquire_pipe(index)
        try:
            self._send(index, ("ops", list(ops), stop_on_error))
            _, results = self._recv(index)
            return [
                (status, decode_value(value)) for status, value in results
            ]
        finally:
            self._pipe_locks[index].release()

    def advance_to(self, deadline: int) -> None:
        """Scatter the deadline: every worker starts driving *now*.

        Pipe locks are taken (in index order) and held until
        :meth:`drain_expired` releases them — a client op on a shard
        mid-advance queues behind that shard's drain, exactly the
        per-shard-lock semantics of the in-process backend.
        """
        for index in range(self.shard_count):
            self._acquire_pipe(index)
        try:
            for index in range(self.shard_count):
                self._send(index, ("advance", deadline))
        except BaseException:
            for index in range(self.shard_count):
                self._pipe_locks[index].release()
            raise

    def drain_expired(self) -> List[List[Timer]]:
        per_shard: List[List[Timer]] = []
        try:
            for index in range(self.shard_count):
                _, (status, value) = self._recv(index)
                if status == "err":
                    raise value
                per_shard.append(
                    [decode_value(wire) for wire in value]
                )
        finally:
            for index in range(self.shard_count):
                self._pipe_locks[index].release()
        return per_shard

    def scatter(
        self, ops: Sequence[tuple], stop_on_error: bool = True
    ) -> List[List[OpResult]]:
        """Send to every worker before receiving from any: true fan-out."""
        for index in range(self.shard_count):
            self._acquire_pipe(index)
        try:
            message = ("ops", list(ops), stop_on_error)
            for index in range(self.shard_count):
                self._send(index, message)
            gathered: List[List[OpResult]] = []
            for index in range(self.shard_count):
                _, results = self._recv(index)
                gathered.append(
                    [
                        (status, decode_value(value))
                        for status, value in results
                    ]
                )
            return gathered
        finally:
            for index in range(self.shard_count):
                self._pipe_locks[index].release()

    def introspect(self) -> Dict[str, object]:
        shm = []
        for store in self._stores:
            if store is None:
                shm.append(None)
            else:
                live = sum(1 for _ in store.live_rows())
                shm.append(
                    {
                        "name": store.name,
                        "bytes": store.bytes_estimate(),
                        "capacity_rows": store.capacity_rows,
                        "live_rows": live,
                    }
                )
        return {
            "backend": self.name,
            "parallel": True,
            "contended_acquisitions": list(self._contended),
            "workers": [
                {"pid": process.pid, "alive": process.is_alive()}
                for process in self.processes
            ],
            "shared_memory": shm,
        }

    def close(self) -> None:
        """Stop workers, close pipes, unlink shared memory. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for index, conn in enumerate(self._conns):
            process = self.processes[index] if index < len(self.processes) else None
            try:
                if (
                    self._faulted != index
                    and process is not None
                    and process.is_alive()
                ):
                    conn.send_bytes(pickle.dumps(("close",)))
            except (BrokenPipeError, OSError):
                pass
        for process in self.processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for store in self._stores:
            if store is not None:
                store.close()
                try:
                    store.destroy()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        self._stores = []

    # ------------------------------------------------------------- extensions

    @property
    def contended_acquisitions(self) -> List[int]:
        return self._contended

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
