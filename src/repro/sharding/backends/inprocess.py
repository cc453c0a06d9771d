"""The in-process backend: today's per-shard-lock service, as a backend.

Every shard scheduler lives in the calling interpreter behind its own
``RLock`` — Appendix A.2's semaphore discipline applied per queue. This
is the control configuration: zero marshalling, the full object surface
(live ``Timer`` records, observers, a shared ``OpCounter``), and one
GIL, so wall-clock parallelism only ever comes from shrinking the work
*under* each lock (scheme2's O(n) scans), never from running shards
simultaneously.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.interface import Timer
from repro.sharding.backends.base import (
    OpResult,
    ShardBackend,
    ShardPlane,
    apply_ops,
)


class InProcessBackend(ShardBackend):
    """Shard schedulers in this process, one lock per shard, advanced
    serially."""

    name = "inprocess"

    def __init__(self, shard_count: int, plane: ShardPlane) -> None:
        self.shard_count = shard_count
        self._shards = [plane.factory(index) for index in range(shard_count)]
        self._locks = [threading.RLock() for _ in range(shard_count)]
        self._contended = [0] * shard_count
        self._pending_drain: Optional[List[List[Timer]]] = None

    # ----------------------------------------------------------- the protocol

    @property
    def local_shards(self) -> Tuple:  # type: ignore[override]
        """The live shard schedulers — this backend's shards are local
        objects, so live surfaces (observers, ``service.shards``) work."""
        return tuple(self._shards)

    def _acquire(self, index: int) -> None:
        lock = self._locks[index]
        if not lock.acquire(blocking=False):
            self._contended[index] += 1
            lock.acquire()

    def submit_batch(
        self, index: int, ops: Sequence[tuple], stop_on_error: bool = True
    ) -> List[OpResult]:
        """One lock hold per batch — the service's batching contract."""
        self._acquire(index)
        try:
            return apply_ops(self._shards[index], ops, stop_on_error)
        finally:
            self._locks[index].release()

    def advance_to(self, deadline: int) -> None:
        self._pending_drain = [
            self._advance_shard(index, deadline)
            for index in range(self.shard_count)
        ]

    def _advance_shard(self, index: int, deadline: int) -> List[Timer]:
        """Drive one shard to ``deadline`` under one lock hold.

        Appendix B's discipline: each processor drives its *own* queue
        under its *own* lock, so only this shard's clients wait out the
        advance — every other shard stays fully available. Taking the
        lock once per advance instead of once per event hop keeps the
        drive cost comparable to an unsharded scheduler's.
        """
        shard = self._shards[index]
        self._acquire(index)
        try:
            if shard.now < deadline:
                return list(shard.advance_to(deadline))
            return []
        finally:
            self._locks[index].release()

    def drain_expired(self) -> List[List[Timer]]:
        drained = self._pending_drain
        if drained is None:
            raise RuntimeError("drain_expired without a preceding advance_to")
        self._pending_drain = None
        return drained

    def introspect(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "parallel": False,
            "contended_acquisitions": list(self._contended),
        }

    def close(self) -> None:
        """Nothing to release: shards are plain objects. Idempotent."""

    # ------------------------------------------------------------- extensions

    @property
    def contended_acquisitions(self) -> List[int]:
        return self._contended
