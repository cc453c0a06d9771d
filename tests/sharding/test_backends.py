"""Backend parity: one service surface, two execution substrates.

The :class:`~repro.sharding.service.ShardedTimerService` contract is
that ``backend=`` may only change *where* shard schedulers execute —
never what any client-visible operation returns. These tests drive
identical workloads through every backend available on this host and
require bit-identical outcomes: expiry sequences, bookkeeping totals,
and the chaos suite's full fault fingerprint. The rest of the file pins
the lifecycle contract (idempotent close, context manager, killed
workers surfacing as :class:`ShardFaultError` instead of hangs) and the
capability boundary (live-object surfaces refuse cleanly on remote
backends).

Backends that cannot run here (multiprocessing without ``fork``) must
*skip* — visibly, with the availability reason — not fail.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.errors import UnknownTimerError
from repro.sharding.backends import (
    BackendCapabilityError,
    BackendUnavailableError,
    ShardFaultError,
    available_backends,
    backend_availability,
    make_backend,
)
from repro.sharding.service import ShardedTimerService

ALL_BACKENDS = ("inprocess", "multiprocessing")


def backend_params(include_inprocess: bool = True):
    """One pytest param per backend, skip-marked with the reason when
    the host cannot run it."""
    report = backend_availability()
    params = []
    for name in ALL_BACKENDS:
        if not include_inprocess and name == "inprocess":
            continue
        usable, reason = report[name]
        marks = [] if usable else [pytest.mark.skip(reason=reason)]
        params.append(pytest.param(name, marks=marks))
    return params


def _service(backend, **kwargs):
    kwargs.setdefault("table_size", 128)
    return ShardedTimerService(
        "scheme6", 4, backend=backend,
        backend_options={"shm_rows": 4096} if backend == "multiprocessing" else None,
        **kwargs,
    )


def _drive_workload(service):
    """A deterministic mixed workload; returns its observable outcome.

    Uses only wire-safe payloads (no callbacks) so the identical ops run
    on every backend; the outcome tuple is everything a client can see.
    """
    service.start_many(
        [(1 + (i * 7) % 40, f"t{i}", None, i) for i in range(60)]
    )
    service.stop_many([f"t{i}" for i in range(0, 60, 5)])
    service.update_many(
        [(f"t{i}", 50 + i) for i in range(1, 60, 7)], on_missing="skip"
    )
    fired = []
    for deadline in (10, 25, 60, 120):
        fired.extend(service.advance_to(deadline))
    stopped = service.stop_many(
        [f"t{i}" for i in range(60)], on_missing="skip"
    )
    info = service.introspect()
    return (
        tuple(
            (t.request_id, t.expired_at, t.started_at, t.interval, t.user_data)
            for t in fired
        ),
        tuple(t.request_id for t in stopped if t is not None),
        service.pending_count,
        info["total_started"],
        info["total_stopped"],
        info["total_expired"],
        info["pending_per_shard"],
    )


# ------------------------------------------------------------------ parity


def test_inprocess_always_available():
    report = backend_availability()
    assert report["inprocess"] == (True, "ok")
    assert set(report) == set(ALL_BACKENDS)
    assert "inprocess" in available_backends()


@pytest.mark.parametrize("backend", backend_params(include_inprocess=False))
def test_workload_outcome_identical_to_inprocess(backend):
    with _service("inprocess") as control:
        expected = _drive_workload(control)
    with _service(backend) as service:
        assert _drive_workload(service) == expected


@pytest.mark.parametrize("backend", backend_params(include_inprocess=False))
def test_soa_data_plane_outcome_identical_to_inprocess(backend):
    """The shared-memory SoA plane must not change a single field —
    including auto-id handles, which are packed store rows."""
    def drive(service):
        service.start_many([(5 + i % 9, f"k{i}") for i in range(30)])
        auto = [t.request_id for t in service.start_many([(7,), (3,), (11,)])]
        fired = service.advance_to(40)
        return (
            auto,
            tuple((t.request_id, t.expired_at) for t in fired),
            service.pending_count,
        )

    with _service("inprocess", store="soa") as control:
        expected = drive(control)
    with _service(backend, store="soa") as service:
        assert drive(service) == expected


@pytest.mark.parametrize("backend", backend_params())
def test_chaos_fingerprint_identical_across_backends(backend):
    """The chaos differential oracle, with the backend as the axis: the
    full fault fingerprint (survivors, quarantine, retries, every
    injected count) must be byte-identical wherever the shards run."""
    from repro.faults.chaos import ChaosWorkload, run_chaos

    workload = ChaosWorkload(n_timers=24, horizon=400)
    reference = run_chaos("scheme6", workload=workload, shards=4).fingerprint()
    result = run_chaos(
        "scheme6", workload=workload, shards=4, backend=backend
    ).fingerprint()
    assert result == reference


@pytest.mark.parametrize("backend", backend_params(include_inprocess=False))
def test_error_semantics_cross_the_boundary(backend):
    with _service(backend) as service:
        service.start_timer(5, "a")
        with pytest.raises(UnknownTimerError):
            service.stop_timer("missing")
        # Batch raise semantics: first error aborts, earlier ops stick.
        with pytest.raises(UnknownTimerError):
            service.stop_many(["a", "missing"])
        assert service.pending_count == 0


# --------------------------------------------------------------- lifecycle


def test_close_is_idempotent_and_context_managed():
    service = _service("inprocess")
    assert not service.is_closed
    with service as entered:
        assert entered is service
        service.start_timer(5, "a")
    assert service.is_closed
    service.close()  # second close is a no-op
    assert service.is_closed


@pytest.mark.parametrize("backend", backend_params(include_inprocess=False))
def test_remote_close_releases_workers(backend):
    service = _service(backend, store="soa")
    service.start_many([(10, f"t{i}") for i in range(8)])
    info = service.introspect()
    workers = info["workers"]
    assert all(w["alive"] for w in workers)
    service.close()
    service.close()
    assert service.is_closed
    if backend == "multiprocessing":
        # Daemon workers must actually be gone, and the shm unlinked.
        from multiprocessing import shared_memory

        for block in info["shared_memory"]:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=block["name"], create=False)


@pytest.mark.parametrize("backend", backend_params(include_inprocess=False))
def test_killed_worker_surfaces_as_shard_fault_not_a_hang(backend):
    """The regression this PR's bugfix pins: a shard worker dying out
    from under the service must raise :class:`ShardFaultError` naming
    the shard — on a bounded clock — never deadlock a gather."""
    if backend != "multiprocessing":
        pytest.skip("only process-backed shards can be killed externally")
    service = _service(backend)
    try:
        service.start_many([(10, f"t{i}") for i in range(8)])
        victim = 2
        pid = service.introspect()["workers"][victim]["pid"]
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        with pytest.raises(ShardFaultError) as excinfo:
            while time.monotonic() < deadline:
                service.advance(1)
        assert excinfo.value.shard_index == victim
    finally:
        service.close()  # close after a fault must still not hang
    assert service.is_closed


def test_worker_that_fails_to_build_faults_at_construction():
    def exploding_factory(index):
        raise RuntimeError(f"shard {index} refused to build")

    with pytest.raises(ShardFaultError):
        ShardedTimerService(
            shards=2,
            shard_factory=exploding_factory,
            backend="multiprocessing",
        )


# -------------------------------------------------------------- capability


@pytest.mark.parametrize("name", ["carrier-pigeon", "subinterpreters"])
def test_unknown_backend_is_rejected(name):
    with pytest.raises(
        ValueError, match="unknown backend.*inprocess, multiprocessing"
    ):
        ShardedTimerService("scheme6", 2, backend=name)


def test_unavailable_backend_raises_cleanly(monkeypatch):
    """A host without the ``fork`` start method cannot run
    multiprocessing: construction refuses with the availability reason."""
    import multiprocessing

    from repro.sharding.backends.base import ShardPlane

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert backend_availability()["multiprocessing"] == (
        False, "no fork start method"
    )
    assert available_backends() == ["inprocess"]
    plane = ShardPlane(lambda index: None)
    with pytest.raises(BackendUnavailableError, match="no fork"):
        make_backend("multiprocessing", 2, plane)


@pytest.mark.parametrize("backend", backend_params(include_inprocess=False))
def test_remote_backends_refuse_live_object_surfaces(backend):
    with _service(backend) as service:
        with pytest.raises(BackendCapabilityError):
            service.shards
        with pytest.raises(BackendCapabilityError):
            service.attach_observer(object())
        with pytest.raises(BackendCapabilityError):
            service.counter
        with pytest.raises(BackendCapabilityError):
            service.start_timer(5, "x", callback=lambda t: None)


@pytest.mark.parametrize("backend", backend_params(include_inprocess=False))
def test_remote_timers_come_back_with_callback_none(backend):
    with _service(backend) as service:
        service.start_timer(3, "a", user_data={"k": [1, 2]})
        (fired,) = service.advance_to(5)
        assert fired.request_id == "a"
        assert fired.callback is None
        assert fired.user_data == {"k": [1, 2]}
        assert fired.state.name == "EXPIRED"


def test_shared_memory_introspection_reads_the_live_plane():
    with _service("multiprocessing", store="soa") as service:
        service.start_many([(50, f"t{i}") for i in range(20)])
        info = service.introspect()
        blocks = info["shared_memory"]
        assert len(blocks) == 4
        # The parent reads row residency straight from the blocks: the
        # live-row total must equal the pending population.
        assert sum(b["live_rows"] for b in blocks) == 20
        assert all(b["capacity_rows"] == 4096 for b in blocks)
        per_shard = info["pending_per_shard"]
        assert [b["live_rows"] for b in blocks] == per_shard
