"""The sharded service's single-threaded semantics."""

from __future__ import annotations

import pytest

from repro.core import make_scheduler
from repro.core.errors import TimerLivelockError, UnknownTimerError
from repro.obs.collector import MetricsCollector
from repro.sharding import ShardedTimerService, shard_of


def _service(shards: int = 4, **kwargs) -> ShardedTimerService:
    kwargs.setdefault("table_size", 256)
    return ShardedTimerService("scheme6", shards, **kwargs)


def test_timers_live_on_their_hash_shard():
    service = _service()
    for i in range(40):
        service.start_timer(10, request_id=f"t{i}")
    for i in range(40):
        index = shard_of(f"t{i}", 4)
        assert service.shards[index].is_pending(f"t{i}")
        for other in range(4):
            if other != index:
                assert not service.shards[other].is_pending(f"t{i}")
        assert service.shard_index_of(f"t{i}") == index


def test_start_many_returns_results_in_input_order():
    service = _service()
    specs = [(5 + i, f"t{i}") for i in range(20)]
    timers = service.start_many(specs)
    assert [t.request_id for t in timers] == [f"t{i}" for i in range(20)]
    assert [t.interval for t in timers] == [5 + i for i in range(20)]


def test_start_many_spec_shapes():
    service = _service()
    fired = []
    timers = service.start_many(
        [
            7,
            (8,),
            (9, "named"),
            (10, "with-cb", lambda t: fired.append(t.request_id)),
            (11, "full", lambda t: fired.append(t.user_data), {"k": 1}),
        ]
    )
    assert timers[0].request_id.startswith("auto-")
    assert timers[2].request_id == "named"
    assert timers[4].user_data == {"k": 1}
    with pytest.raises(ValueError):
        service.start_many([()])


def test_stop_many_modes():
    service = _service()
    service.start_many([(50, f"t{i}") for i in range(6)])
    stopped = service.stop_many(["t0", "nope", "t5"], on_missing="skip")
    assert stopped[0].request_id == "t0"
    assert stopped[1] is None
    assert stopped[2].request_id == "t5"
    with pytest.raises(UnknownTimerError):
        service.stop_many(["t1", "nope"], on_missing="raise")
    # The batch is not transactional: t1 was stopped before the raise.
    assert not service.is_pending("t1")
    with pytest.raises(ValueError):
        service.stop_many(["t2"], on_missing="sometimes")


def test_merged_expiries_are_deterministically_ordered():
    service = _service()
    service.start_many([(1 + (i % 7), f"t{i}") for i in range(60)])
    expired = service.advance_to(10)
    assert len(expired) == 60
    keys = [
        (t.expired_at, shard_of(t.request_id, 4)) for t in expired
    ]
    assert keys == sorted(keys)


def test_single_shard_matches_plain_scheduler():
    service = _service(shards=1)
    plain = make_scheduler("scheme6", table_size=256)
    specs = [(1 + (i * 7) % 40, f"t{i}") for i in range(50)]
    service.start_many(specs)
    for interval, request_id in specs:
        plain.start_timer(interval, request_id=request_id)
    assert [
        (t.request_id, t.expired_at) for t in service.advance_to(50)
    ] == [(t.request_id, t.expired_at) for t in plain.advance_to(50)]


def test_clock_and_validation():
    service = _service()
    service.start_timer(5, request_id="a")
    assert service.tick() == []
    assert service.now == 1
    assert all(shard.now == 1 for shard in service.shards)
    with pytest.raises(ValueError):
        service.advance_to(0)
    with pytest.raises(ValueError):
        service.advance(-1)
    assert service.advance_to(service.now) == []
    assert service.next_expiry() == 5
    expired = service.run_until_idle()
    assert [t.request_id for t in expired] == ["a"]


def test_run_until_idle_livelock_guard():
    service = _service()

    def rearm(timer):
        service.start_timer(1, callback=rearm)

    service.start_timer(1, callback=rearm)
    with pytest.raises(TimerLivelockError):
        service.run_until_idle(max_ticks=50)


def test_callbacks_may_rearm_on_their_own_shard_during_advance():
    """Same-shard re-arms from a callback (the supervisor's origin-routed
    pattern) see their shard's mid-advance clock and chain cleanly."""
    service = _service()
    home = shard_of("chain-0", 4)
    chain_ids = ["chain-0"] + [
        rid
        for rid in (f"chain-{i}" for i in range(1, 50))
        if shard_of(rid, 4) == home
    ][:2]
    fired = []

    def chain(timer):
        fired.append((timer.request_id, service.shards[home].now))
        if len(fired) < 3:
            service.start_timer(
                4, request_id=chain_ids[len(fired)], callback=chain
            )

    service.start_timer(4, request_id=chain_ids[0], callback=chain)
    service.advance(20)
    assert [rid for rid, _ in fired] == chain_ids
    assert [now for _, now in fired] == [4, 8, 12]


def test_error_surface_fans_out_and_merges():
    service = _service()
    service.set_error_policy("collect")
    service.set_error_capacity(2)

    def boom(timer):
        raise RuntimeError(str(timer.request_id))

    service.start_many([(1, f"t{i}", boom) for i in range(8)])
    service.tick()
    merged = service.callback_errors
    total_kept = len(merged)
    assert total_kept + service.dropped_errors == 8
    assert all(isinstance(err, RuntimeError) for _, err in merged)
    drained = service.clear_callback_errors()
    assert len(drained) == total_kept
    assert service.callback_errors == []
    assert "collect" in service.ERROR_POLICIES


def test_observer_fans_in_across_shards():
    service = _service()
    collector = service.attach_observer(MetricsCollector())
    service.start_many([(3, f"t{i}") for i in range(12)])
    service.advance_to(3)
    assert collector.starts.value == 12
    assert collector.expiries.value == 12
    detached = service.detach_observer()
    assert all(obs is collector for obs in detached)


def test_per_shard_observer_sees_only_its_shard():
    service = _service()
    index = service.shard_index_of("target")
    collector = service.attach_shard_observer(index, MetricsCollector())
    service.start_timer(5, request_id="target")
    other = "other-0"
    while service.shard_index_of(other) == index:
        other += "x"
    service.start_timer(5, request_id=other)
    assert collector.starts.value == 1


def test_introspect_aggregates():
    service = _service()
    service.start_many([(100, f"t{i}") for i in range(40)])
    service.stop_many([f"t{i}" for i in range(5)])
    info = service.introspect()
    assert info["scheme"] == "sharded[4xscheme6]"
    assert info["pending"] == 35
    assert info["total_started"] == 40
    assert info["total_stopped"] == 5
    assert sum(info["pending_per_shard"]) == 35
    assert info["imbalance"] >= 1.0
    assert len(info["per_shard"]) == 4
    assert service.pending_count == 35
    assert len(service.pending_timers()) == 35
    assert service.get_timer("t7").request_id == "t7"


def test_auto_ids_are_unique_across_shards():
    service = _service()
    timers = service.start_many([50] * 100)
    ids = {t.request_id for t in timers}
    assert len(ids) == 100
    assert all(rid.startswith("auto-") for rid in ids)


def test_shutdown_cancels_everything():
    service = _service()
    service.start_many([(60, f"t{i}") for i in range(10)])
    cancelled = service.shutdown()
    assert len(cancelled) == 10
    assert service.is_shut_down
    assert service.pending_count == 0


def test_bounded_shards_report_tightest_interval_bound():
    service = ShardedTimerService("scheme4", 2, max_interval=128)
    assert service.max_start_interval() == 128
    assert _service().max_start_interval() is None


def test_shard_count_validation():
    with pytest.raises(ValueError):
        ShardedTimerService("scheme6", 0)


# ------------------------------------------------------------- UPDATE_TIMER


def test_update_timer_routes_to_the_owning_shard():
    service = _service()
    service.start_many([(50, f"t{i}") for i in range(12)])
    updated = service.update_timer("t3", 7)
    assert updated.deadline == 7
    index = shard_of("t3", 4)
    assert service.shards[index].get_timer("t3").deadline == 7
    fired = service.advance(7)
    assert [t.request_id for t in fired] == ["t3"]
    assert service.introspect()["total_updated"] == 1


def test_update_many_batches_per_shard_in_input_order():
    service = _service()
    service.start_many([(50, f"t{i}") for i in range(10)])
    updates = [(f"t{i}", 5 + i) for i in range(10)]
    results = service.update_many(updates)
    assert [t.request_id for t in results] == [f"t{i}" for i in range(10)]
    assert [t.deadline for t in results] == [5 + i for i in range(10)]
    fired = service.run_until_idle()
    assert [t.request_id for t in fired] == [f"t{i}" for i in range(10)]


def test_update_many_missing_modes():
    service = _service()
    service.start_many([(50, "a"), (50, "b")])
    with pytest.raises(UnknownTimerError):
        service.update_many([("a", 5), ("ghost", 5)])
    results = service.update_many(
        [("a", 5), ("ghost", 5), ("b", 6)], on_missing="skip"
    )
    assert results[1] is None
    assert [t.request_id for t in (results[0], results[2])] == ["a", "b"]
    with pytest.raises(ValueError):
        service.update_many([("a", 9)], on_missing="ignore")


def test_update_routes_supervised_rearm_ids_by_origin():
    """A RearmId-named retry still lives on the shard chosen by the
    client id at START; routing by the raw RearmId hash would miss it."""
    from repro.core import RetryPolicy, SupervisedScheduler
    from repro.core.supervision import origin_of

    service = ShardedTimerService(
        shards=4,
        shard_factory=lambda index: SupervisedScheduler(
            make_scheduler("scheme6", table_size=256),
            retry_policy=RetryPolicy(max_attempts=3, base_backoff=50),
        ),
    )
    boom = [True]

    def action(timer):
        if boom[0]:
            boom[0] = False
            raise RuntimeError("first attempt fails")

    service.start_timer(5, request_id="t", callback=action)
    service.advance(5)  # fails -> re-armed under RearmId("t", 1)
    assert service.is_pending("t")
    updated = service.update_timer("t", 2)
    assert origin_of(updated.request_id) == "t"
    service.advance(2)
    assert not service.is_pending("t")
