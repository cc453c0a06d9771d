"""The SchedulerLayer base: composed stacks expose the whole surface.

Each layer forwards what it does not change, so a stack built from any
of them answers every scheduler call — and the capability probes the
layers use on each other (``set_ledger``, ``adopt_timer``,
``sync_clock``) answer exactly as the concrete layer defines them.
"""

from __future__ import annotations

import pytest

from repro.core import make_scheduler
from repro.core.errors import TimerStateError, UnknownTimerError
from repro.core.layer import SchedulerLayer
from repro.core.supervision import RearmId, RetryPolicy, SupervisedScheduler
from repro.core.threadsafe import ThreadSafeScheduler
from repro.durability import DurableScheduler
from repro.sharding import ShardedTimerService


def _probe(stack):
    """The calls that raised AttributeError on composed stacks."""
    stack.start_timer(7, request_id="probe")
    assert stack.get_timer("probe").request_id == "probe"
    assert stack.callback_errors == []
    stack.set_error_policy("collect")
    assert stack.free_record_count == 0
    assert stack.is_shut_down is False
    assert "collect" in stack.ERROR_POLICIES
    assert stack.pending_count == 1
    stack.advance(7)
    assert not stack.is_pending("probe")


def test_sharded_over_durable_over_supervised(tmp_path):
    durables = [
        DurableScheduler(
            SupervisedScheduler(make_scheduler("scheme6")),
            tmp_path / f"shard{index}",
            sync="never",
        )
        for index in range(2)
    ]
    with ShardedTimerService(
        shards=2, shard_factory=durables.__getitem__
    ) as service:
        _probe(service)
    for durable in durables:
        durable.close()


def test_threadsafe_over_supervised():
    _probe(ThreadSafeScheduler(SupervisedScheduler(make_scheduler("scheme6"))))


def test_supervised_get_timer_follows_a_rearm():
    supervised = SupervisedScheduler(
        make_scheduler("scheme6"),
        retry_policy=RetryPolicy(max_attempts=3, base_backoff=4),
    )

    def fail(timer):
        raise RuntimeError("boom")

    supervised.start_timer(2, request_id="a", callback=fail)
    supervised.advance(2)
    record = supervised.get_timer("a")
    assert isinstance(record.request_id, RearmId)
    assert record.request_id.origin == "a"
    assert record.pending and record.deadline == supervised.now + 4
    with pytest.raises(UnknownTimerError):
        supervised.get_timer("missing")


@pytest.mark.parametrize("layer", ["supervised", "durable"])
def test_record_restart_is_a_typed_error(layer, tmp_path):
    stack = SupervisedScheduler(make_scheduler("scheme6"))
    if layer == "durable":
        stack = DurableScheduler(stack, tmp_path, sync="never")
    stack.start_timer(1, request_id="a")
    (fired,) = stack.advance(1)
    with pytest.raises(TimerStateError, match="start_timer"):
        stack.restart_timer(fired)
    if layer == "durable":
        stack.close()


def test_capability_probes_answer_per_layer(tmp_path):
    scheme = make_scheduler("scheme6")
    supervised = SupervisedScheduler(make_scheduler("scheme6"))
    durable = DurableScheduler(
        SupervisedScheduler(make_scheduler("scheme6")), tmp_path, sync="never"
    )
    for name in ("sync_clock", "set_ledger", "adopt_timer"):
        assert not hasattr(SchedulerLayer, name)
        assert not hasattr(scheme, name)
        assert not hasattr(ThreadSafeScheduler(scheme), name)
        assert hasattr(supervised, name)
    assert hasattr(durable, "sync_clock")
    assert not hasattr(durable, "set_ledger")
    assert not hasattr(durable, "adopt_timer")
    assert durable._supervised  # the ledger seam was found and installed
    durable.close()
