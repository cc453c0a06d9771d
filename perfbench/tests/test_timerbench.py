"""Tests for the benchmark's own machinery: the shadow oracle, the
windowed throughput, the pass-through layer proxies, and small end-to-end
runs of every workload (traced and untraced episodes must agree)."""

import functools

import pytest

from repro.core.registry import make_scheduler
from repro.core.supervision import SupervisedScheduler
from repro.durability import DurableScheduler

from timerbench import measure, schedule as sched, workloads
from timerbench.tracing import LayerProxy, Tracer

# ------------------------------------------------------------------ oracle


@pytest.fixture(scope="module")
def small_rearm():
    return sched.make_rearm(7, population=300, rounds=2, high=200, ops_per_tick=4)


def _perfect(s):
    return [list(step) for step in s.expected]


def _first_fire(delivered):
    for k, step in enumerate(delivered):
        if step:
            return k, step[0]
    raise AssertionError("schedule fired nothing")


def test_oracle_accepts_exact_delivery(small_rearm):
    assert sched.check_expiries(small_rearm.expected, _perfect(small_rearm)) == []


def test_oracle_rejects_early_fire(small_rearm):
    delivered = _perfect(small_rearm)
    k, (rid, tick) = _first_fire(delivered)
    delivered[k][0] = (rid, tick - 1)
    problems = sched.check_expiries(small_rearm.expected, delivered)
    assert problems and problems[0].startswith("early fire: ")


def test_oracle_rejects_skipped_expiry(small_rearm):
    delivered = _perfect(small_rearm)
    k, (rid, tick) = _first_fire(delivered)
    del delivered[k][0]
    assert sched.check_expiries(small_rearm.expected, delivered) == [
        f"skipped expiry: {rid} due at {tick}"
    ]


def test_oracle_rejects_late_fire_and_stopped_timer(small_rearm):
    delivered = _perfect(small_rearm)
    k, (rid, tick) = _first_fire(delivered)
    del delivered[k][0]
    delivered[-1].append((rid, tick + 1))
    stopped = sorted(small_rearm.stopped)[0]
    delivered[-1].append((stopped, small_rearm.final_now))
    problems = sched.check_expiries(
        small_rearm.expected, delivered, small_rearm.stopped
    )
    assert f"late fire: {rid} fired at {tick + 1}, due at {tick}" in problems
    assert f"stopped timer fired: {stopped} at {small_rearm.final_now}" in problems


def test_oracle_order_within_advance_is_free(small_rearm):
    delivered = [list(reversed(step)) for step in small_rearm.expected]
    assert sched.check_expiries(small_rearm.expected, delivered) == []


def test_pending_check_finds_moved_and_lost_timers():
    want = {"a": 5, "b": 7}
    assert sched.check_pending(want, dict(want)) == []
    assert sched.check_pending(want, {"a": 6}) == [
        "lost timer: b due at 7",
        "deadline moved: a due at 6, shadow 5",
    ]


def test_schedules_depend_only_on_the_seed():
    one = sched.make_mp_batch(3, population=200, rounds=5, warmup_rounds=2)
    two = sched.make_mp_batch(3, population=200, rounds=5, warmup_rounds=2)
    other = sched.make_mp_batch(4, population=200, rounds=5, warmup_rounds=2)
    assert one.timed == two.timed and one.expected == two.expected
    assert one.timed != other.timed


# ------------------------------------------------------------------ measure


def test_windowed_median_ignores_one_stalled_window(monkeypatch):
    ticks = iter([0.0] + [float(t) for t in range(1, 10)] + [59.0])
    monkeypatch.setattr(measure, "perf_counter", lambda: next(ticks))
    latency: list = []
    windows = measure.Windows(100, [latency])
    windows.begin()
    for window in range(10):
        for _ in range(2):  # the window closes at the step that fills it
            latency.append(50.0 if window == 9 else 1.0)
            windows.add(50)
    assert windows.rates[-1] == pytest.approx(100 / 50)
    assert measure.windowed_median(windows.rates) == pytest.approx(100.0)
    assert 1000 / 59.0 < 20  # total ops over total time
    rates, (samples,) = windows.steady()
    assert len(rates) == 8 and min(rates) == pytest.approx(100.0)
    assert samples == [1.0] * 16  # the stalled window's samples are gone


def test_p95_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        measure.p95([1.0] * 199)
    assert measure.p95([float(i) for i in range(1, 201)]) == 190.0


# ------------------------------------------------------------------ proxies


def test_proxy_forwards_hasattr_and_plain_attributes(tmp_path):
    tracer = Tracer()
    scheme = make_scheduler("scheme6", table_size=64)
    supervised = SupervisedScheduler(scheme)
    proxied_scheme = LayerProxy(scheme, tracer, "core")
    proxied_supervised = LayerProxy(supervised, tracer, "core.supervision")
    assert not hasattr(proxied_scheme, "set_ledger")
    assert hasattr(proxied_supervised, "set_ledger")
    assert hasattr(proxied_supervised, "adopt_timer")
    assert proxied_supervised.now == supervised.now
    assert proxied_supervised.retry_policy is supervised.retry_policy
    proxied_supervised.tick_budget = 5
    assert supervised.tick_budget == 5
    durable = DurableScheduler(
        proxied_supervised, tmp_path / "j", sync="never", snapshot_every=None
    )
    assert durable._supervised
    assert supervised._ledger is not None
    durable.close()


def test_proxy_spans_nest_and_report_self_time():
    tracer = Tracer()
    scheme = LayerProxy(make_scheduler("scheme6", table_size=64), tracer, "core")
    supervised = LayerProxy(SupervisedScheduler(scheme), tracer, "core.supervision")
    tracer.enabled = True
    timer = supervised.start_timer(3, "x")
    fired = supervised.advance_to(3)
    tracer.enabled = False
    supervised.start_timer(3, "untraced")
    assert timer.request_id == "x" and [t.request_id for t in fired] == ["x"]
    assert tracer.calls == {
        "core.start": 1,
        "core.supervision.start": 1,
        "core.advance": 1,
        "core.supervision.advance": 1,
    }
    assert tracer.client_calls == 2
    spans = {name: (span, parent, op) for span, name, _s, _e, parent, op in tracer.spans}
    assert spans["core.start"][1] == spans["core.supervision.start"][0]
    assert spans["core.start"][2] == spans["core.supervision.start"][2]
    assert spans["core.advance"][2] != spans["core.start"][2]
    for span, name, start, end, parent, op in tracer.spans:
        assert end >= start
    for name in tracer.calls:
        assert tracer.self_us(name) >= 0


# ------------------------------------------------------------------ runs


SMALL = {
    "rearm": functools.partial(sched.make_rearm, population=300, rounds=2),
    "expire": functools.partial(
        sched.make_expire, population=3000, rounds=10, warmup_rounds=2
    ),
    "mp_batch": functools.partial(
        sched.make_mp_batch, population=400, rounds=30, warmup_rounds=5
    ),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_and_untraced_episodes_agree(workload, monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.MAKERS, workload, SMALL[workload])
    monkeypatch.setitem(workloads.WINDOW_OPS, workload, 64)
    run = workloads.run_workload(workload, 5, 0.0, True, tmp_path)
    assert run.untraced.episodes == 2 and run.traced.episodes == 1
    assert workloads.checks(run) == []
    assert run.failed == 0 and run.attempted > 0
    assert len(run.fingerprints) == 3 and len(set(run.fingerprints)) == 1
    layer = workloads.per_layer(run)
    assert layer["sharding.start.self_us"] > 0
    assert layer["trace.slowdown"] > 0
    if workload == "rearm":
        assert layer["durability.update.self_us"] > 0
        assert layer["durability.records_per_op"] > 0
    if workload != "mp_batch":
        assert layer["core.advance.self_us"] > 0
        assert layer["core.ops_per_op"] > 0
    else:
        assert layer["core.advance.self_us"] == 0
        assert layer["sharding.backends.advance_us"] > 0
    assert list(tmp_path.iterdir()) == []  # journals removed
