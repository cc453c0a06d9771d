"""The headline acceptance test: one fault plan, nine schemes, one outcome.

Replaying an identical :class:`FaultPlan` and client workload across every
registered scheme under supervised expiry must produce the identical
surviving-expiry sequence (canonicalised by client deadline) and identical
retry / quarantine / shed / clock-jump counts — the robustness analogue of
the sparse-fast-path bit-identity oracle.
"""

from __future__ import annotations

import pytest

from repro.core.registry import scheme_names
from repro.faults import (
    DEFAULT_PLAN,
    ChaosWorkload,
    DurableSpec,
    FaultPlan,
    run_chaos,
    run_differential,
)


def test_default_plan_is_identical_across_all_schemes():
    report = run_differential()
    assert len(report.results) == len(scheme_names())
    assert report.identical, f"divergences: {report.divergences}"
    ref = report.reference
    # The plan actually exercised the interesting paths.
    assert ref.retries > 0
    assert ref.quarantined  # scripted always-fail ids landed in quarantine
    assert ref.stopped > 0
    assert ref.clock_jumps == 2  # one forward, one backward
    assert ref.alloc_skipped > 0
    assert ref.stop_races > 0
    assert ref.pending_left == 0  # everything resolved by the drain


def test_survivors_are_canonical_and_plausible():
    report = run_differential(schemes=["scheme1", "scheme7-lossy"])
    exact, lossy = report.results
    assert exact.survivors == lossy.survivors
    deadlines = [deadline for _, deadline, _ in exact.survivors]
    assert deadlines == sorted(deadlines)
    attempts = [attempts for _, _, attempts in exact.survivors]
    assert all(a >= 1 for a in attempts)
    assert any(a > 1 for a in attempts)  # some survivors needed retries


def test_seed_changes_the_outcome_but_not_the_identity():
    base = run_chaos("scheme6")
    other_plan = FaultPlan.from_dict({**DEFAULT_PLAN.to_dict(), "seed": 99})
    other = run_chaos("scheme6", plan=other_plan)
    assert base.fingerprint() != other.fingerprint()
    # ... and the new seed is still scheme-invariant.
    report = run_differential(plan=other_plan, schemes=["scheme1", "scheme4", "scheme7"])
    assert report.identical, report.divergences


def test_workload_intervals_respect_the_lossy_bounds():
    workload = ChaosWorkload()
    for ops in workload.ops().values():
        for op, _key, interval in ops:
            if op == "start":
                assert 1 <= interval <= workload.small_max or (
                    workload.large_min <= interval <= workload.large_max
                )


def test_stops_precede_any_schemes_earliest_firing():
    # A stop planned at start_step + offset must beat even a lossy
    # early-fire (up to one level-1 slot, 64 ticks, before the deadline)
    # and survive the plan's forward clock jumps (+80).
    workload = ChaosWorkload()
    starts = {}
    stops = {}
    for step, ops in workload.ops().items():
        for op, key, interval in ops:
            if op == "start":
                starts[key] = (step, interval)
            else:
                stops[key] = step
    assert stops, "workload plans no stops; the race path is untested"
    for key, stop_step in stops.items():
        start_step, interval = starts[key]
        offset = stop_step - start_step
        assert offset >= 1
        assert offset + 80 + 64 < interval, (
            f"{key}: stop offset {offset} could race a lossy early fire "
            f"of interval {interval}"
        )


def test_differential_under_budget_ignores_budget_dependent_fields():
    report = run_differential(
        schemes=["scheme1", "scheme6", "scheme7-lossy"],
        tick_budget=3,
        overload_policy="degrade",
    )
    assert report.identical, report.divergences


@pytest.mark.parametrize("scheme", scheme_names())
def test_each_scheme_replay_is_reproducible(scheme):
    first = run_chaos(scheme)
    second = run_chaos(scheme)
    assert first.fingerprint() == second.fingerprint()


def test_sharded_service_matches_unsharded_fingerprint():
    """The Appendix B service run through the canonical plan must agree
    with the single-module run field for field: partitioning may move
    timers between shards, never change what survives."""
    base = run_chaos("scheme6")
    sharded = run_chaos("scheme6", shards=4)
    assert sharded.fingerprint() == base.fingerprint()
    assert sharded.scheme == "sharded[4xscheme6]"
    # The run really was partitioned: more than one shard held timers.
    per_shard = sharded.introspection["per_shard"]
    assert len(per_shard) == 4
    assert sum(1 for info in per_shard if info["total_started"] > 0) > 1


def test_sharded_fingerprint_is_shard_count_invariant():
    two = run_chaos("scheme6", shards=2)
    eight = run_chaos("scheme6", shards=8)
    assert two.fingerprint() == eight.fingerprint()


#: Stack compositions, outermost layer first, as run_chaos parameters.
STACKS = {
    "async>sharded2>durable>supervised": dict(
        runtime=True, shards=2, durable=DurableSpec(sync="never")
    ),
    "sharded2>durable>supervised": dict(shards=2, durable=DurableSpec()),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_composed_stack_matches_unsharded_fingerprint(stack):
    """Every layer composition replays the plan to the plain supervised
    run's fingerprint: layers may move and journal timers, never change
    what survives."""
    base = run_chaos("scheme6")
    composed = run_chaos("scheme6", **STACKS[stack])
    assert composed.fingerprint() == base.fingerprint()
    assert composed.durable is not None and not composed.durable.crashed
    assert composed.durable.records_appended > 0


def test_kill_point_needs_the_plain_stack():
    with pytest.raises(ValueError, match="unsharded"):
        run_chaos("scheme6", shards=2, durable=DurableSpec(kill_at_seq=10))
