"""The crash-recovery oracle: death must be unobservable in the outcome.

Kill the durable service at a journal sequence number mid-chaos-plan —
leaving the log fully missing, torn, corrupt, or fully durable at the
kill point — recover, let the surviving clients re-issue the lost tail,
drain, and the fingerprint must be **bit-identical** to an uninterrupted
:func:`repro.faults.chaos.run_chaos` of the same plan. On every
registry scheme.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.registry import scheme_names
from repro.faults.chaos import DEFAULT_PLAN, DurableSpec, run_chaos

_BASELINES = {}


def _durable(scheme, plan=None, scheme_kwargs=None, **spec):
    """The chaos plan through a durable stack: (result, durable report)."""
    result = run_chaos(
        scheme, plan=plan, scheme_kwargs=scheme_kwargs, durable=DurableSpec(**spec)
    )
    return result, result.durable


def _baseline(scheme, **kwargs):
    key = (scheme, tuple(sorted(kwargs.get("scheme_kwargs", {}).items())))
    if key not in _BASELINES:
        _BASELINES[key] = run_chaos(scheme, **kwargs).fingerprint()
    return _BASELINES[key]


@pytest.mark.parametrize("scheme", scheme_names())
def test_recovered_fingerprint_is_identical_on_every_scheme(scheme):
    result, run = _durable(scheme, kill_at_seq=150, crash_mode="torn")
    assert run.crashed
    assert run.recovery is not None
    assert result.fingerprint() == _baseline(scheme)


@pytest.mark.parametrize("mode", ["before", "torn", "corrupt", "after"])
@pytest.mark.parametrize("seq", [1, 64, 300, 600])
def test_every_crash_mode_and_phase_recovers(seq, mode):
    result, run = _durable("scheme6", kill_at_seq=seq, crash_mode=mode)
    assert run.crashed
    assert result.fingerprint() == _baseline("scheme6")


def test_crash_during_the_final_drain_recovers():
    # seq far beyond the op stream lands inside run_until_idle's ledger
    # traffic; the resumed run re-drains and converges all the same.
    _, clean = _durable("scheme6")
    assert not clean.crashed
    seq = clean.records_appended - 5
    result, run = _durable("scheme6", kill_at_seq=seq, crash_mode="torn")
    assert run.crashed
    assert result.fingerprint() == _baseline("scheme6")


def test_group_commit_loss_window_is_reissued():
    # sync="batch" with "before" kills the acked-but-unsynced buffer too;
    # clients re-issue it idempotently on reconnect.
    result, run = _durable(
        "scheme6", kill_at_seq=200, crash_mode="before", batch_size=32
    )
    assert run.crashed
    assert result.fingerprint() == _baseline("scheme6")


def test_soa_store_recovers_identically():
    kwargs = {"scheme_kwargs": {"store": "soa"}}
    result, run = _durable(
        "scheme6", kill_at_seq=222, crash_mode="torn", **kwargs
    )
    assert run.crashed
    assert result.fingerprint() == _baseline("scheme6", **kwargs)
    assert result.introspection["store"] == "soa"


@pytest.mark.parametrize("sync", ["always", "batch", "never"])
def test_every_sync_mode_converges(sync):
    result, run = _durable(
        "scheme6", kill_at_seq=400, crash_mode="after", sync=sync
    )
    assert result.fingerprint() == _baseline("scheme6")


def test_crash_point_from_the_plan_itself():
    plan = dataclasses.replace(
        DEFAULT_PLAN, crash_at_seq=120, crash_mode="corrupt"
    )
    result, run = _durable("scheme6", plan=plan)
    assert run.crashed
    assert run.crash.at_seq == 120 and run.crash.mode == "corrupt"
    assert result.fingerprint() == _baseline("scheme6")


def test_injected_fsync_failure_is_survivable_without_a_crash():
    plan = dataclasses.replace(DEFAULT_PLAN, fsync_fail_at_seq=10)
    result, run = _durable("scheme6", plan=plan)
    assert not run.crashed
    assert result.fingerprint() == _baseline("scheme6")


def test_uncrashed_run_matches_and_reports_journal_stats():
    result, run = _durable("scheme6", snapshot_every=64)
    assert not run.crashed and run.recovery is None
    assert result.fingerprint() == _baseline("scheme6")
    assert run.records_appended > 600  # every op and outcome journaled
    assert run.fsyncs > 0
