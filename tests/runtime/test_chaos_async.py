"""Differential chaos through the async runtime.

The strongest evidence the runtime adds no semantics of its own: the
canonical fault plan + workload, replayed with the supervised scheduler
inside an :class:`AsyncTimerService` under a live event loop, must
produce a :class:`ChaosResult` fingerprint bit-identical to the
synchronous harness's — same survivors, same retry/quarantine/shed
counts, same jump accounting.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import run_chaos

SCHEMES = ["scheme1", "scheme6", "scheme7", "scheme7-lossy"]


def _comparable(result):
    fingerprint = dict(result.fingerprint())
    fingerprint.pop("scheme", None)
    return fingerprint


@pytest.mark.parametrize("scheme", SCHEMES)
def test_async_chaos_fingerprint_matches_synchronous(scheme):
    sync = run_chaos(scheme)
    asy = run_chaos(scheme, runtime=True)
    assert _comparable(asy) == _comparable(sync)
    assert asy.scheme == f"async:{scheme}"


def test_async_chaos_reports_runtime_introspection():
    result = run_chaos("scheme6", runtime=True)
    runtime = result.introspection["runtime"]
    assert runtime["clock"] == "FakeClock"
    # Explicit-sync mode: readings flow through advance_clock, so the
    # ticker itself never has to wake for a deadline.
    assert runtime["early_wakes"] == 0
    assert runtime["backward_freezes"] == 0


def test_async_chaos_survives_a_budgeted_overload_policy():
    sync = run_chaos("scheme6", tick_budget=3, overload_policy="degrade")
    asy = run_chaos(
        "scheme6", tick_budget=3, overload_policy="degrade", runtime=True
    )
    assert _comparable(asy) == _comparable(sync)
