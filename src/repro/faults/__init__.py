"""Deterministic fault injection for the timer facility.

The harness has four layers, each usable on its own:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a pure, seedable
  decision table mapping ``(request_id, attempt)`` to an outcome
  (``ok`` / ``fail`` / ``slow`` / ``hang``) plus scripted stop races,
  allocator pressure, and clock jumps. JSON round-trippable.
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which executes
  a plan against any scheduler through the thin expiry-action wrapper
  and the supervisor's ``cost_hook`` seam.
* :mod:`repro.faults.clock` — :class:`SkewedClock` and :func:`drive`,
  deterministic forward/backward clock-jump streams for
  ``SupervisedScheduler.sync_clock``.
* :mod:`repro.faults.chaos` — the differential suite: one plan replayed
  across all nine scheme modules must yield identical surviving-expiry
  sequences and identical retry/quarantine/shed counts. :func:`run_chaos`
  takes the stack's composition (shards and backend, async runtime,
  durable journal) as parameters; every composition must reproduce the
  plain run's fingerprint.
* :mod:`repro.faults.crash` / :mod:`repro.faults.chaos_durable` — the
  crash layer: :class:`CrashPoint` kills the durable service at a seeded
  journal seq (log left missing / torn / corrupt / durable), and
  ``run_chaos(scheme, durable=DurableSpec(kill_at_seq=...))`` proves
  recovery reproduces the uninterrupted fingerprint bit-for-bit.
"""

from repro.faults.chaos import (
    DEFAULT_PLAN,
    SCHEME_KWARGS,
    ChaosResult,
    ChaosWorkload,
    DifferentialReport,
    DurableReport,
    DurableSpec,
    fingerprint,
    run_chaos,
    run_differential,
)
from repro.faults.clock import SkewedClock, drive, jump_offsets
from repro.faults.crash import CRASH_MODES, CrashPoint, SimulatedCrash
from repro.faults.injector import (
    AllocationPressure,
    FaultInjector,
    HangingCallbackError,
    InjectedCallbackError,
    InjectedFault,
    TransientStopRace,
)
from repro.faults.plan import OUTCOMES, FaultPlan

__all__ = [
    "AllocationPressure",
    "CRASH_MODES",
    "ChaosResult",
    "ChaosWorkload",
    "CrashPoint",
    "DEFAULT_PLAN",
    "DifferentialReport",
    "DurableReport",
    "DurableSpec",
    "FaultInjector",
    "FaultPlan",
    "HangingCallbackError",
    "InjectedCallbackError",
    "InjectedFault",
    "OUTCOMES",
    "SCHEME_KWARGS",
    "SimulatedCrash",
    "SkewedClock",
    "TransientStopRace",
    "drive",
    "fingerprint",
    "jump_offsets",
    "run_chaos",
    "run_differential",
]
