"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a pure decision table: given a timer's client
request id and the attempt number of its Expiry_Action, it answers "what
goes wrong this time?" — deterministically, from a seed, with no mutable
state. Because decisions key on ``(request_id, attempt)`` rather than on
wall time or arrival order, the *same plan replayed against every scheme
produces the same fault sequence*, which is what makes the differential
chaos suite (:mod:`repro.faults.chaos`) able to assert identical
surviving-expiry sequences across all nine scheme modules.

Outcomes per attempt:

``"ok"``
    The action runs normally (cost 1 budget unit).
``"fail"``
    The action raises :class:`~repro.faults.injector.InjectedCallbackError`.
``"slow"``
    The action runs but charges :attr:`FaultPlan.slow_cost` budget units —
    a simulated long-running callback (deterministic; no wall clock).
``"hang"``
    The action charges :attr:`FaultPlan.hang_cost` (a budget buster) and
    raises :class:`~repro.faults.injector.HangingCallbackError` — a
    simulated callback that never completed.

Beyond per-attempt outcomes a plan also scripts transient STOP_TIMER
races (:meth:`should_stop_race`), allocator pressure on every Nth
START_TIMER (:attr:`alloc_failure_every`), and external clock jumps
(:attr:`clock_jumps`, consumed by :mod:`repro.faults.clock`). Plans
round-trip through JSON (:meth:`to_json` / :meth:`from_json`) — the
fault-plan format documented in ``docs/robustness.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.errors import TimerConfigurationError
from repro.core.supervision import _unit
from repro.faults.crash import CRASH_MODES, CrashPoint

#: Every outcome :meth:`FaultPlan.outcome` may return.
OUTCOMES = ("ok", "fail", "slow", "hang")


@dataclass
class FaultPlan:
    """A seedable schedule of faults (see module docstring).

    Rates are independent probabilities evaluated in the order
    fail → hang → slow from one uniform draw per ``(id, attempt)``, so
    ``fail_rate + hang_rate + slow_rate`` must not exceed 1.
    ``max_failures_per_timer`` caps how many attempts of any one timer
    can misbehave — attempts beyond it are always ``"ok"``, guaranteeing
    eventual success for retry tests; ``None`` leaves failures unbounded
    (the quarantine path). ``scripted`` pins exact per-attempt outcomes
    for specific ids (string-keyed), overriding the rates.
    """

    seed: int = 0
    fail_rate: float = 0.0
    slow_rate: float = 0.0
    hang_rate: float = 0.0
    max_failures_per_timer: int | None = None
    slow_cost: int = 4
    hang_cost: int = 1_000_000
    stop_race_rate: float = 0.0
    alloc_failure_every: int = 0
    clock_jumps: Tuple[Tuple[int, int], ...] = ()
    scripted: Dict[str, Sequence[str]] = field(default_factory=dict)
    #: journal-I/O faults (durable service only; see repro.durability):
    #: kill the process when journal record ``crash_at_seq`` is appended,
    #: leaving the log in ``crash_mode`` ("before" | "torn" | "corrupt"
    #: | "after"); ``fsync_fail_at_seq`` makes the group commit covering
    #: that seq fail cleanly (the op is rejected, nothing is lost).
    crash_at_seq: Optional[int] = None
    crash_mode: str = "after"
    fsync_fail_at_seq: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("fail_rate", "slow_rate", "hang_rate", "stop_race_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.fail_rate + self.hang_rate + self.slow_rate > 1.0:
            raise ValueError("fail_rate + hang_rate + slow_rate must be <= 1")
        if self.alloc_failure_every < 0:
            raise ValueError(
                f"alloc_failure_every must be >= 0, got {self.alloc_failure_every}"
            )
        self.clock_jumps = tuple(
            (int(at), int(delta)) for at, delta in self.clock_jumps
        )
        self.scripted = {k: tuple(v) for k, v in self.scripted.items()}
        for key, outcomes in self.scripted.items():
            bad = [o for o in outcomes if o not in OUTCOMES]
            if bad:
                raise ValueError(
                    f"scripted[{key!r}] has unknown outcomes {bad}; "
                    f"valid: {OUTCOMES}"
                )
        # Journal-I/O fault fields are newer; they reject bad values with
        # TimerConfigurationError (the documented configuration contract).
        if self.crash_at_seq is not None:
            CrashPoint(self.crash_at_seq, self.crash_mode)  # validates both
        elif self.crash_mode not in CRASH_MODES:
            raise TimerConfigurationError(
                f"crash_mode must be one of {CRASH_MODES}, "
                f"got {self.crash_mode!r}"
            )
        if self.fsync_fail_at_seq is not None and (
            isinstance(self.fsync_fail_at_seq, bool)
            or not isinstance(self.fsync_fail_at_seq, int)
            or self.fsync_fail_at_seq < 1
        ):
            raise TimerConfigurationError(
                "fsync_fail_at_seq must be a positive int or None, "
                f"got {self.fsync_fail_at_seq!r}"
            )

    def crash_point(self) -> Optional["CrashPoint"]:
        """The plan's :class:`~repro.faults.crash.CrashPoint`, if any."""
        if self.crash_at_seq is None:
            return None
        return CrashPoint(self.crash_at_seq, self.crash_mode)

    # ------------------------------------------------------------- decisions

    def outcome(self, request_id: Hashable, attempt: int) -> str:
        """What happens to ``request_id``'s Expiry_Action on ``attempt``.

        Attempts are 1-based. Pure: same inputs, same answer, any scheme.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        script = self.scripted.get(str(request_id))
        if script is not None:
            return script[attempt - 1] if attempt <= len(script) else "ok"
        if (
            self.max_failures_per_timer is not None
            and attempt > self.max_failures_per_timer
        ):
            return "ok"
        u = _unit(self.seed, "outcome", str(request_id), attempt)
        if u < self.fail_rate:
            return "fail"
        if u < self.fail_rate + self.hang_rate:
            return "hang"
        if u < self.fail_rate + self.hang_rate + self.slow_rate:
            return "slow"
        return "ok"

    def cost(self, request_id: Hashable, attempt: int) -> int:
        """Budget units the attempt will charge (1 for ok/fail)."""
        outcome = self.outcome(request_id, attempt)
        if outcome == "slow":
            return self.slow_cost
        if outcome == "hang":
            return self.hang_cost
        return 1

    def should_stop_race(self, request_id: Hashable) -> bool:
        """Whether the *first* STOP_TIMER for this id hits a simulated race."""
        if not self.stop_race_rate:
            return False
        return _unit(self.seed, "stop", str(request_id)) < self.stop_race_rate

    # ------------------------------------------------------------- round trip

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the documented fault-plan format)."""
        return {
            "seed": self.seed,
            "fail_rate": self.fail_rate,
            "slow_rate": self.slow_rate,
            "hang_rate": self.hang_rate,
            "max_failures_per_timer": self.max_failures_per_timer,
            "slow_cost": self.slow_cost,
            "hang_cost": self.hang_cost,
            "stop_race_rate": self.stop_race_rate,
            "alloc_failure_every": self.alloc_failure_every,
            "clock_jumps": [list(jump) for jump in self.clock_jumps],
            "scripted": {k: list(v) for k, v in self.scripted.items()},
            "crash_at_seq": self.crash_at_seq,
            "crash_mode": self.crash_mode,
            "fsync_fail_at_seq": self.fsync_fail_at_seq,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        known = {
            "seed",
            "fail_rate",
            "slow_rate",
            "hang_rate",
            "max_failures_per_timer",
            "slow_cost",
            "hang_cost",
            "stop_race_rate",
            "alloc_failure_every",
            "clock_jumps",
            "scripted",
            "crash_at_seq",
            "crash_mode",
            "fsync_fail_at_seq",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "clock_jumps" in kwargs:
            kwargs["clock_jumps"] = tuple(
                tuple(jump) for jump in kwargs["clock_jumps"]  # type: ignore[union-attr]
            )
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_json(self, indent: int | None = None) -> str:
        """The plan as canonical JSON (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def describe(self) -> List[str]:
        """Human-readable one-liners for the CLI."""
        lines = [f"seed={self.seed}"]
        if self.fail_rate:
            lines.append(f"fail_rate={self.fail_rate}")
        if self.slow_rate:
            lines.append(f"slow_rate={self.slow_rate} (cost {self.slow_cost})")
        if self.hang_rate:
            lines.append(f"hang_rate={self.hang_rate} (cost {self.hang_cost})")
        if self.max_failures_per_timer is not None:
            lines.append(f"max_failures_per_timer={self.max_failures_per_timer}")
        if self.stop_race_rate:
            lines.append(f"stop_race_rate={self.stop_race_rate}")
        if self.alloc_failure_every:
            lines.append(f"alloc failure every {self.alloc_failure_every} starts")
        if self.clock_jumps:
            lines.append(
                "clock_jumps="
                + ",".join(f"{at}:{delta:+d}" for at, delta in self.clock_jumps)
            )
        if self.scripted:
            lines.append(f"scripted ids: {sorted(self.scripted)}")
        if self.crash_at_seq is not None:
            lines.append(
                f"crash at journal seq {self.crash_at_seq} ({self.crash_mode})"
            )
        if self.fsync_fail_at_seq is not None:
            lines.append(f"fsync failure covering seq {self.fsync_fail_at_seq}")
        return lines
