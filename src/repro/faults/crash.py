"""Process-death faults for the durable timer service.

A :class:`CrashPoint` names one journal sequence number and what the
"disk" looks like afterwards — the four states a real power loss can
leave an append-only log in:

``"before"``
    The process dies before the record reaches the OS: the journal ends
    at the previous durable record; the in-flight op (and any unsynced
    group-commit buffer) is lost entirely.
``"torn"``
    The kernel wrote part of the record's bytes: the journal ends in a
    truncated line that fails to parse. Recovery must skip it.
``"corrupt"``
    The full line length made it out but some bytes are garbage (a torn
    sector rewrite): the line parses or CRC-checks false. Recovery must
    skip it, never replay it.
``"after"``
    The record is fully durable; the process dies immediately after the
    acknowledging fsync. Nothing is lost but the in-memory state.

The journal raises :class:`SimulatedCrash` at the configured point.  It
derives from :class:`BaseException`, exactly like ``KeyboardInterrupt``,
because process death is not an error a callback handler somewhere up
the stack may catch and "handle" — it must unwind everything so the
chaos harness (:mod:`repro.faults.chaos_durable`) can
model the process boundary faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import TimerConfigurationError

#: Every disk state a :class:`CrashPoint` can leave behind.
CRASH_MODES = ("before", "torn", "corrupt", "after")


class SimulatedCrash(BaseException):
    """The process died at a :class:`CrashPoint` (kill -9, power loss)."""


@dataclass(frozen=True)
class CrashPoint:
    """Kill the service when journal record ``at_seq`` is appended."""

    at_seq: int
    mode: str = "after"

    def __post_init__(self) -> None:
        if isinstance(self.at_seq, bool) or not isinstance(self.at_seq, int):
            raise TimerConfigurationError(
                f"crash_at_seq must be an int, got {type(self.at_seq).__name__}"
            )
        if self.at_seq < 1:
            raise TimerConfigurationError(
                f"crash_at_seq must be >= 1, got {self.at_seq}"
            )
        if self.mode not in CRASH_MODES:
            raise TimerConfigurationError(
                f"crash_mode must be one of {CRASH_MODES}, got {self.mode!r}"
            )
