"""MILLIONS: million-timer scale — struct-of-arrays store vs object records.

Section 1's motivating environments (user-level protocol stacks, OS
kernels) hold *thousands* of timers; modern descendants of the paper's
wheels (kernel timer subsystems, delay-queue services) hold millions.
At that scale the dominant cost in a Python reproduction is no longer
the abstract ops the paper counts but the per-record interpreter
overhead: every object-store timer costs a ``Timer`` + ``DNode`` pair,
an id string, and a dict entry — hundreds of bytes and an allocator
round-trip per start.

The struct-of-arrays store (``repro.structures.soa``) keeps one flat
``array('q')`` per field and hands out generation-tagged int handles,
so a pending timer costs six machine words plus three pointer slots.
This bench drives the hot wheel schemes (4, 6, 7) through identical
workloads under both stores — plus the Lawn scheme (per-TTL buckets,
no MaxInterval) as a modern point of comparison — and measures:

* bytes/timer via :mod:`tracemalloc` (facility-held memory only — no
  client-side references are retained, so the number is what the
  *scheduler* costs per pending timer);
* start throughput, churn (start/stop mix) throughput, and drain
  (advance-to-expiry) throughput via wall clock;
* a store-independent expiry fingerprint: CRC-32 over the sorted
  ``(fired_at, interval)`` pairs, so every row — including Lawn, whose
  within-tick order legitimately differs — must agree exactly.

Acceptance gates (full mode, n = 1,000,000): the SoA store must hold a
≥3x bytes/timer reduction and a ≥1.5x start-throughput advantage over
the object store on every wheel scheme, with fingerprint identity
across all rows. ``make bench-millions`` regenerates the checked-in
``BENCH_millions.json``; the CI ``millions-smoke`` job runs the
``--fast`` (n = 100,000) variant where the wall-clock gates are skipped
but fingerprint identity and the memory gate still bind.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import deque
from time import perf_counter
from typing import Dict, List, Tuple

from repro.bench.result import ExperimentResult
from repro.core import make_scheduler
from repro.faults import fingerprint

#: Interval span: every workload interval falls in [1, SPAN], and the
#: drain phase advances exactly SPAN ticks, expiring everything.
SPAN = 1 << 16

#: Distinct TTL values in the workload. The paper's motivating stacks
#: use a handful of timeout constants; a bounded alphabet keeps Lawn's
#: per-tick bucket scan O(B) honest at B=64 while leaving the wheels'
#: behaviour unchanged (they never key on TTL multiplicity).
TTL_ALPHABET = 64

#: (scheme, store) rows. Geometry is sized so SPAN fits every scheme:
#: scheme4's wheel spans SPAN slots, scheme6 hashes into SPAN buckets
#: (~15 timers/bucket at n=1M), scheme7's three 64-slot levels span 2^18.
ROWS: List[Tuple[str, str]] = [
    ("scheme4", "object"),
    ("scheme4", "soa"),
    ("scheme6", "object"),
    ("scheme6", "soa"),
    ("scheme7", "object"),
    ("scheme7", "soa"),
    ("lawn", "object"),
]

SCHEME_PARAMS: Dict[str, Dict[str, object]] = {
    "scheme4": {"max_interval": SPAN},
    "scheme6": {"table_size": SPAN},
    "scheme7": {"slot_counts": (64, 64, 64)},
    "lawn": {},
}

#: The wheel schemes the memory/throughput gates compare across stores.
GATED_SCHEMES = ("scheme4", "scheme6", "scheme7")
MEMORY_RATIO_FLOOR = 3.0
INSERT_RATIO_FLOOR = 1.5

N_FULL = 1_000_000
N_FAST = 100_000

#: Fraction of n used for the churn (start/stop mix) phase.
CHURN_FRACTION = 5

#: The drain phase advances in this many chunks so peak expired-list
#: size stays bounded and progress is incremental, as a client would.
DRAIN_CHUNKS = 64


def _build(scheme: str, store: str):
    """Construct one row's scheduler (store kwarg only where it applies)."""
    params = dict(SCHEME_PARAMS[scheme])
    if store == "soa":
        params["store"] = "soa"
    return make_scheduler(scheme, **params)


def _workload(n: int) -> List[int]:
    """The shared interval sequence: n draws from a 64-value TTL alphabet."""
    rng = random.Random(19871103)
    ttls = sorted(rng.sample(range(1, SPAN + 1), TTL_ALPHABET))
    return [rng.choice(ttls) for _ in range(n)]


def _insert_and_drain(
    scheme: str, store: str, intervals: List[int]
) -> Tuple[float, float, int, int]:
    """Timed phases 1+2: start every timer, then advance SPAN ticks.

    Returns (insert_seconds, drain_seconds, fingerprint, expiries).
    """
    sched = _build(scheme, store)
    start_timer = sched.start_timer
    began = perf_counter()
    for interval in intervals:
        start_timer(interval)
    insert_seconds = perf_counter() - began
    pairs: List[Tuple[int, int]] = []
    chunk = SPAN // DRAIN_CHUNKS
    began = perf_counter()
    for step in range(1, DRAIN_CHUNKS + 1):
        for timer in sched.advance_to(step * chunk):
            pairs.append((timer.fired_at, timer.interval))
    drain_seconds = perf_counter() - began
    assert sched.pending_count == 0, f"{scheme}/{store}: drain left timers"
    return insert_seconds, drain_seconds, fingerprint(pairs), len(pairs)


def _churn(scheme: str, store: str, intervals: List[int]) -> Tuple[float, int]:
    """Timed phase 3: interleaved starts and stop-oldest; returns
    (seconds, operations). Stops go through the returned record/view —
    the handle path a real client holds."""
    sched = _build(scheme, store)
    live: deque = deque()
    ops = 0
    began = perf_counter()
    for index, interval in enumerate(intervals):
        live.append(sched.start_timer(interval))
        ops += 1
        if index & 1:
            sched.stop_timer(live.popleft())
            ops += 1
    seconds = perf_counter() - began
    sched.shutdown()
    return seconds, ops


def _memory(scheme: str, store: str, intervals: List[int]) -> float:
    """Phase 4: tracemalloc bytes/timer, facility-held only.

    Nothing returned by ``start_timer`` is retained — the object store's
    records are owned by the scheduler, and SoA views are disposable
    flyweights — so the delta is exactly what the facility itself holds
    per pending timer.
    """
    sched = _build(scheme, store)
    start_timer = sched.start_timer
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for interval in intervals:
            start_timer(interval)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return grown / len(intervals)


def millions_scale(fast: bool = False) -> ExperimentResult:
    """Million-timer memory and latency: SoA vs object records + Lawn."""
    n = N_FAST if fast else N_FULL
    result = ExperimentResult(
        experiment_id="MILLIONS",
        title="Million-timer scale: struct-of-arrays store vs object records",
        paper_claim=(
            "the wheel algorithms stay O(1) at any population (Sections "
            "4-7); at millions of timers the reproduction's bottleneck "
            "is per-record host overhead, which the SoA store removes "
            "without changing a single observable"
        ),
        headers=[
            "scheme",
            "store",
            "bytes/timer",
            "inserts/s",
            "churn ops/s",
            "drain exp/s",
            "identical",
        ],
    )
    intervals = _workload(n)
    churn_intervals = intervals[: n // CHURN_FRACTION]
    measurements: List[Dict[str, object]] = []
    reference_fp = None
    by_key: Dict[Tuple[str, str], Dict[str, object]] = {}
    for scheme, store in ROWS:
        insert_s, drain_s, fingerprint, expiries = _insert_and_drain(
            scheme, store, intervals
        )
        churn_s, churn_ops = _churn(scheme, store, churn_intervals)
        bytes_per_timer = _memory(scheme, store, intervals)
        if reference_fp is None:
            reference_fp = fingerprint
        identical = fingerprint == reference_fp and expiries == n
        row = {
            "scheme": scheme,
            "store": store,
            "timers": n,
            "bytes_per_timer": bytes_per_timer,
            "insert_seconds": insert_s,
            "inserts_per_second": n / insert_s if insert_s > 0 else None,
            "churn_seconds": churn_s,
            "churn_ops": churn_ops,
            "churn_ops_per_second": (
                churn_ops / churn_s if churn_s > 0 else None
            ),
            "drain_seconds": drain_s,
            "expiries": expiries,
            "expiries_per_second": (
                expiries / drain_s if drain_s > 0 else None
            ),
            "fingerprint": fingerprint,
            "identical_fingerprint": identical,
        }
        measurements.append(row)
        by_key[(scheme, store)] = row
        result.add_row(
            scheme,
            store,
            f"{bytes_per_timer:.1f}",
            f"{n / insert_s:,.0f}" if insert_s > 0 else "inf",
            f"{churn_ops / churn_s:,.0f}" if churn_s > 0 else "inf",
            f"{expiries / drain_s:,.0f}" if drain_s > 0 else "inf",
            "yes" if identical else "NO",
        )
        result.check(
            f"{scheme}/{store}: expiry fingerprint identical "
            f"({expiries:,} expiries)",
            identical,
        )
    for scheme in GATED_SCHEMES:
        obj = by_key[(scheme, "object")]
        soa = by_key[(scheme, "soa")]
        memory_ratio = obj["bytes_per_timer"] / soa["bytes_per_timer"]
        insert_ratio = (
            soa["inserts_per_second"] / obj["inserts_per_second"]
        )
        obj["memory_ratio_vs_soa"] = soa["memory_ratio_vs_object"] = (
            memory_ratio
        )
        obj["insert_ratio_vs_soa"] = soa["insert_ratio_vs_object"] = (
            insert_ratio
        )
        result.check(
            f"{scheme}: SoA memory reduction "
            f"{memory_ratio:.2f}x >= {MEMORY_RATIO_FLOOR:.0f}x",
            memory_ratio >= MEMORY_RATIO_FLOOR,
        )
        if not fast:
            result.check(
                f"{scheme}: SoA insert throughput "
                f"{insert_ratio:.2f}x >= {INSERT_RATIO_FLOOR:.1f}x",
                insert_ratio >= INSERT_RATIO_FLOOR,
            )
    result.data = {
        "mode": "fast" if fast else "full",
        "timers": n,
        "interval_span": SPAN,
        "ttl_alphabet": TTL_ALPHABET,
        "churn_timers": len(churn_intervals),
        "memory_ratio_floor": MEMORY_RATIO_FLOOR,
        "insert_ratio_floor": INSERT_RATIO_FLOOR,
        "gated_schemes": list(GATED_SCHEMES),
        "measurements": measurements,
    }
    if fast:
        result.note(
            "fast mode: wall-clock insert-throughput gates skipped (noise "
            "at smoke scale); fingerprint identity and the bytes/timer "
            "gate still asserted"
        )
    result.note(
        "bytes/timer is facility-held memory: no client references are "
        "retained during the tracemalloc phase, so object-store records "
        "(scheduler-owned) and SoA rows compare like for like"
    )
    result.note(
        "the fingerprint sorts (fired_at, interval) pairs before hashing, "
        "so schemes with different within-tick drain orders (Lawn's "
        "per-bucket FIFO vs the wheels' per-slot LIFO) still compare"
    )
    return result
