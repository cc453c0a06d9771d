"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``schemes [--markdown]``
    List every registered timer scheme with its complexity summary.
    ``--markdown`` emits the GitHub table embedded in README.md (the
    README copy is drift-guarded against this output by
    ``tests/test_docs.py``).
``experiments [IDS...] [--fast] [--json FILE]``
    Regenerate paper tables/figures (same engine as ``python -m repro.bench``).
``scenario NAME [--scheme S] [--ticks N] [--seed K]``
    Run a named workload scenario against a scheme and print the measured
    costs and occupancy.
``stats --scenario NAME [--scheme S] [--format table|json|prometheus]``
    Run a scenario with a metrics collector attached and print the full
    observability snapshot: tick-latency histogram, pending-count gauge,
    firing drift, and the scheme's structure introspection (hash-chain
    length distribution, wheel occupancy, ...).
``trace --scenario NAME [--scheme S] [--out FILE] [--request-id ID] [--event TYPE] [--spans-out FILE]``
    Run a scenario with a lifecycle trace recorder attached and emit the
    retained events as JSONL; ``--request-id`` follows one timer (its
    supervision re-arms included) and ``--event`` keeps only the given
    types. ``--spans-out`` additionally assembles end-to-end spans and
    writes them as JSONL (see ``docs/observability.md``).
``replay TRACEFILE [--scheme S]``
    Replay a recorded START/STOP trace (see ``repro.workloads.trace``).
``recommend [--rate R] [--mean-interval T] [--stop-fraction F] [--memory M]``
    Rank scheme configurations for a workload with the paper's cost models.
``serve [--scheme S] [--timers N] [--tick SECONDS] [--horizon T] [--seed K]``
    Run a live :class:`~repro.runtime.service.AsyncTimerService` over
    the asyncio event-loop clock: arm N timers at seeded random
    deadlines, cancel a fraction mid-flight, await the coroutine expiry
    actions in real wall time, then print the runtime counters
    (wakeups, replans, oversleeps — see ``docs/async_runtime.md``).
    ``--metrics-port`` serves ``/metrics`` + ``/introspect`` + ``/spans``
    on that port for the duration of the demo.
``top [--host H --port P | --demo] [--interval S] [--frames N | --once]``
    Poll a live telemetry endpoint (``serve --metrics-port`` or any
    :class:`~repro.obs.endpoint.TelemetryEndpoint`) and render a compact
    health summary per frame; ``--demo`` runs a self-contained service +
    endpoint in-process and polls it over loopback HTTP.
``chaos [--schemes S,S,...] [--plan FILE] [--budget N] [--shards N] [--backend B] [--json FILE]``
    Replay one deterministic fault plan (callback failures, slow/hanging
    callbacks, stop races, allocator pressure, clock jumps) across the
    selected schemes under supervised expiry and assert that every scheme
    yields the identical surviving-expiry sequence and identical
    retry/quarantine/shed counts. With ``--shards N`` the plan also runs
    through an N-shard service; ``--backend`` picks its execution
    backend(s) — a name, a comma list, or ``all`` for every backend the
    host can run (see ``docs/backends.md``) — and each one must produce
    the same fingerprint. Exits 1 on divergence (see
    ``docs/robustness.md``).
``chaos --kill-at SEQ [--crash-mode M] [--journal DIR] [--sync S]``
    The crash-recovery oracle: run the plan durably (write-ahead journal
    + snapshots) on one scheme, kill the service at journal sequence
    ``SEQ`` leaving the log in ``--crash-mode`` (``before`` | ``torn`` |
    ``corrupt`` | ``after``), recover from disk, and assert the recovered
    fingerprint is bit-identical to an uninterrupted run (see
    ``docs/durability.md``).
``recover DIR [--limit N]``
    Inspect a durable service directory offline: reduce the newest valid
    snapshot plus the journal tail (no callbacks run) and print the
    state a recovery would rebuild, including integrity findings —
    skipped torn-tail lines, rejected snapshots, corruption.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.tables import render_table


def _scheme_rows() -> List[tuple]:
    """(name, class, summary) for every registered scheme.

    Descriptions come from the registry itself (registered next to each
    factory), so no listing built on this can drift from the registered
    schemes.
    """
    from repro.core import make_scheduler, scheme_names, scheme_summary

    rows = []
    for name in scheme_names():
        cls = type(make_scheduler(name, **({"max_interval": 64} if name == "scheme4" else {})))
        rows.append((name, cls.__name__, scheme_summary(name)))
    return rows


def schemes_markdown() -> str:
    """The registry as a GitHub markdown table (``schemes --markdown``).

    README.md embeds this output verbatim; ``tests/test_docs.py``
    regenerates it there so the two cannot drift.
    """
    lines = ["| scheme | class | summary |", "| --- | --- | --- |"]
    for name, cls, summary in _scheme_rows():
        lines.append(f"| `{name}` | `{cls}` | {summary} |")
    return "\n".join(lines)


def _cmd_schemes(args: argparse.Namespace) -> int:
    if args.markdown:
        print(schemes_markdown())
    else:
        print(render_table(["name", "class", "summary"], _scheme_rows()))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = list(args.ids)
    if args.fast:
        argv.append("--fast")
    if args.json:
        argv.extend(["--json", args.json])
    return bench_main(argv)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.core import make_scheduler
    from repro.workloads import get_scenario, run_steady_state

    scenario = get_scenario(args.name)
    kwargs = {}
    if args.scheme == "scheme4":
        kwargs["max_interval"] = 1 << 16
    scheduler = make_scheduler(args.scheme, **kwargs)
    stats = run_steady_state(
        scheduler,
        scenario.arrivals(),
        scenario.intervals(),
        warmup_ticks=args.ticks // 3,
        measure_ticks=args.ticks,
        stop_fraction=scenario.stop_fraction,
        seed=args.seed,
    )
    print(f"scenario : {scenario.name} — {scenario.description}")
    print(f"scheme   : {args.scheme}, window {args.ticks} ticks")
    rows = [
        ("timers started", stats.started),
        ("timers stopped", stats.stopped),
        ("timers expired", stats.expired),
        ("mean outstanding (n)", f"{stats.mean_occupancy:.1f}"),
        ("mean START cost (ops)", f"{stats.mean_insert_cost:.2f}"),
        ("mean STOP cost (ops)", f"{stats.mean_stop_cost:.2f}"),
        ("mean PER-TICK cost (ops)", f"{stats.mean_tick_cost:.2f}"),
        ("worst PER-TICK cost (ops)", stats.max_tick_cost),
    ]
    print(render_table(["measure", "value"], rows))
    return 0


def _make_scenario_scheduler(scheme: str):
    from repro.core import make_scheduler

    kwargs = {"max_interval": 1 << 16} if scheme == "scheme4" else {}
    return make_scheduler(scheme, **kwargs)


def _run_instrumented_scenario(args: argparse.Namespace, observer):
    """Run the named scenario with ``observer`` attached; returns the
    scheduler (post-run) for introspection."""
    from repro.workloads import get_scenario, run_steady_state

    scenario = get_scenario(args.scenario)
    scheduler = _make_scenario_scheduler(args.scheme)
    run_steady_state(
        scheduler,
        scenario.arrivals(),
        scenario.intervals(),
        warmup_ticks=args.ticks // 3,
        measure_ticks=args.ticks,
        stop_fraction=scenario.stop_fraction,
        seed=args.seed,
        observer=observer,
    )
    return scheduler


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import (
        MetricsCollector,
        render_snapshot_tables,
        to_json,
        to_prometheus,
    )

    collector = MetricsCollector()
    scheduler = _run_instrumented_scenario(args, collector)
    introspection = collector.sample_structure(scheduler)
    snapshot = collector.registry.snapshot()
    if args.format == "json":
        print(to_json(snapshot, introspection))
    elif args.format == "prometheus":
        print(to_prometheus(snapshot, labels={"scheme": args.scheme}), end="")
    else:
        print(
            f"scenario {args.scenario} on {args.scheme}, "
            f"{args.ticks // 3} warmup + {args.ticks} measured ticks "
            f"(the collector sees both)\n"
        )
        print(render_snapshot_tables(snapshot, introspection))
    return 0


def _trace_matches(event, request_id: Optional[str], etypes) -> bool:
    if etypes and event.etype not in etypes:
        return False
    if request_id is not None:
        rid = event.request_id
        if rid is None:
            return False
        # A supervision re-arm renders as ``rearm:<seq>:<origin>`` — the
        # retries belong to the same logical timer, so follow them too.
        if rid != request_id and not (
            rid.startswith("rearm:") and rid.endswith(f":{request_id}")
        ):
            return False
    return True


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import CompositeObserver, SpanAssembler, TraceRecorder

    recorder = TraceRecorder(
        capacity=args.capacity, record_empty_ticks=args.all_ticks
    )
    observer = recorder
    spans = None
    if args.spans_out:
        spans = SpanAssembler()
        observer = CompositeObserver([recorder, spans])
    _run_instrumented_scenario(args, observer)
    selected = [
        event
        for event in recorder.events()
        if _trace_matches(event, args.request_id, args.event)
    ]
    filtered_out = len(recorder.events()) - len(selected)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for event in selected:
                handle.write(event.to_json() + "\n")
        print(
            f"wrote {len(selected)} events to {args.out} "
            f"({filtered_out} filtered out, {recorder.dropped} older "
            f"events dropped by the {args.capacity}-event ring)",
            file=sys.stderr,
        )
    else:
        for event in selected:
            sys.stdout.write(event.to_json() + "\n")
    if spans is not None:
        # Spans correlate re-arms back to their origin id, so the
        # --request-id filter matches the span's origin directly;
        # --event filters apply to the event stream only.
        selected_spans = [
            span
            for span in spans.completed
            if args.request_id is None or span.request_id == args.request_id
        ]
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            for span in selected_spans:
                handle.write(span.to_json() + "\n")
        print(
            f"wrote {len(selected_spans)} completed spans to "
            f"{args.spans_out}",
            file=sys.stderr,
        )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core import make_scheduler
    from repro.workloads.trace import TimerTrace, replay

    trace = TimerTrace.load(args.tracefile)
    kwargs = {"max_interval": 1 << 16} if args.scheme == "scheme4" else {}
    outcome = replay(trace, make_scheduler(args.scheme, **kwargs))
    print(f"replayed {len(trace)} operations on {args.scheme}")
    rows = [
        ("starts", outcome.started),
        ("stops", outcome.stopped),
        ("expiries", len(outcome.expiries)),
        ("still pending", outcome.final_pending),
        ("total scheduler ops", outcome.total_ops),
    ]
    print(render_table(["measure", "value"], rows))
    if args.show_schedule:
        for tick, request_id in outcome.expiry_schedule():
            print(f"  t={tick}: {request_id}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.analysis.sizing import Workload, recommend
    from repro.workloads.distributions import (
        ExponentialIntervals,
        UniformIntervals,
    )

    if args.dist == "exponential":
        intervals = ExponentialIntervals(args.mean_interval)
    else:
        intervals = UniformIntervals(1, int(2 * args.mean_interval))
    workload = Workload(
        rate=args.rate, intervals=intervals, stop_fraction=args.stop_fraction
    )
    print(
        f"workload: rate={args.rate}/tick, {intervals.name}, "
        f"stop_fraction={args.stop_fraction} -> "
        f"n~{workload.expected_outstanding:.0f}, T~{workload.mean_lifetime:.0f}"
    )
    rows = []
    for rec in recommend(workload, memory_slots=args.memory):
        rows.append(
            (
                rec.scheme,
                rec.memory_slots,
                f"{rec.start_cost:.1f}",
                f"{rec.bookkeeping_per_timer:.1f}",
                f"{rec.total_cost_per_timer:.1f}",
                rec.rationale,
            )
        )
    print(
        render_table(
            ["scheme", "slots", "start", "bookkeeping", "total", "why"], rows
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import random

    from repro.core import make_scheduler
    from repro.runtime import AsyncTimerService

    kwargs = {"max_interval": 1 << 16} if args.scheme == "scheme4" else {}
    rng = random.Random(args.seed)
    fired: List[tuple] = []

    async def demo():
        scheduler = make_scheduler(args.scheme, **kwargs)
        service = AsyncTimerService(
            scheduler,
            tick_duration=args.tick,
            max_pending=args.max_pending,
        )
        endpoint = None
        if getattr(args, "metrics_port", None) is not None:
            from repro.obs import (
                CompositeObserver,
                FlightRecorder,
                MetricsCollector,
                SpanAssembler,
                TelemetryEndpoint,
                TraceRecorder,
            )

            collector = MetricsCollector(per_tick_fidelity=False)
            spans = SpanAssembler(registry=collector.registry)
            trace = TraceRecorder(capacity=4096)
            flight = FlightRecorder(dump_dir=None)
            scheduler.attach_observer(
                CompositeObserver([collector, spans, trace, flight])
            )
            endpoint = TelemetryEndpoint(
                service,
                registry=collector.registry,
                spans=spans,
                trace=trace,
                port=args.metrics_port,
            )
            await endpoint.start()
            print(f"telemetry: {endpoint.url}/metrics", file=sys.stderr)

        async def note(timer):
            fired.append((timer.request_id, timer.deadline))
            if not args.quiet:
                print(
                    f"  t={timer.deadline:>5}  {timer.request_id} fired "
                    f"({service.pending_count} still pending)"
                )

        async with service:
            timers = [
                await service.start_timer(
                    rng.randint(1, args.horizon - 1),
                    request_id=f"demo{i}",
                    callback=note,
                )
                for i in range(args.timers)
            ]
            # Cancel a deterministic fraction mid-flight to exercise
            # STOP_TIMER's re-planning of the parked ticker.
            for timer in timers[:: 4]:
                if service.is_pending(timer.request_id):
                    await service.stop_timer(timer)
                    if not args.quiet:
                        print(f"  stopped {timer.request_id}")
            await service.sleep_until(args.horizon)
            await service.drain()
            stats = service.introspect()["runtime"]
        if endpoint is not None:
            await endpoint.close()
        return stats

    stats = asyncio.run(demo())
    print(
        f"served {args.timers} timers on {args.scheme} "
        f"({args.tick * 1000:g} ms/tick, horizon {args.horizon} ticks): "
        f"{len(fired)} fired"
    )
    rows = [
        ("clock", stats["clock"]),
        ("ticker wakeups", stats["wakeups"]),
        ("replans (start/stop interrupts)", stats["replans"]),
        ("oversleep ticks (fired late, never skipped)", stats["oversleep_ticks"]),
        ("early wakes (froze, never fired early)", stats["early_wakes"]),
        ("coroutine actions dispatched", stats["dispatched"]),
        ("peak concurrent actions", stats["max_observed_concurrency"]),
        ("async callback errors", stats["async_callback_errors"]),
    ]
    print(render_table(["runtime counter", "value"], rows))
    return 0


def _render_top_frame(doc: dict) -> str:
    """One ``repro top`` frame from a ``/metrics.json`` document."""
    counters = doc.get("counters", {})
    gauges = doc.get("gauges", {})
    intro = doc.get("introspection", {}) or {}
    runtime = intro.get("runtime", {}) or {}

    def counter(name):
        return counters.get(name, {}).get("value", 0)

    def gauge(name):
        return gauges.get(name, {}).get("value", 0)

    rows = [
        ("state", runtime.get("state", "n/a")),
        ("now (ticks)", f"{gauge('timer_now_ticks'):g}"),
        ("pending (n)", f"{gauge('timer_pending'):g}"),
        ("starts / stops", f"{counter('timer_starts_total')} / "
                           f"{counter('timer_stops_total')}"),
        ("expiries", counter("timer_expiries_total")),
        ("ticks (skipped)", f"{counter('timer_ticks_total')} "
                            f"({counter('timer_ticks_skipped_total')})"),
        ("retries / quarantined", f"{counter('timer_retries_total')} / "
                                  f"{counter('timer_quarantined_total')}"),
        ("callback errors", counter("timer_callback_errors_total")),
        ("spans completed", counter("timer_spans_completed_total")),
        ("trace events (dropped)", f"{counter('timer_trace_events_total')} "
                                   f"({counter('timer_trace_dropped_total')})"),
    ]
    if runtime:
        rows.extend(
            [
                ("ticker wakeups", runtime.get("wakeups", 0)),
                ("replans", runtime.get("replans", 0)),
                ("oversleep ticks", runtime.get("oversleep_ticks", 0)),
                ("dispatched actions", runtime.get("dispatched", 0)),
            ]
        )
    histograms = doc.get("histograms", {})
    latency = histograms.get("timer_tick_latency_seconds")
    if latency and latency.get("count"):
        mean_us = latency["sum"] / latency["count"] * 1e6
        rows.append(("mean tick latency", f"{mean_us:.1f} us"))
    return render_table(["measure", "value"], rows)


async def _top_poll(host: str, port: int, interval: float, frames) -> int:
    import json as json_mod

    from repro.obs.endpoint import http_get

    shown = 0
    while frames is None or shown < frames:
        if shown and interval > 0:
            import asyncio

            await asyncio.sleep(interval)
        status, body = await http_get(host, port, "/metrics.json")
        if status != 200:
            print(
                f"scrape failed: HTTP {status} from {host}:{port}",
                file=sys.stderr,
            )
            return 1
        if sys.stdout.isatty() and shown:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(f"-- repro top: {host}:{port} frame {shown + 1} --")
        print(_render_top_frame(json_mod.loads(body)))
        shown += 1
    return 0


async def _top_demo(frames: int, interval: float) -> int:
    """Self-contained ``repro top`` demo: run a service + endpoint on a
    loopback port and poll it over real HTTP (what CI smoke-tests)."""
    import random

    from repro.core import make_scheduler
    from repro.obs import (
        CompositeObserver,
        MetricsCollector,
        SpanAssembler,
        TelemetryEndpoint,
        TraceRecorder,
    )
    from repro.runtime import AsyncTimerService

    rng = random.Random(7)
    scheduler = make_scheduler("scheme6")
    collector = MetricsCollector(per_tick_fidelity=False)
    spans = SpanAssembler(registry=collector.registry)
    trace = TraceRecorder(capacity=1024)
    scheduler.attach_observer(CompositeObserver([collector, spans, trace]))
    service = AsyncTimerService(scheduler, tick_duration=0.001)
    async with service:
        for i in range(24):
            await service.start_timer(
                rng.randint(1, 40), request_id=f"demo{i}"
            )
        endpoint = TelemetryEndpoint(
            service, registry=collector.registry, spans=spans, trace=trace
        )
        async with endpoint:
            await service.sleep_until(45)
            await service.drain()
            code = await _top_poll("127.0.0.1", endpoint.port, interval, frames)
    return code


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    frames = 1 if args.once else args.frames
    if args.demo:
        return asyncio.run(_top_demo(frames or 2, args.interval))
    if args.port is None:
        print("top: --port is required (or use --demo)", file=sys.stderr)
        return 2
    return asyncio.run(_top_poll(args.host, args.port, args.interval, frames))


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.core.registry import scheme_names
    from repro.core.supervision import RetryPolicy
    from repro.faults import DEFAULT_PLAN, ChaosWorkload, FaultPlan, run_differential

    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    else:
        plan = DEFAULT_PLAN
    schemes = (
        [s.strip() for s in args.schemes.split(",") if s.strip()]
        if args.schemes
        else scheme_names()
    )
    workload = ChaosWorkload(
        n_timers=args.timers, horizon=args.horizon, seed=args.seed
    )
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        base_backoff=args.base_backoff,
        jitter=args.jitter,
        seed=plan.seed,
    )
    if args.kill_at is not None or args.journal:
        return _chaos_durable(args, plan, workload, policy, schemes)
    report = run_differential(
        plan=plan,
        schemes=schemes,
        workload=workload,
        retry_policy=policy,
        tick_budget=args.budget,
        overload_policy=args.overload,
    )
    sharded_results: list = []
    sharded_divergences: list = []
    skipped_backends: list = []
    if args.shards:
        from repro.faults.chaos import BUDGET_DEPENDENT, run_chaos
        from repro.sharding.backends import BACKEND_NAMES, backend_availability

        if args.backend == "all":
            availability = backend_availability()
            backends = [n for n in BACKEND_NAMES if availability[n][0]]
            skipped_backends = [
                (n, availability[n][1])
                for n in BACKEND_NAMES
                if not availability[n][0]
            ]
        else:
            backends = [b.strip() for b in args.backend.split(",") if b.strip()]
        reference_fp = report.reference.fingerprint()
        for backend in backends:
            sharded_result = run_chaos(
                schemes[0],
                plan=plan,
                workload=workload,
                retry_policy=policy,
                tick_budget=args.budget,
                overload_policy=args.overload,
                shards=args.shards,
                backend=backend,
            )
            sharded_results.append(sharded_result)
            sharded_fp = sharded_result.fingerprint()
            diverging = [
                key
                for key in reference_fp
                if sharded_fp[key] != reference_fp[key]
                # With a finite budget the per-shard budgets legitimately
                # shed differently; mirror run_differential's exclusions.
                and not (args.budget is not None and key in BUDGET_DEPENDENT)
            ]
            if diverging:
                sharded_divergences.append((sharded_result.scheme, diverging))
    print("fault plan: " + "; ".join(plan.describe()))
    print(
        f"workload  : {args.timers} timers over {args.horizon} steps "
        f"(seed {args.seed}); retry max_attempts={args.max_attempts}"
        + (f"; tick budget {args.budget} ({args.overload})" if args.budget else "")
    )
    rows = [r.summary_row() for r in report.results]
    rows.extend(r.summary_row() for r in sharded_results)
    print(
        render_table(
            [
                "scheme",
                "survivors",
                "quarantined",
                "retries",
                "shed",
                "stopped",
                "clock_jumps",
                "inj_failures",
            ],
            rows,
        )
    )
    for name, reason in skipped_backends:
        print(f"backend {name} skipped: {reason}", file=sys.stderr)
    if args.json:
        payload = {
            "plan": plan.to_dict(),
            "identical": report.identical,
            "divergences": report.divergences,
            "results": [
                {"scheme": r.scheme, **r.fingerprint()}
                for r in report.results + sharded_results
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=list)
        print(f"wrote fingerprints to {args.json}", file=sys.stderr)
    if report.identical and not sharded_divergences:
        configs = len(report.results) + len(sharded_results)
        print(
            f"OK: {configs} configurations agree on the surviving-expiry "
            "sequence and all fault counters"
        )
        return 0
    print("DIVERGENCE:", file=sys.stderr)
    for scheme, fields in report.divergences.items():
        print(
            f"  {scheme} differs from {report.reference.scheme} "
            f"in: {', '.join(fields)}",
            file=sys.stderr,
        )
    for label, fields in sharded_divergences:
        print(
            f"  {label} differs from "
            f"{report.reference.scheme} in: {', '.join(fields)}",
            file=sys.stderr,
        )
    return 1


def _chaos_durable(args, plan, workload, policy, schemes) -> int:
    """``chaos --kill-at SEQ [--journal DIR]``: the crash-recovery oracle.

    Runs the plan durably on one scheme, kills the service at the given
    journal sequence number, recovers from disk, and requires the
    recovered fingerprint to be bit-identical to an uninterrupted run.
    """
    from repro.faults.chaos import DurableSpec, run_chaos

    scheme = schemes[0] if args.schemes else "scheme6"
    reference = run_chaos(
        scheme, plan=plan, workload=workload, retry_policy=policy
    )
    result = run_chaos(
        scheme,
        plan=plan,
        workload=workload,
        retry_policy=policy,
        durable=DurableSpec(
            sync=args.sync,
            kill_at_seq=args.kill_at,
            crash_mode=args.crash_mode,
            journal_dir=args.journal,
        ),
    )
    run = result.durable
    print(f"scheme    : {scheme} (sync={args.sync})")
    print("fault plan: " + "; ".join(plan.describe()))
    if run.crashed:
        print(
            f"crash     : killed at journal seq {run.crash.at_seq} "
            f"({run.crash.mode}); recovered from "
            f"{run.journal_dir or 'a temp directory'}"
        )
        for line in run.recovery.describe():
            print("  " + line)
    else:
        print(
            "crash     : none "
            + (
                f"(seq {run.crash.at_seq} never reached; "
                f"{run.records_appended} records appended)"
                if run.crash is not None
                else "(no kill point configured)"
            )
        )
    print(
        f"journal   : {run.records_appended} records, {run.fsyncs} fsyncs, "
        f"{run.snapshots_kept} snapshots kept"
    )
    if result.fingerprint() == reference.fingerprint():
        print(
            "OK: recovered fingerprint is bit-identical to the "
            "uninterrupted run"
        )
        return 0
    print("DIVERGENCE:", file=sys.stderr)
    reference_fp = reference.fingerprint()
    for key, value in result.fingerprint().items():
        if value != reference_fp[key]:
            print(
                f"  {key}: recovered {value!r} != uninterrupted "
                f"{reference_fp[key]!r}",
                file=sys.stderr,
            )
    return 1


def _cmd_recover(args: argparse.Namespace) -> int:
    """``recover DIR``: inspect a durable service directory offline.

    Reduces the newest valid snapshot plus the journal tail — without
    constructing a scheduler or invoking any callbacks — and prints what
    a recovery would rebuild, including journal integrity findings.
    """
    from pathlib import Path

    from repro.durability.journal import JournalCorruptionError, read_journal
    from repro.durability.service import JOURNAL_NAME
    from repro.durability.snapshot import load_latest_snapshot
    from repro.durability.state import DurableState

    directory = Path(args.directory)
    journal_path = directory / JOURNAL_NAME
    if not journal_path.exists() and load_latest_snapshot(directory) is None:
        print(f"no journal or snapshot found in {directory}", file=sys.stderr)
        return 1
    loaded = load_latest_snapshot(directory)
    if loaded is not None:
        state = DurableState.from_dict(loaded.state)
        start_after, offset = loaded.seq, loaded.journal_offset
        print(f"snapshot  : seq {loaded.seq} ({loaded.path.name})")
        for name, reason in loaded.rejected:
            print(f"  rejected {name}: {reason}")
    else:
        state = DurableState()
        start_after, offset = 0, None
        print("snapshot  : none (full journal replay)")
    try:
        read = read_journal(journal_path, start_after=start_after, offset=offset)
        for seq, op, data in read.records:
            state.apply(seq, op, data)
    except JournalCorruptionError as exc:
        print(f"CORRUPT: {exc}", file=sys.stderr)
        return 1
    print(
        f"journal   : {len(read.records)} tail records replayed "
        f"(through seq {read.last_seq})"
    )
    for lineno, reason in read.skipped:
        print(f"  skipped tail line {lineno}: {reason}")
    print(
        f"clock     : now={state.now} wall={state.wall} "
        f"jumps={state.clock_jumps} syncs={state.syncs}"
    )
    print(
        f"state     : {len(state.pending)} pending, "
        f"{len(state.survivors)} survivors, "
        f"{len(state.quarantine)} quarantined, "
        f"{len(state.stopped)} stopped"
    )
    counters = {k: v for k, v in state.counters.items() if v}
    if counters:
        print(
            "counters  : "
            + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    for key, entry in list(state.pending.items())[: args.limit]:
        print(
            f"  pending {key}: due {entry['due']} "
            f"(deadline {entry['deadline']}, attempts {entry['attempts']})"
        )
    if len(state.pending) > args.limit:
        print(f"  ... and {len(state.pending) - args.limit} more")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Hashed and hierarchical timing wheels — reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sch = sub.add_parser("schemes", help="list registered timer schemes")
    p_sch.add_argument(
        "--markdown", action="store_true",
        help="emit the GitHub table embedded in README.md",
    )

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("ids", nargs="*", metavar="ID")
    p_exp.add_argument("--fast", action="store_true")
    p_exp.add_argument(
        "--json", metavar="FILE", help="also export results as JSON"
    )

    p_scn = sub.add_parser("scenario", help="run a named workload scenario")
    p_scn.add_argument("name")
    p_scn.add_argument("--scheme", default="scheme6")
    p_scn.add_argument("--ticks", type=int, default=6000)
    p_scn.add_argument("--seed", type=int, default=0)

    p_sts = sub.add_parser(
        "stats", help="run a scenario and print an observability snapshot"
    )
    p_sts.add_argument("--scenario", required=True)
    p_sts.add_argument("--scheme", default="scheme6")
    p_sts.add_argument("--ticks", type=int, default=6000)
    p_sts.add_argument("--seed", type=int, default=0)
    p_sts.add_argument(
        "--format", choices=["table", "json", "prometheus"], default="table"
    )

    p_trc = sub.add_parser(
        "trace", help="run a scenario and emit lifecycle events as JSONL"
    )
    p_trc.add_argument("--scenario", required=True)
    p_trc.add_argument("--scheme", default="scheme6")
    p_trc.add_argument("--ticks", type=int, default=2000)
    p_trc.add_argument("--seed", type=int, default=0)
    p_trc.add_argument(
        "--capacity", type=int, default=65536,
        help="ring-buffer size; oldest events are dropped beyond this",
    )
    p_trc.add_argument(
        "--all-ticks", action="store_true",
        help="record tick events even when nothing expired",
    )
    p_trc.add_argument("--out", help="write JSONL here instead of stdout")
    p_trc.add_argument(
        "--request-id", metavar="ID",
        help="only events for this timer (supervision re-arms included)",
    )
    p_trc.add_argument(
        "--event", action="append", metavar="TYPE", default=None,
        help="only events of this type (repeatable); one of: "
        "start stop expire tick migrate callback_error retry "
        "quarantine shed clock_jump",
    )
    p_trc.add_argument(
        "--spans-out", metavar="FILE",
        help="also assemble end-to-end spans and write them here as JSONL",
    )

    p_rpl = sub.add_parser("replay", help="replay a recorded timer trace")
    p_rpl.add_argument("tracefile")
    p_rpl.add_argument("--scheme", default="scheme6")
    p_rpl.add_argument("--show-schedule", action="store_true")

    p_rec = sub.add_parser("recommend", help="rank configurations for a workload")
    p_rec.add_argument("--rate", type=float, default=2.0)
    p_rec.add_argument("--mean-interval", type=float, default=500.0)
    p_rec.add_argument(
        "--dist", choices=["exponential", "uniform"], default="exponential"
    )
    p_rec.add_argument("--stop-fraction", type=float, default=0.5)
    p_rec.add_argument("--memory", type=int, default=4096)

    p_srv = sub.add_parser(
        "serve", help="run a live asyncio timer service demo"
    )
    p_srv.add_argument("--scheme", default="scheme6")
    p_srv.add_argument("--timers", type=int, default=12)
    p_srv.add_argument(
        "--tick", type=float, default=0.005,
        help="wall seconds per wheel tick",
    )
    p_srv.add_argument(
        "--horizon", type=int, default=200,
        help="demo length in ticks (deadlines land inside it)",
    )
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument(
        "--max-pending", type=int, default=None,
        help="backpressure bound on outstanding timers",
    )
    p_srv.add_argument(
        "--quiet", action="store_true", help="suppress per-expiry lines"
    )
    p_srv.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics + /introspect on this port during the demo "
        "(0 picks a free port, printed to stderr)",
    )

    p_top = sub.add_parser(
        "top", help="poll a live telemetry endpoint and render a summary"
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument(
        "--port", type=int, default=None,
        help="telemetry endpoint port (see serve --metrics-port)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between frames",
    )
    p_top.add_argument(
        "--frames", type=int, default=None,
        help="stop after this many frames (default: run until ^C)",
    )
    p_top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    p_top.add_argument(
        "--demo", action="store_true",
        help="spin up an in-process service + endpoint and poll it over "
        "loopback HTTP",
    )

    p_cha = sub.add_parser(
        "chaos",
        help="replay one fault plan across schemes; fail on divergence",
    )
    p_cha.add_argument(
        "--schemes",
        help="comma-separated registry names (default: every scheme)",
    )
    p_cha.add_argument(
        "--plan", metavar="FILE", help="fault plan JSON (default: built-in plan)"
    )
    p_cha.add_argument("--timers", type=int, default=40)
    p_cha.add_argument("--horizon", type=int, default=600)
    p_cha.add_argument("--seed", type=int, default=1, help="workload seed")
    p_cha.add_argument("--max-attempts", type=int, default=3)
    p_cha.add_argument("--base-backoff", type=int, default=1)
    p_cha.add_argument("--jitter", type=float, default=0.0)
    p_cha.add_argument(
        "--budget", type=int, default=None,
        help="per-tick expiry cost budget (enables overload shedding)",
    )
    p_cha.add_argument(
        "--overload", choices=["defer", "drop", "degrade"], default="defer"
    )
    p_cha.add_argument("--json", metavar="FILE", help="write fingerprints here")
    p_cha.add_argument(
        "--shards", type=int, default=None,
        help="also run the plan through an N-shard service over the first "
        "scheme and require its fingerprint to match",
    )
    p_cha.add_argument(
        "--backend", default="inprocess",
        help="execution backend(s) for the --shards run: a backend name, "
        "a comma-separated list, or 'all' for every backend this host "
        "can run (default: inprocess; see docs/backends.md)",
    )
    p_cha.add_argument(
        "--kill-at", type=int, default=None, metavar="SEQ",
        help="run durably and kill the service at this journal sequence "
        "number, then recover and compare against an uninterrupted run",
    )
    p_cha.add_argument(
        "--crash-mode",
        choices=["before", "torn", "corrupt", "after"],
        default="after",
        help="state the kill leaves the journal tail in (with --kill-at)",
    )
    p_cha.add_argument(
        "--journal", metavar="DIR",
        help="durable service directory (default: a temp directory); "
        "implies the durable single-scheme run",
    )
    p_cha.add_argument(
        "--sync", choices=["always", "batch", "never"], default="batch",
        help="journal fsync discipline for the durable run",
    )

    p_rcv = sub.add_parser(
        "recover",
        help="inspect a durable service directory (snapshot + journal tail)",
    )
    p_rcv.add_argument("directory", metavar="DIR")
    p_rcv.add_argument(
        "--limit", type=int, default=10,
        help="pending timers to list in detail (default 10)",
    )

    return parser


_HANDLERS = {
    "schemes": _cmd_schemes,
    "experiments": _cmd_experiments,
    "scenario": _cmd_scenario,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "replay": _cmd_replay,
    "recommend": _cmd_recommend,
    "serve": _cmd_serve,
    "top": _cmd_top,
    "chaos": _cmd_chaos,
    "recover": _cmd_recover,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
