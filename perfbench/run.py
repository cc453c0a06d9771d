"""Run one workload of the timer-service benchmark and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rearm --seed 1 --seconds 10 --trace 0

Workloads: ``rearm`` and ``expire`` (listed in BENCHMARK.json), and
``mp_batch``, run by hand (see perfbench/NOTES.md).
Inputs are generated from ``--seed``; the timed steps of a run take at
least ``--seconds`` in total. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run (spans are
written under ``perfbench/out/``).

Output: a JSON line with the host (``env``) and the run's checks
(``info``), then, as the last line, ``{"correct", "attempted",
"failed", "metrics"}``. The exit code is 0 only when every shadow-model
check passed and no client call raised.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from timerbench import measure, workloads

    if args.workload not in workloads.MAKERS:
        known = ", ".join(sorted(workloads.MAKERS))
        print(f"error: unknown workload {args.workload!r} ({known})", file=sys.stderr)
        return 2
    out = HERE / "out"
    run = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out
    )
    problems = workloads.checks(run)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = workloads.per_layer(run)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        kept = run.tracer.write_spans(spans)
    else:
        metrics = workloads.end_to_end(run)
        spans, kept = None, 0
    if set(metrics) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    info = {
        "env": measure.env_block(ROOT, args.seed, args.workload),
        "info": {
            "params": run.schedule.params,
            "episodes": {
                "untraced": run.untraced.episodes,
                "traced": run.traced.episodes,
            },
            "timed_s": round(run.untraced.timed_s + run.traced.timed_s, 3),
            "samples": {op: len(v) for op, v in run.untraced.latency.items()},
            "windows": len(run.untraced.windows.rates),
            "fingerprint": run.fingerprints[0] if run.fingerprints else None,
            "fingerprints_equal": len(set(run.fingerprints)) == 1,
            "ops_failed_frac": run.failed / max(run.attempted, 1),
            "spans_written": kept,
            "spans_file": str(spans.relative_to(ROOT)) if spans else None,
            "problems": problems[:20],
        },
    }
    print(json.dumps(info))
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
