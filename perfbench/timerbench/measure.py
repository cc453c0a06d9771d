"""Timing summaries, the host block and peak memory."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

#: Share of throughput windows (the fastest) that tail percentiles use.
STEADY_SHARE = 0.75


class Windows:
    """Throughput over fixed-size windows of client ops.

    A window closes at the first step boundary at which it holds at
    least ``size`` ops; its rate is ops over its own wall time. The
    median over windows is what the benchmark reports: a stall that
    slows a few windows moves it far less than total ops over total time.
    Each window also records which latency samples (per op kind) were
    taken inside it, as ``(first, end)`` index pairs into ``lists``.
    """

    def __init__(self, size: int, lists: Sequence[List[float]]) -> None:
        self.size = size
        self.rates: List[float] = []
        self.bounds: List[tuple] = []
        self._lists = list(lists)
        self._ops = 0
        self._start = 0.0
        self._first: tuple = ()

    def _marks(self) -> tuple:
        return tuple(len(samples) for samples in self._lists)

    def begin(self) -> None:
        """Open a window now (episode start); a partial one is dropped."""
        self._ops = 0
        self._start = perf_counter()
        self._first = self._marks()

    def add(self, ops: int) -> None:
        self._ops += ops
        if self._ops >= self.size:
            now = perf_counter()
            self.rates.append(self._ops / (now - self._start))
            end = self._marks()
            self.bounds.append((self._first, end))
            self._ops = 0
            self._start = now
            self._first = end

    def steady(
        self, keep: float = STEADY_SHARE
    ) -> Tuple[List[float], List[List[float]]]:
        """The fastest ``keep`` share of windows: their rates, and the
        latency samples taken inside them (one list per entry of
        ``lists``).

        On a shared host the whole machine slows for seconds at a time,
        and how much of a run that hits differs from run to run. A median
        shrugs that off; a tail percentile is set by it. Dropping the
        slowest windows keeps it out of the tails; anything that slows
        more than a quarter of the windows still shows.
        """
        if not self.rates:
            raise ValueError("no complete throughput window was measured")
        order = sorted(range(len(self.rates)), key=self.rates.__getitem__)
        kept = sorted(order[len(order) - max(1, round(keep * len(order))):])
        samples: List[List[float]] = [[] for _ in self._lists]
        for index in kept:
            first, end = self.bounds[index]
            for k, source in enumerate(self._lists):
                samples[k].extend(source[first[k]:end[k]])
        return [self.rates[i] for i in kept], samples


def windowed_median(rates: Sequence[float]) -> float:
    if not rates:
        raise ValueError("no complete throughput window was measured")
    return statistics.median(rates)


def p50(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return statistics.median(samples)


def p95(samples: Sequence[float]) -> float:
    """Nearest-rank 95th percentile, refused unless at least ten samples
    lie beyond it (so it is not just the few largest values)."""
    n = len(samples)
    rank = math.ceil(0.95 * n)
    if n - rank < 10:
        raise ValueError(
            f"p95 needs at least ten samples beyond it; have {n} samples"
        )
    return sorted(samples)[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (shard workers are children; ``getrusage`` reports their maximum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
            # a checkout that is not a repository must not pick up the
            # sha of some repository above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path + bytes): the
    program's identity when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_block(root: Path, seed: int, workload: str) -> Dict[str, object]:
    """The host a number was measured on."""
    try:
        cpus: Optional[int] = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": cpus,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root / "src"),
        "seed": seed,
        "workload": workload,
    }
