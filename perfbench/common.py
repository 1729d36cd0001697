"""Shared plumbing of the benchmark: results, statistics and tracing.

Nothing here imports the program; the workload modules do, after
``run.py`` has pinned the thread counts and put ``src/`` on the path.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

#: every thread pool the program's processes could start is pinned to one
#: thread, so no more threads are busy than the host has cores (2 here):
#: the daemon's process and the client process in ``serve_mix``, one
#: process otherwise.  A fixed hash seed makes every process lay out its
#: dicts and sets the same way.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_WORKERS": "1",
    "PYTHONHASHSEED": "0",
}

#: an untraced run measures ``SEGMENTS`` fresh program processes for a
#: third of ``--seconds`` each, so one process's memory placement or one
#: quiet minute on the host weighs a third, and set-up is timed 3 times.
SEGMENTS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; every traced run reports all of them, with 0
#: for a layer its workload never enters.
PER_LAYER_UNITS = {
    "serve.protocol.encode_ms": "ms",
    "serve.protocol.decode_ms": "ms",
    "serve.protocol.response_kb": "KB",
    "serve.protocol.request_kb": "KB",
    "serve.batcher.queue_wait_ms": "ms",
    "serve.batcher.requests_per_dispatch": "count",
    "api.scenario_resolve_ms": "ms",
    "engine.predict_fused_ms": "ms",
    "engine.trunk_cache_hit_ratio": "ratio",
    "fdm.farm.solve_many_ms": "ms",
    "fdm.krylov.iterations_per_block": "count",
    "fdm.krylov.operator_applies_per_block": "count",
    "fdm.krylov.operator_apply_ms": "ms",
    "fdm.krylov.block_pcg_ms": "ms",
    "fdm.krylov.deflation_dim": "count",
    "fdm.assembly.rhs_ms": "ms",
    "api.solve_overhead_ms": "ms",
    "power.grf_sample_ms": "ms",
    "core.sampler.batch_ms": "ms",
    "core.model.compute_loss_ms": "ms",
    "autodiff.grad_ms": "ms",
    "nn.optimizers.step_ms": "ms",
    "core.trainer.other_ms": "ms",
    "core.model.collocation_rows": "count",
    "api.compile_ms": "ms",
    "power.grf_factor_ms": "ms",
    "serve.daemon.warm_start_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


class Outcome:
    """Operation counts plus the run-level verdict of one process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        """Count one operation; a failed check fails the operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A run-level check, not tied to one operation."""
        if not ok:
            self.correct = False
            self.problems.append(what)


def emit(outcome: Outcome, metrics: Dict[str, float], units: Dict[str, str]
         ) -> None:
    """Print the result object as the last line of standard output."""
    for problem in outcome.problems:
        print(f"check failed: {problem}", flush=True)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }), flush=True)


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def mean(values, default: float = 0.0) -> float:
    """Arithmetic mean, or ``default`` for an empty sequence."""
    values = list(values)
    return float(sum(values) / len(values)) if values else default


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def derived_seed(seed: int, *path: int) -> int:
    """A reproducible 32-bit seed for one input stream of a run."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded around calls into the program.

    A span is ``[id, name, start, end, parent_id, request_id, attrs]``.
    The parent is the innermost open span on the same thread; the request
    id comes from :meth:`set_request`, also per thread.  Wrapping patches
    the attribute a caller resolves at call time (a module global, a
    class attribute) and :meth:`restore` puts every original back.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id) -> None:
        """Tag the spans this thread opens from now on."""
        self._local.request = request_id

    def begin(self, name: str, **attrs) -> list:
        """Open a span on this thread; close it with :meth:`end`."""
        stack = self._stack()
        with self._lock:
            self._next += 1
            span_id = self._next
        span = [span_id, name, time.perf_counter(), None,
                stack[-1][0] if stack else None,
                getattr(self._local, "request", None), attrs]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        """Close ``span`` (and keep it)."""
        span[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``before(span, args, kwargs)`` and ``after(span, result, args,
        kwargs)`` may add attributes or counts.
        """
        if isinstance(owner, type):
            holder = next(k for k in owner.__mro__ if attr in k.__dict__)
            original = holder.__dict__[attr]
            own = holder is owner
        else:
            original, own = getattr(owner, attr), True
        raw = original.__func__ if isinstance(original, classmethod) \
            else original
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            if before is not None:
                before(span, args, kwargs)
            try:
                result = raw(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        wrapper.__wrapped__ = raw
        patched = classmethod(wrapper) if isinstance(original, classmethod) \
            else wrapper
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[list]:
        """Closed spans called ``name``."""
        return [s for s in self.spans if s[1] == name]

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called ``name``, ms (0 if none)."""
        return mean((s[3] - s[2]) * 1e3 for s in self.by_name(name))

    def self_times(self) -> Dict[str, List[float]]:
        """name -> [count, total s, self s]; self excludes child cover."""
        children: Dict[int, List[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            start, end = span[2], span[3]
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(span[0], ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = table[span[1]]
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - covered
        return dict(table)

    def print_table(self, workload: str, wall: float) -> None:
        """The per-layer self-time table of this workload's traced phase."""
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        print(f"self time per layer, workload {workload}, traced phase "
              f"{wall:.2f} s")
        print(f"  {'span':<34}{'calls':>8}{'total s':>10}{'self s':>10}"
              f"{'self %':>8}")
        for name, (count, total, own) in rows:
            share = 100.0 * own / wall if wall > 0 else 0.0
            print(f"  {name:<34}{count:>8d}{total:>10.3f}{own:>10.3f}"
                  f"{share:>8.1f}")

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "request", "attrs")
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s[2]):
                out.write(json.dumps(dict(zip(keys, span)), default=str)
                          + "\n")


def pinned_env() -> Dict[str, str]:
    """The process environment with the benchmark's thread pins."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def segment_figures(outcome: Outcome, setup_s: float, durations: List[float],
                    wall: float, rss_mb: float) -> Dict:
    """The raw figures one timed process reports to its run."""
    return {"setup_s": setup_s, "durations": durations, "wall": wall,
            "rss_mb": rss_mb, "attempted": outcome.attempted,
            "failed": outcome.failed, "correct": outcome.correct,
            "problems": outcome.problems}


def emit_segments(segments: List[Dict]) -> None:
    """Aggregate the segments of an untraced run and print its result."""
    outcome = Outcome()
    for segment in segments:
        outcome.attempted += segment["attempted"]
        outcome.failed += segment["failed"]
        outcome.correct &= segment["correct"]
        outcome.problems += segment["problems"]
    durations = [d for segment in segments for d in segment["durations"]]
    emit(outcome, {
        "setup_s": median(s["setup_s"] for s in segments),
        "ops_per_s": len(durations) / sum(s["wall"] for s in segments),
        "latency_p50_ms": median(durations) * 1e3,
        "peak_rss_mb": median(s["rss_mb"] for s in segments),
    }, END_TO_END_UNITS)


def run_segments(workload: str, seed: int, seconds: float) -> None:
    """Run ``SEGMENTS`` fresh processes of ``workload`` and aggregate."""
    import subprocess
    import sys

    segments = []
    for index in range(SEGMENTS):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds / SEGMENTS), "--segment", str(index)],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
            timeout=170,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            raise RuntimeError(f"{workload} segment {index} exited "
                               f"{done.returncode}")
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[segment {index}] {line}", flush=True)
        segments.append(json.loads(lines[-1]))
    emit_segments(segments)


def finish_traced(workload: str, seed: int, tracer: Tracer, outcome: Outcome,
                  metrics: Dict[str, float], untraced: List[float],
                  traced: List[float], setup_spans=(),
                  concurrency: int = 1) -> None:
    """Dump the spans, print the self-time table and the overhead, emit.

    ``untraced`` and ``traced`` are the per-operation seconds of the two
    kinds of round, each run with ``concurrency`` operations in flight;
    the overhead is the traced rate's shortfall against the untraced.
    """
    tracer.dump(WORK / f"trace-{workload}-seed{seed}.jsonl")
    untraced_rate = concurrency * len(untraced) / sum(untraced)
    traced_rate = concurrency * len(traced) / sum(traced)
    metrics["bench.trace_overhead_pct"] = (untraced_rate / traced_rate
                                           - 1.0) * 100.0
    tracer.spans = [s for s in tracer.spans if s[1] not in setup_spans]
    tracer.print_table(workload, sum(traced) / concurrency)
    print(f"tracing overhead: ops_per_s untraced {untraced_rate:.3f} vs "
          f"traced {traced_rate:.3f} ({len(untraced)} vs {len(traced)} ops)",
          flush=True)
    emit(outcome, metrics, PER_LAYER_UNITS)
