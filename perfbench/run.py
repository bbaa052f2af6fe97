"""Benchmark of treea1's verification jobs: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; nothing
needs installing.  With ``--trace 0`` the run is timed with tracing off and
prints the end-to-end metrics; with ``--trace 1`` it runs one round of the
workload with spans around every public function, replays each weight
through the public calls, and prints the per-layer metrics.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the provenance and each
metric by name and unit.

``--record-digests`` runs the first rounds of every workload at the default seed and
rewrites ``digests.json``; do this only on a commit whose data files are
known to be right.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import tracing
    import workloads
except ImportError as exc:  # no package to measure: fail without printing a result
    sys.exit(f"error: cannot import the treea1 package from {ROOT / 'src'}: {exc}")
SETUP_PROBES = 7  # fresh processes timed per run for setup_s
MIN_ROUNDS = 4  # a timed run's first rounds: their inputs are fixed per seed, so sharpness is too
OUT_DIR = HERE / "out"


def clamp_threads(requested: int) -> int:
    """Never hand the program more workers than this machine has cores."""
    return max(1, min(requested, os.cpu_count() or 1))


def check_shapes(workload, max_leaves: int) -> None:
    """Refuse a workload whose shapes exceed the leaf cap, before anything starts."""
    for k, m in workload.shapes:
        if k**m > max_leaves:
            raise ValueError(f"{workload.name}: shape k={k} m={m} has {k**m} leaves, above the cap of {max_leaves}")


def provenance(seed: int) -> dict:
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def percentile(samples: list[float], p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def latency_samples(wl, calls: list, rep_of: list[int], scale_of: list[float]) -> list[float]:
    """Latency samples in reference-speed ms: one per call, or one per round
    where a round's calls are jobs of different shapes that together make the
    user's job."""
    if not wl.latency_per_round:
        return [c.ns * f / 1e6 for c, f in zip(calls, scale_of) if c.latency]
    per_round: dict[int, float] = {}
    for call, rep, f in zip(calls, rep_of, scale_of):
        if call.latency:
            per_round[rep] = per_round.get(rep, 0) + call.ns * f
    return [ns / 1e6 for ns in per_round.values()]


def _guarded(call_fn):
    """Run one call; an exception becomes a failed call instead of ending the run."""
    try:
        return call_fn()
    except Exception:  # the benchmark keeps measuring and scores the call as failed
        traceback.print_exc()
        return None


def _score(wl, seed: int, calls: list, rep_of: list[int], digests: dict) -> int:
    """Apply the digest check to every call; returns the number of failed calls."""
    failed = 0
    for call, rep in zip(calls, rep_of):
        for fname, got in call.digests.items():
            key = f"{wl.name}/{call.label}/{fname}"
            want = digests.get(key)
            if want is None and seed == workloads.DEFAULT_SEED and rep < MIN_ROUNDS:
                call.failures.append(f"{key}: no digest recorded")
            elif want is not None and seed == workloads.DEFAULT_SEED and got != want:
                call.failures.append(f"{key}: sha256 differs from the recorded digest")
        if call.failures:
            failed += 1
            for failure in call.failures[:5]:
                print(f"FAILED {call.label}: {failure}", file=sys.stderr)
    return failed


def _rounds(wl, ctx, seconds: float, calibrate: bool = False, min_rounds: int = 1):
    """Run rounds until ``seconds`` have passed and ``min_rounds`` are done.

    Returns the calls, the round of each call, the speed scale of each call
    and the wall ns.  Without ``calibrate`` every scale is 1; with it, the
    speed loop (see speed.py) is timed before the first step and after every
    step, and each step's calls are scaled to the reference speed by the two
    loop times around the step.

    Each call's data files are digested at once; only round 0 keeps the
    files and rows themselves, so memory does not grow with the round count.
    """
    calls, rep_of, scale_of = [], [], []
    before = speed.bracket_ns() if calibrate else 0.0
    start = time.perf_counter_ns()
    rep = 0
    while rep < min_rounds or time.perf_counter_ns() - start < seconds * 1e9:
        workloads.reset_caches()
        for step in wl.steps(ctx, rep):
            got = _guarded(step) or workloads.Call(f"round {rep}", 0, 0, False, failures=["step raised"])
            got = got if isinstance(got, list) else [got]
            scale = 1.0
            if calibrate:
                after = speed.bracket_ns()
                scale, before = 2 * speed.SPEED_REF_NS / (before + after), after
            for call in got:
                call.digests = {name: workloads.digest(data) for name, data in call.outputs.items()}
                if rep:
                    call.outputs, call.rows = {}, []
            calls += got
            rep_of += [rep] * len(got)
            scale_of += [scale] * len(got)
        rep += 1
    return calls, rep_of, scale_of, time.perf_counter_ns() - start


def _setup(wl, seed: int, threads: int, workdir: Path, tracer):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = workloads.Context(seed, threads, workdir, tracer)
    wl.setup(ctx)
    return ctx


# A bare interpreter that imports the standard-library modules treea1 and
# this benchmark use: the reference start-up that scales setup_s.
REFERENCE_STARTUP = "import argparse, csv, dataclasses, fractions, functools, hashlib, itertools, json, random"
REFERENCE_STARTUP_S = 0.1  # about its typical time on the host the benchmark was tuned on


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to inputs ready, for fresh processes, at the reference start-up speed.

    Each probe prints the CLOCK_MONOTONIC time at which its set-up ended; the
    clock is system-wide, so the parent's reading before the spawn is the
    start.  Start-up follows the host's slow spells less than the speed loop
    does (1.4x against 1.85x here), so instead each probe is scaled by a
    stdlib-only start-up timed just before it: over 20 pairs that took the
    spread from 30 % to 11 %.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        subprocess.run([sys.executable, "-c", REFERENCE_STARTUP], check=True, timeout=120)
        middle = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                               "--setup-only"], check=True, timeout=120, cwd=ROOT, capture_output=True, text=True)
        samples.append((int(done.stdout) - middle) / (middle - start) * REFERENCE_STARTUP_S)
    return samples


def _golden_round(wl, seed: int, workdir: Path, digests: dict) -> tuple[int, int]:
    """At any seed but the default, also run round 0 at the default seed, untimed.

    Its data files have recorded digests, so every run checks that they
    stay byte-identical.  Returns the calls attempted and failed.
    """
    if seed == workloads.DEFAULT_SEED:
        return 0, 0
    try:
        ctx = _setup(wl, workloads.DEFAULT_SEED, clamp_threads(wl.threads), workdir, tracing.NullTracer())
        calls, rep_of, _, _ = _rounds(wl, ctx, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return len(calls), _score(wl, workloads.DEFAULT_SEED, calls, rep_of, digests)


def timed_run(wl, seed: int, seconds: float, workdir: Path, digests: dict) -> dict:
    golden_attempted, golden_failed = _golden_round(wl, seed, workdir.with_name(workdir.name + "-golden"), digests)
    ctx = _setup(wl, seed, clamp_threads(wl.threads), workdir, tracing.NullTracer())
    calls, rep_of, scale_of, _ = _rounds(wl, ctx, seconds, calibrate=True, min_rounds=MIN_ROUNDS)
    failed = _score(wl, seed, calls, rep_of, digests) + golden_failed
    attempted = len(calls) + golden_attempted
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = _setup_seconds(wl.name, seed)

    work: dict[int, tuple[int, float]] = {}  # round -> (units, reference-speed ns)
    for call, rep, f in zip(calls, rep_of, scale_of):
        if call.units:
            units, ns = work.get(rep, (0, 0.0))
            work[rep] = (units + call.units, ns + call.ns * f)
    rates = [units / (ns / 1e9) for units, ns in work.values()]
    latency_ms = latency_samples(wl, calls, rep_of, scale_of)
    sharp = [s for c, r in zip(calls, rep_of) if r < MIN_ROUNDS for s in c.sharpness]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "throughput": (statistics.median(rates), "1/s", len(rates)),
        "latency_ms_p50": (percentile(latency_ms, 50), "ms", len(latency_ms)),
        "latency_ms_p90": (percentile(latency_ms, 90), "ms", len(latency_ms)),
        "sharpness": (float(sum(sharp) / len(sharp)) if sharp else 0.0, "ratio", len(sharp)),
        "peak_rss_mb": (peak_kb / 1024, "MB", 1),
        "passed_ratio": (1 - failed / attempted, "ratio", attempted),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "host_scale": statistics.median(scale_of)}


def traced_run(wl, seed: int, seconds: float, workdir: Path, digests: dict) -> dict:
    """One round untraced, the same round traced, then a traced replay of every weight."""
    golden_attempted, golden_failed = _golden_round(wl, seed, workdir.with_name(workdir.name + "-golden"), digests)
    null = tracing.NullTracer()
    ctx = _setup(wl, seed, 1, workdir, null)
    reference, rep_of, _, wall_single = _rounds(wl, ctx, 0)
    calls = list(reference)

    threads = clamp_threads(wl.threads)
    parallel_efficiency = children_cpu_s = 0.0
    if threads > 1:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        ctx.threads = threads
        pooled, _, _, wall_pooled = _rounds(wl, ctx, 0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        ctx.threads = 1
        children_cpu_s = max(0.0, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        parallel_efficiency = wall_single / (threads * wall_pooled)
        _same_outputs(reference, pooled, f"--threads {threads}")
        calls += pooled

    tracer = tracing.Tracer()
    ctx.tracer = tracer
    with tracer:
        tracer.request = "job"
        traced, _, _, _ = _rounds(wl, ctx, 0)
        _same_outputs(reference, traced, "tracing on")
        calls += traced
        items = wl.replay_items(ctx, reference)
        replayed, wall_traced, leaves, nodes, pieces, replay_failed = _replay_all(items, tracer, seconds / 2)
    # the same weights again with tracing off: the difference is the tracing overhead
    _, wall_plain, _, _, _, plain_failed = _replay_all(items[:replayed], null, None)
    failed = _score(wl, seed, calls, rep_of + [0] * (len(calls) - len(rep_of)), digests)
    failed += replay_failed + plain_failed + golden_failed
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.jsonl")

    totals = tracer.totals()

    def ms(name):
        return totals.get(name, (0, 0, 0))[1] / 1e6

    def count(name):
        return totals.get(name, (0, 0, 0))[0]

    metrics = {
        "tree.leaves": (leaves + sum(c.leaves for c in traced), "count"),
        "tree.nodes": (nodes + sum(c.nodes for c in traced), "count"),
    }
    for layer, names in tracing.TRACED.items():
        for fname in names:
            metrics[f"{layer}.{fname}.ms"] = (ms(f"{layer}.{fname}"), "ms")
            metrics[f"{layer}.{fname}.calls"] = (count(f"{layer}.{fname}"), "count")
    metrics["rearrangement.pieces"] = (pieces, "count")
    metrics["verify.parallel_efficiency"] = (parallel_efficiency, "ratio")
    metrics["verify.children_cpu_s"] = (children_cpu_s, "s")
    moves = sum(c.moves for c in traced)
    metrics["search.move_us"] = (ms("search.hill_climb") * 1e3 / moves if moves else 0.0, "us")
    metrics["search.improvements"] = (sum(c.improvements for c in traced), "count")
    for command in ("verify", "inspect", "search"):
        metrics[f"cli.{command}.ms"] = (ms(f"cli.{command}"), "ms")
    metrics["cli.overhead_ms"] = (sum(v[2] for k, v in totals.items() if k.startswith("cli.")) / 1e6, "ms")
    metrics["cli.bytes_written"] = (sum(c.bytes_written for c in traced), "bytes")
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain - 1, "ratio")
    metrics = {name: (value, unit, None) for name, (value, unit) in metrics.items()}
    return {"attempted": len(calls) + 2 * replayed + golden_attempted, "failed": failed, "metrics": metrics}


def _replay_all(items: list, tracer, budget_s: float | None):
    """Replay weights from a cold cache until the budget is spent (at least one).

    Returns the count replayed, wall ns, leaves, nodes, pieces and failed replays.
    """
    workloads.reset_caches()
    done = wall = leaves = nodes = pieces = failed = 0
    for item in items:
        start = time.perf_counter_ns()
        got = _guarded(lambda: workloads.replay(item, tracer))
        wall += time.perf_counter_ns() - start
        failures, n_leaves, n_nodes, n_pieces = got or ([f"replay {item.request} raised"], 0, 0, 0)
        done, leaves, nodes, pieces = done + 1, leaves + n_leaves, nodes + n_nodes, pieces + n_pieces
        if failures:
            failed += 1
            for failure in failures[:5]:
                print(f"FAILED {failure}", file=sys.stderr)
        if budget_s is not None and wall > budget_s * 1e9:
            break
    return done, wall, leaves, nodes, pieces, failed


def _same_outputs(reference: list, other: list, what: str) -> None:
    for ref, call in zip(reference, other):
        if call.digests != ref.digests:
            call.failures.append(f"data files differ with {what}")


def record_digests() -> None:
    digests = {}
    for wl in workloads.WORKLOADS.values():
        workdir = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
        ctx = _setup(wl, workloads.DEFAULT_SEED, clamp_threads(wl.threads), workdir, tracing.NullTracer())
        calls, _, _, _ = _rounds(wl, ctx, 0, min_rounds=MIN_ROUNDS)
        for call in calls:
            if call.failures:
                raise SystemExit(f"{wl.name} {call.label}: {call.failures}")
            for fname, value in call.digests.items():
                digests[f"{wl.name}/{call.label}/{fname}"] = value
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")

    if args.record_digests:
        record_digests()
        return 0
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    try:
        check_shapes(wl, workloads.MAX_LEAVES)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    try:
        if args.setup_only:
            _setup(wl, args.seed, clamp_threads(wl.threads), workdir, tracing.NullTracer())
            print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
            return 0
        digests = json.loads(workloads.DIGESTS_PATH.read_text()) if workloads.DIGESTS_PATH.exists() else {}
        run = traced_run if args.trace else timed_run
        result = run(wl, args.seed, args.seconds, workdir, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance(args.seed)
    if "host_scale" in result:
        info["host_scale"] = result["host_scale"]
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit, samples) in result["metrics"].items():
        note = f"  (samples={samples})" if samples is not None else ""
        print(f"{wl.name:18s} {name:44s} {value:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
