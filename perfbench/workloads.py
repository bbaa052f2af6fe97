"""The benchmark's five workloads and the checks on their outputs.

Every workload runs in rounds.  A round is a fixed list of calls into a
public entry point (``treea1.cli.main`` for CLI jobs, the library functions
for library jobs); its inputs depend only on the workload seed and the round
number.  Each call is timed with ``perf_counter_ns`` and then checked: the
exit code, the row count, every flag, every margin, and, at the default seed,
the sha256 of every data file against ``digests.json``.

Library functions are looked up on their modules at call time
(``verify.fuzz_campaign``), so the tracer's wrappers apply in a traced run.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from treea1 import cli, maximal, rearrangement, search, verify, weights
from treea1.errors import ParameterError, ViolationError
from treea1.tree import make_shape

FUZZ_GRID = "1,2,3,5,10,100"  # the grid of the acceptance fuzz fixture
MAX_LEAVES = 1024  # no workload shape may exceed this; checked before anything starts
DEFAULT_SEED = 0  # digests.json holds the data-file digests of the first rounds at this seed
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def derive(seed: int, *parts) -> int:
    """Deterministic sub-seed for one job of one round."""
    return random.Random(":".join(str(p) for p in (seed,) + parts)).randrange(2**31)


def node_count(k: int, m: int) -> int:
    return (k ** (m + 1) - 1) // (k - 1)


@dataclass
class Context:
    seed: int
    threads: int
    workdir: Path
    tracer: object
    inputs: dict = field(default_factory=dict)


@dataclass
class Call:
    """One timed call and what its checks found."""

    label: str
    ns: int
    units: int  # work units completed: weights, audited t, or hill-climb moves
    latency: bool  # counts towards the latency percentiles (see latency_per_round on the workloads)
    outputs: dict[str, bytes] = field(default_factory=dict)  # data files; only round 0 keeps them
    digests: dict[str, str] = field(default_factory=dict)  # sha256 of each output, filled in by the runner
    failures: list[str] = field(default_factory=list)
    sharpness: list[Fraction] = field(default_factory=list)  # sup_ratio / bound per weight
    rows: list[dict] = field(default_factory=list)  # per-weight results, for the traced replay
    leaves: int = 0
    nodes: int = 0
    bytes_written: int = 0
    moves: int = 0
    improvements: int = 0


@dataclass
class ReplayItem:
    """One weight to replay through the public calls, and the job's results for it."""

    request: str
    make: Callable[[], object]
    expected: dict
    checks: tuple[str, ...]
    audits: bool = False


def reset_caches() -> None:
    """Empty every functools cache in the package, as a fresh process would start.

    Rounds in one process can share weights with earlier rounds (the traced
    run repeats round 0), and a warm ``lru_cache`` would make them cheaper
    than the job a user runs.
    """
    for key, module in list(sys.modules.items()):
        if key == "treea1" or key.startswith("treea1."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def collect_outputs(outdir: Path, names) -> dict[str, bytes]:
    """Read the named data files a job wrote; a missing file reads as empty."""
    out = {}
    for name in names:
        path = outdir / name
        out[name] = path.read_bytes() if path.exists() else b""
    return out


def _fresh_dir(ctx: Context, label: str) -> Path:
    outdir = ctx.workdir / label.replace(" ", "_").replace("=", "")
    shutil.rmtree(outdir, ignore_errors=True)
    return outdir


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, int, bytes]:
    """Call ``treea1.cli.main`` in-process with stdout captured: (exit code, ns, stdout)."""
    buf = io.StringIO()
    start = time.perf_counter_ns()
    with ctx.tracer.span("cli." + argv[0]), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, time.perf_counter_ns() - start, buf.getvalue().encode()


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of failures; empty means the output passed.
# ---------------------------------------------------------------------------
REPORT_FLAGS = {
    "stopping": "stopping_consistent",
    "growth": "growth_bound_ok",
    "weak_type": "weak_type_ok",
    "decomposition": "decomposition_ok",
    "oracle": "oracle_match",
    "kadic": "kadic_ok",
}


def check_report(data: bytes, expected_rows: int, checks: tuple[str, ...]) -> tuple[list[str], list[dict]]:
    """Check a ``verify`` report.csv: row count, every flag, every margin."""
    failures: list[str] = []
    lines = data.decode("ascii", "replace").splitlines()
    if not lines or lines[0] != "# manifest: manifest.json":
        return ["report.csv: missing manifest line"], []
    rows = list(csv.DictReader(lines[1:]))
    if len(rows) != expected_rows:
        failures.append(f"report.csv: {len(rows)} rows, expected {expected_rows}")
    parsed = []
    for row in rows:
        try:
            margin = Fraction(row["margin"])
            record = {
                "weight_hash": row["weight_hash"],
                "c": Fraction(row["c"]),
                "bound": Fraction(row["bound"]),
                "sup_ratio": Fraction(row["sup_ratio"]),
                "margin": margin,
            }
        except (KeyError, ValueError, ZeroDivisionError, TypeError):
            failures.append(f"report.csv: unreadable row {row.get('trial')}")
            continue
        if margin < 0:
            failures.append(f"report.csv: negative margin in row {row['trial']}")
        if row.get("bound_holds") != "true":
            failures.append(f"report.csv: bound_holds not true in row {row['trial']}")
        for check, column in REPORT_FLAGS.items():
            want = "true" if check in checks else ""
            if row.get(column) != want:
                failures.append(f"report.csv: {column}={row.get(column)!r} in row {row['trial']}")
        parsed.append(record)
    return failures, parsed


def check_summary_rows(summary, expected_rows: int, checks: tuple[str, ...]) -> tuple[list[str], list[dict]]:
    """Check a library CampaignSummary the way check_report checks report.csv."""
    failures: list[str] = []
    if len(summary.rows) != expected_rows:
        failures.append(f"campaign: {len(summary.rows)} rows, expected {expected_rows}")
    parsed = []
    for row in summary.rows:
        if row.margin < 0 or row.bound_holds is not True:
            failures.append(f"campaign: bound fails in row {row.index}")
        for check, column in REPORT_FLAGS.items():
            if getattr(row, column) is not (True if check in checks else None):
                failures.append(f"campaign: {column}={getattr(row, column)!r} in row {row.index}")
        parsed.append(
            {"weight_hash": row.weight_hash, "c": row.c, "bound": row.bound,
             "sup_ratio": row.sup_ratio, "margin": row.margin}
        )
    return failures, parsed


def render_rows(rows: list[dict]) -> bytes:
    """Canonical text of library campaign rows, digested like a report file."""
    return "".join(
        f"{r['weight_hash']},{r['c']},{r['bound']},{r['sup_ratio']},{r['margin']}\n" for r in rows
    ).encode()


def check_inspect(data: bytes, t: Fraction) -> tuple[list[str], dict]:
    """Check ``inspect --t --json`` stdout: parses, audit at t, every audit check true."""
    try:
        payload = json.loads(data)
        audit = payload["audit"]
        got_t = Fraction(audit["t"])
        record = {"c": Fraction(payload["a1_constant"]), "bound": Fraction(payload["bound"]),
                  "sup_ratio": Fraction(payload["sup_ratio"])}
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return ["inspect: stdout is not the expected JSON"], {}
    failures = []
    if got_t != t:
        failures.append(f"inspect: audit at t={got_t}, asked for {t}")
    if audit.get("passed") is not True or not all(v is True for v in audit.get("checks", {}).values()):
        failures.append(f"inspect: audit at t={t} did not pass")
    return failures, record


def check_search(outputs: dict[str, bytes], moves: int) -> tuple[list[str], Fraction | None, int]:
    """Check ``search`` outputs; returns failures, exact objective and strict rises in the trace."""
    failures: list[str] = []
    lines = outputs["trace.csv"].decode("ascii", "replace").splitlines()
    try:
        trace = [float(line.split(",")[1]) for line in lines[2:]]
    except (IndexError, ValueError):
        return ["trace.csv: unreadable"], None, 0
    if len(trace) != moves:
        failures.append(f"trace.csv: {len(trace)} rows, expected {moves}")
    if any(b < a for a, b in zip(trace, trace[1:])):
        failures.append("trace.csv: best-so-far decreases")
    improvements = sum(1 for a, b in zip(trace, trace[1:]) if b > a)
    try:
        summary = json.loads(outputs["summary.json"])
        exact = Fraction(summary["exact_objective"])
        best = weights.weight_from_text(outputs["best_weight.txt"].decode("ascii"))
    except (ValueError, KeyError, TypeError, ZeroDivisionError, ParameterError):
        return failures + ["summary.json/best_weight.txt: unreadable"], None, improvements
    if summary.get("objective_at_most_one") is not True or exact > 1:
        failures.append("summary.json: objective above 1")
    if search.objective_exact(best) != exact:
        failures.append("best_weight.txt: objective differs from summary.json")
    return failures, exact, improvements


def check_audit_report(report, grain: int) -> list[str]:
    failures = []
    if not report.holds or report.margin < 0:
        failures.append("audit report: bound fails")
    if not all((report.stopping_consistent, report.growth_bound_ok, report.weak_type_ok,
                report.decomposition_ok)):
        failures.append("audit report: a property check failed")
    if report.audits is None or len(report.audits) != grain or not all(a.passed for a in report.audits):
        failures.append("audit report: an audit is missing or failed")
    return failures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def _verify_job(ctx: Context, label: str, argv: list[str], k: int, m: int, expected: int) -> Call:
    outdir = _fresh_dir(ctx, label)
    rc, ns, stdout = run_cli(ctx, argv + ["--threads", str(ctx.threads), "--out", str(outdir)])
    outputs = collect_outputs(outdir, ["report.csv"])
    failures, rows = check_report(outputs["report.csv"], expected, verify.ALL_CHECKS)
    if rc != 0:
        failures.insert(0, f"verify exited {rc}")
    return Call(label, ns, len(rows), True, outputs, failures,
                sharpness=[r["sup_ratio"] / r["bound"] for r in rows], rows=rows,
                leaves=len(rows) * k**m, nodes=len(rows) * node_count(k, m),
                bytes_written=sum(len(v) for v in outputs.values()) + len(stdout))


def _fuzz_items(rows: list[dict], k: int, m: int, seed: int, checks, prefix: str) -> list[ReplayItem]:
    # fuzz_campaign derives per-trial seeds from the campaign seed in this order
    shape, master = make_shape(k, m), random.Random(seed)
    grid = [Fraction(g) for g in FUZZ_GRID.split(",")]
    items = []
    for index, row in enumerate(rows):
        trial_seed = master.randrange(2**63)
        items.append(ReplayItem(f"{prefix}{index}",
                                lambda s=trial_seed: weights.random_weight(shape, s, grid), row, checks))
    return items


# A workload's round is a list of steps; the runner times a calibration loop
# before each step, so no step should run much longer than a second.


class VerifyExhaustive:
    name = "verify_exhaustive"
    shapes = ((2, 3),)
    threads = 2
    latency_per_round = True
    grid = "1,2"  # 2**8 = 256 weights per job

    def setup(self, ctx: Context) -> None:
        pass

    def steps(self, ctx: Context, rep: int) -> list:
        argv = ["verify", "--k", "2", "--depth", "3", "--grid", self.grid, "--exhaustive"]
        return [functools.partial(_verify_job, ctx, "exhaustive k=2 m=3", argv, 2, 3, 2**8)]

    def replay_items(self, ctx: Context, calls: list[Call]) -> list[ReplayItem]:
        shape = make_shape(2, 3)
        grid = [Fraction(g) for g in self.grid.split(",")]
        return [
            ReplayItem(f"w{index}", lambda v=values: weights.make_step_weight(shape, v), row, verify.ALL_CHECKS)
            for (index, values), row in zip(enumerate(itertools.product(grid, repeat=8)), calls[0].rows)
        ]


class VerifyFuzz:
    name = "verify_fuzz"
    shapes = ((3, 4), (2, 6))
    threads = 2
    latency_per_round = True
    trials = 8

    def setup(self, ctx: Context) -> None:
        pass

    def _seed(self, ctx, rep, k, m):
        return derive(ctx.seed, self.name, rep, k, m)

    def _job(self, ctx: Context, rep: int, k: int, m: int) -> Call:
        s = self._seed(ctx, rep, k, m)
        argv = ["verify", "--k", str(k), "--depth", str(m), "--trials", str(self.trials),
                "--seed", str(s), "--grid", FUZZ_GRID]
        return _verify_job(ctx, f"fuzz k={k} m={m} seed={s}", argv, k, m, self.trials)

    def steps(self, ctx: Context, rep: int) -> list:
        return [functools.partial(self._job, ctx, rep, k, m) for k, m in self.shapes]

    def replay_items(self, ctx: Context, calls: list[Call]) -> list[ReplayItem]:
        items = []
        for (k, m), call in zip(self.shapes, calls):
            items += _fuzz_items(call.rows, k, m, self._seed(ctx, 0, k, m), verify.ALL_CHECKS, f"k{k}m{m}w")
        return items


class BoundLarge:
    name = "bound_large"
    shapes = ((2, 10), (3, 6))
    threads = 1
    latency_per_round = True
    trials = 3
    checks = ("kadic",)

    def setup(self, ctx: Context) -> None:
        pass

    def _seed(self, ctx, rep, k, m):
        return derive(ctx.seed, self.name, rep, k, m)

    def _job(self, ctx: Context, rep: int, k: int, m: int) -> Call:
        s = self._seed(ctx, rep, k, m)
        label = f"campaign k={k} m={m} seed={s}"
        start = time.perf_counter_ns()
        try:
            summary = verify.fuzz_campaign(k, m, self.trials, s, FUZZ_GRID.split(","), checks=self.checks,
                                           threads=1)
        except (ParameterError, ViolationError) as exc:
            return Call(label, time.perf_counter_ns() - start, 0, True, failures=[f"campaign: {exc}"])
        ns = time.perf_counter_ns() - start
        failures, rows = check_summary_rows(summary, self.trials, self.checks)
        return Call(label, ns, len(rows), True, {"rows.txt": render_rows(rows)}, failures,
                    sharpness=[r["sup_ratio"] / r["bound"] for r in rows], rows=rows,
                    leaves=len(rows) * k**m, nodes=len(rows) * node_count(k, m))

    def steps(self, ctx: Context, rep: int) -> list:
        return [functools.partial(self._job, ctx, rep, k, m) for k, m in self.shapes]

    def replay_items(self, ctx: Context, calls: list[Call]) -> list[ReplayItem]:
        items = []
        for (k, m), call in zip(self.shapes, calls):
            items += _fuzz_items(call.rows, k, m, self._seed(ctx, 0, k, m), self.checks, f"k{k}m{m}w")
        return items


class AuditSweep:
    name = "audit_sweep"
    shapes = ((2, 8), (2, 7))
    # Full reports at k=2 m=8 take about 3 s, and the few that fit in a run
    # spread by 27 % between runs; at m=7 (256 audits, under 1 s) eight fit.
    report_shape = (2, 7)
    threads = 1
    latency_per_round = False
    inspects = 120  # distinct weight files, more than the package's 64-entry caches hold
    batch = 40  # inspect calls per round, taking the files in turn
    step = 5  # inspect calls per step: slow spells of the host last a few tenths of a second
    properties = ("stopping", "growth", "weak_type", "decomposition")

    def setup(self, ctx: Context) -> None:
        shape = make_shape(2, 8)
        grain = 2**9
        grid = FUZZ_GRID.split(",")
        folder = ctx.workdir / "inspect"
        folder.mkdir(parents=True, exist_ok=True)
        calls = []
        stride = grain // self.inspects
        for i in range(self.inspects):
            path = folder / f"w{i}.txt"
            w = weights.random_weight(shape, derive(ctx.seed, self.name, "inspect", i), grid)
            path.write_text(weights.weight_to_text(w))
            j = 1 + i * stride + derive(ctx.seed, self.name, "t", i) % stride
            calls.append((i, path, Fraction(j, grain)))
        ctx.inputs["inspect"] = calls

    def _weight(self, ctx, rep):
        return weights.random_weight(make_shape(*self.report_shape), derive(ctx.seed, self.name, "report", rep),
                                     FUZZ_GRID.split(","))

    def _report(self, ctx: Context, rep: int) -> Call:
        w = self._weight(ctx, rep)
        k, m = self.report_shape
        start = time.perf_counter_ns()
        report = verify.check_rearrangement_bound(w, properties=True, with_audits=True)
        ns = time.perf_counter_ns() - start
        row = {"c": report.c, "bound": report.bound, "sup_ratio": report.sup_ratio, "margin": report.margin}
        text = (f"{report.c},{report.bound},{report.sup_ratio},{report.margin},"
                + "".join("1" if a.passed else "0" for a in report.audits or ()) + "\n")
        return Call(f"report rep={rep}", ns, len(report.audits or ()), False, {"report.txt": text.encode()},
                    check_audit_report(report, k ** (m + 1)), rows=[row], leaves=k**m, nodes=node_count(k, m))

    def _inspect(self, ctx: Context, batch) -> list[Call]:
        calls = []
        for i, path, t in batch:
            rc, ns, stdout = run_cli(ctx, ["inspect", "--weight", str(path), "--t", str(t), "--json"])
            failures, record = check_inspect(stdout, t)
            if rc != 0:
                failures.insert(0, f"inspect exited {rc}")
            sharp = [record["sup_ratio"] / record["bound"]] if record else []
            calls.append(Call(f"inspect {i} t={t}", ns, 0, True, {"stdout.json": stdout}, failures,
                              sharpness=sharp, leaves=256, nodes=node_count(2, 8), bytes_written=len(stdout)))
        return calls

    def steps(self, ctx: Context, rep: int) -> list:
        first = rep * self.batch % self.inspects
        return [functools.partial(self._report, ctx, rep)] + [
            functools.partial(self._inspect, ctx, ctx.inputs["inspect"][i : i + self.step])
            for i in range(first, first + self.batch, self.step)
        ]

    def replay_items(self, ctx: Context, calls: list[Call]) -> list[ReplayItem]:
        return [ReplayItem("report0", lambda: self._weight(ctx, 0), calls[0].rows[0], self.properties, True)]


class SearchClimb:
    name = "search_climb"
    shapes = ((2, 6), (3, 4))
    threads = 1
    latency_per_round = True
    iters, restarts = 400, 2

    def setup(self, ctx: Context) -> None:
        pass

    def _job(self, ctx: Context, rep: int, k: int, m: int) -> Call:
        moves = self.iters * self.restarts
        s = derive(ctx.seed, self.name, rep, k, m)
        label = f"search k={k} m={m} seed={s}"
        outdir = _fresh_dir(ctx, label)
        rc, ns, stdout = run_cli(ctx, ["search", "--k", str(k), "--depth", str(m), "--iters", str(self.iters),
                                       "--restarts", str(self.restarts), "--seed", str(s), "--out", str(outdir)])
        outputs = collect_outputs(outdir, ["trace.csv", "best_weight.txt", "summary.json"])
        failures, exact, improvements = check_search(outputs, moves)
        if rc != 0:
            failures.insert(0, f"search exited {rc}")
        return Call(label, ns, moves, True, outputs, failures,
                    sharpness=[exact] if exact is not None else [],
                    rows=[{"objective": exact, "text": outputs["best_weight.txt"]}],
                    leaves=(moves + self.restarts) * k**m, nodes=(moves + self.restarts) * node_count(k, m),
                    bytes_written=sum(len(v) for v in outputs.values()) + len(stdout),
                    moves=moves, improvements=improvements)

    def steps(self, ctx: Context, rep: int) -> list:
        return [functools.partial(self._job, ctx, rep, k, m) for k, m in self.shapes]

    def replay_items(self, ctx: Context, calls: list[Call]) -> list[ReplayItem]:
        return [
            ReplayItem(f"best{i}", lambda t=call.rows[0]["text"]: weights.weight_from_text(t.decode("ascii")),
                       {"objective": call.rows[0]["objective"]}, ())
            for i, call in enumerate(calls)
        ]


WORKLOADS = {w.name: w for w in (VerifyExhaustive(), VerifyFuzz(), BoundLarge(), AuditSweep(), SearchClimb())}


# ---------------------------------------------------------------------------
# Replay: the public calls verify._examine makes, in its order
# ---------------------------------------------------------------------------
def replay(item: ReplayItem, tracer) -> tuple[list[str], int, int, int]:
    """Replay one weight; returns failures, leaves, nodes and rearrangement pieces."""
    tracer.request = item.request
    w = item.make()
    k, m = w.shape.k, w.shape.m
    c = maximal.a1_constant(w)
    bound = k * c - k + 1
    profile = rearrangement.rearrange(w)
    ratio, _ = rearrangement.sup_ratio(profile)
    ok = True
    for name in item.checks:
        if name == "stopping":
            ok &= verify.check_stopping_consistency(w)
        elif name == "growth":
            ok &= verify.check_growth_bound(w).ok
        elif name == "weak_type":
            ok &= all(verify.check_weak_type(w, lam) for lam in verify.average_thresholds(w))
        elif name == "decomposition":
            ok &= verify.check_decomposition(w)
        elif name == "oracle":
            ok &= verify.check_oracle_equality(w)
        elif name == "kadic":
            ok &= rearrangement.kadic_constant(profile, k, m) <= bound
    if item.audits:
        ok &= all(verify.audit_superlevel(w, t).passed for t in verify.audit_grid(w))
    digest = weights.weight_hash(w)
    got = {"c": c, "bound": bound, "sup_ratio": ratio, "margin": bound - ratio,
           "objective": ratio / bound, "weight_hash": digest}
    failures = [] if ok else [f"replay {item.request}: a check failed"]
    failures += [
        f"replay {item.request}: {key} {got[key]} differs from the job's {value}"
        for key, value in item.expected.items() if key in got and got[key] != value
    ]
    return failures, k**m, node_count(k, m), len(profile.pieces)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
