"""Command-line interface: verification campaigns, extremal sweeps, search, inspection.

Exit codes: 0 all checks passed, 1 a mathematical check failed (a
counterexample file is written), 2 usage or parameter error (a refused run
leaves no directory it created).  Every command that writes data files also
writes a ``manifest.json`` sidecar; identical flags and seed reproduce the
data files byte for byte (timestamps live only in the manifest).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import ParameterError, ViolationError
from .maximal import maximal_function
from .rationals import _exact_string, as_fraction, decimal_string
from .search import SearchConfig, hill_climb
from .tree import make_shape
from .verify import (
    ALL_CHECKS, MIN_LEAVES_PER_WORKER, _FLAG_FIELDS, _require, audit_superlevel, check_rearrangement_bound,
    fuzz_campaign, sharpness_sweep
)
from .weights import _per_leaf, weight_from_text, weight_to_text

MANIFEST_NAME = "manifest.json"
# Data-file columns, in file order; each name is also the field it reads.
_REPORT_RATIONALS = ("c", "bound", "sup_ratio", "margin")
_SWEEP_RATIONALS = ("delta", "nominal_c", "measured_c", "bound", "sup_ratio", "ratio_at_branch_scale", "gap")
_COUNTEREXAMPLE = "counterexample.txt"
# The data files each command writes when its checks pass.
_DATA_FILES = {"verify": ("report.csv",), "extremal": ("sweep.csv",),
               "search": ("trace.csv", "best_weight.txt", "summary.json")}


def _parse_rational_list(text: str) -> list[Fraction]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise ParameterError(f"expected a comma-separated list of rationals, got {text!r}")
    return [as_fraction(piece.strip()) for piece in items]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(piece.strip()) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise ParameterError(f"expected a comma-separated list of integers, got {text!r}") from exc


def _bool_cell(flag: bool | None) -> str:
    if flag is None:
        return ""
    return "true" if flag else "false"


def _rational_header(names) -> list[str]:
    """Each exact rational column followed by its lossy ``_dec`` twin."""
    return [column for name in names for column in (name, f"{name}_dec")]


def _rational_cells(record, names) -> list[str]:
    values = (getattr(record, name) for name in names)
    return [cell for value in values for cell in (_exact_string(value), decimal_string(value))]


def _write_file(path: Path, text: str) -> None:
    """Write one output file; a path that cannot be written is a usage error (exit 2), not a failed check."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(stream, *lines: str) -> None:
    """Write a command's closing lines to ``stream`` and flush it; a closed reader does not change the exit code.

    On BrokenPipeError the stream's descriptor is pointed at ``os.devnull``, as
    Python's ``signal`` docs advise, so the interpreter's final flush cannot fail.
    """
    try:
        stream.write("".join(f"{line}\n" for line in lines))
        stream.flush()
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [f"# manifest: {MANIFEST_NAME}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _run(args, command: str, parameters: dict, seed, job) -> int:
    """The one writing path of every command with ``--out``.

    ``job()`` returns (data files by name -> text, extra manifest keys, stdout
    lines).  The directory is made before the job runs; a failed check
    writes ``counterexample.txt`` instead of the data files and gives exit 1.
    Before writing, a run removes the files the other outcome of its command
    writes, so a rerun into the same directory leaves no stale result.  The
    manifest comes last and names the files written.  A refused run
    (ParameterError) removes no file, only the directories it created, if
    still empty.
    """
    started = time.time()
    outdir = Path(args.out)
    created: list[Path] = []
    try:
        try:
            created = [path for path in (outdir, *outdir.parents) if not path.exists()]  # deepest first
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot use output directory {args.out!r}: {exc}") from exc
        try:
            files, extra, lines = job()
            code, stream = 0, sys.stdout
        except ViolationError as exc:
            counter = outdir / _COUNTEREXAMPLE
            files, extra = {counter.name: exc.weight_text + f"check: {exc.check}\ndetail: {exc.detail}\n"}, {}
            lines = [f"violation: {exc}", f"counterexample written to {counter}"]
            code, stream = 1, sys.stderr
        for name in _DATA_FILES[command] if code else (_COUNTEREXAMPLE,):
            try:
                (outdir / name).unlink(missing_ok=True)
            except OSError as exc:
                raise ParameterError(f"cannot remove {outdir / name}: {exc.strerror or exc}") from exc
        for name, text in files.items():
            _write_file(outdir / name, text)
        manifest = {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "artifact_version": __version__,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time())),
            "outputs": sorted(files),
            **extra,
        }
        _write_file(outdir / MANIFEST_NAME, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except ParameterError:
        for path in created:
            try:
                path.rmdir()
            except OSError:  # not empty, or never made
                break
        raise
    _emit(stream, *lines)
    return code


def _cmd_verify(args) -> int:
    grid = _parse_rational_list(args.grid)
    make_shape(args.k, args.depth)
    parameters = {"k": args.k, "depth": args.depth, "trials": args.trials, "grid": [_exact_string(g) for g in grid],
                  "exhaustive": args.exhaustive, "threads": args.threads}

    def job():
        summary = fuzz_campaign(args.k, args.depth, args.trials, args.seed, grid, checks=ALL_CHECKS,
                                exhaustive=args.exhaustive, threads=args.threads)
        flags = ["bound_holds", *_FLAG_FIELDS.values()]
        header = ["trial", "weight_hash"] + _rational_header(_REPORT_RATIONALS) + flags
        rows = [
            [str(row.index), row.weight_hash]
            + _rational_cells(row, _REPORT_RATIONALS)
            + [_bool_cell(getattr(row, name)) for name in flags]
            for row in summary.rows
        ]
        worst = _exact_string(summary.worst_margin) if summary.worst_margin is not None else "n/a"
        lines = [
            f"{len(summary.rows)} weights checked, zero violations, worst margin {worst}",
            f"{sum(1 for row in summary.rows if row.margin == 0)} weights attain the bound exactly",
        ]
        if summary.worst_weight_text is not None:
            lines.append(f"worst-margin weight: {summary.worst_weight_text.strip()}")
        return {"report.csv": _csv(header, rows)}, {"workers": summary.workers}, lines

    return _run(args, "verify", parameters, None if args.exhaustive else args.seed, job)


def _cmd_extremal(args) -> int:
    c = as_fraction(args.c)
    if args.mode == "exact":
        depths = [2]
        deltas = [Fraction(1, make_shape(args.k, 2).leaf_count)]  # 1/k**2, once make_shape has refused k < 2
    else:
        depths = _parse_int_list(args.depths)
        deltas = _parse_rational_list(args.delta_steps) if args.delta_steps else None
    parameters = {"k": args.k, "c": _exact_string(c), "mode": args.mode, "depths": depths,
                  "delta_steps": [_exact_string(d) for d in deltas] if deltas else None}

    def job():
        rows = sharpness_sweep(args.k, c, depths, deltas)
        header = ["depth"] + _rational_header(_SWEEP_RATIONALS)
        table = [[str(row.depth)] + _rational_cells(row, _SWEEP_RATIONALS) for row in rows]
        sweep = Path(args.out) / "sweep.csv"
        return {sweep.name: _csv(header, table)}, {}, [f"{len(rows)} sweep rows written to {sweep}"]

    return _run(args, "extremal", parameters, None, job)


def _cmd_search(args) -> int:
    config = SearchConfig(shape=make_shape(args.k, args.depth), iterations=args.iters, restarts=args.restarts,
                          seed=args.seed)
    parameters = {"k": args.k, "depth": args.depth, "iters": args.iters, "restarts": args.restarts}

    def job():
        result = hill_climb(config)
        exact = _exact_string(result.exact_objective)
        summary = {
            "manifest": MANIFEST_NAME,
            "best_objective": result.best_objective,
            "exact_objective": exact,
            "exact_objective_dec": decimal_string(result.exact_objective),
            "objective_at_most_one": result.exact_objective <= 1,
            "best_restart": result.best_restart,
        }
        files = {
            "trace.csv": _csv(["iteration", "objective"], [[str(i), repr(v)] for i, v in enumerate(result.trace)]),
            "best_weight.txt": weight_to_text(result.best_weight),
            "summary.json": json.dumps(summary, sort_keys=True, indent=2) + "\n",
        }
        extra = {"search": {"restarts": [counts._asdict() for counts in result.restart_counts]}}
        return files, extra, [f"best objective {result.best_objective:.6f} (exact {exact})"]

    return _run(args, "search", parameters, args.seed, job)


def _audit_json(audit) -> dict:
    level = audit.level
    return {
        "t": _exact_string(audit.t),
        "level_value": _exact_string(level.level_value),
        "threshold": _exact_string(level.threshold),
        "degenerate": level.degenerate,
        "nodes": [[n.level, n.index] for n in level.nodes],
        "superlevel_measure": _exact_string(level.superlevel_measure),
        "above_threshold_measure": _exact_string(level.above_threshold_measure),
        "set_average": _exact_string(level.set_average) if level.set_average is not None else None,
        "checks": audit.checks,
        "passed": audit.passed,
    }


def _inspect_lines(payload: dict) -> list[str]:
    """Text mode of ``inspect``: the JSON payload rendered line by line."""
    lines = [
        f"weight on k={payload['k']}, depth={payload['depth']}: {' '.join(payload['leaf_values'])}",
        f"a1 constant  {payload['a1_constant']}  (bound k*c-k+1 = {payload['bound']})",
        f"maximal fn   {' '.join(payload['maximal_function'])}",
        "stopping family:",
    ]
    for member in payload["stopping_family"]:
        star = member["star"]
        star_text = f"-> ({star[0]},{star[1]})" if star is not None else "(root)"
        leaves = ",".join(str(i) for i in member["leaves"])
        lines.append(f"  ({member['level']},{member['index']}) avg {member['average']} {star_text} leaves [{leaves}]")
    lines.append("profile (measure value per line):")
    lines.extend(f"  {measure} {value}" for measure, value in payload["profile"]["pieces"])
    lines.append(f"sup ratio    {payload['sup_ratio']} at boundary t={payload['witness']}")
    audit = payload.get("audit")
    if audit is not None:
        lines.append(f"audit at t={audit['t']}:")
        lines.extend(f"  {key}: {value}" for key, value in audit.items() if key != "t")
    return lines


def _cmd_inspect(args) -> int:
    try:
        text = Path(args.weight).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read weight file {args.weight!r}: {exc}") from exc
    w = weight_from_text(text)
    report = check_rearrangement_bound(w)
    # a failed check exits 1 with the weight on stderr, through main, before anything is printed
    _require(("bound",), report)
    audit = audit_superlevel(report, args.t) if args.t is not None else None
    if audit is not None and not audit.passed:
        detail = ", ".join(name for name, ok in audit.checks.items() if not ok)
        raise ViolationError(f"superlevel audit at t={audit.t} failed: {detail}", weight_text=weight_to_text(w),
                             check="audit", detail=detail)
    a = report.analysis
    fam = a.family
    parts = fam.parts()
    texts = list(map(_exact_string, w.palette))
    payload = {
        "k": w.shape.k,
        "depth": w.shape.m,
        "leaf_values": list(_per_leaf(w.codes, texts)),
        "a1_constant": _exact_string(report.c),
        "bound": _exact_string(report.bound),
        "maximal_function": [_exact_string(v) for v in maximal_function(a)],
        "stopping_family": [
            {
                "level": node.level,
                "index": node.index,
                "average": _exact_string(Fraction(a.scaled_averages[node.level][node.index], a.unit)),
                "star": [fam.star[node].level, fam.star[node].index] if node in fam.star else None,
                "leaves": list(parts.get(node, ())),
            }
            for node in fam.members
        ],
        "profile": {"pieces": [[_exact_string(p.measure), _exact_string(p.value)] for p in report.profile.pieces]},
        "sup_ratio": _exact_string(report.sup_ratio),
        "witness": _exact_string(report.witness),
    }
    if audit is not None:
        payload["audit"] = _audit_json(audit)
    _emit(sys.stdout, *([json.dumps(payload, sort_keys=True, indent=2)] if args.json else _inspect_lines(payload)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treea1",
        description="Exact A1 constants and rearrangement bounds for step weights on homogeneous trees.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification campaign over random or exhaustive weights")
    p.add_argument("--k", type=int, required=True, help="tree homogeneity (branching factor)")
    p.add_argument("--depth", type=int, required=True, help="weight depth m")
    p.add_argument("--trials", type=int, default=100, help="number of seeded random weights")
    p.add_argument("--seed", type=int, default=0, help="campaign seed, a non-negative integer")
    p.add_argument("--grid", default="1,2,3", help="comma-separated positive rationals to draw from")
    p.add_argument("--exhaustive", action="store_true", help="enumerate every grid weight instead of sampling")
    p.add_argument("--threads", type=int, default=1,
                   help="most worker processes for a random campaign: never more than the CPUs or "
                        f"--trials, and none for less than {MIN_LEAVES_PER_WORKER:,} leaves (trials * k**depth) "
                        "of work each; "
                        "--exhaustive always runs in one process, since each worker adds its own memory "
                        "to the run's peak. manifest.json records the workers used")
    p.add_argument("--out", required=True, help="output directory (report.csv + manifest.json)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extremal", help="evaluate the extremal family (sharpness sweep)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", required=True, help="target A1 constant, rational >= 1")
    p.add_argument("--mode", choices=("exact", "paper"), default="exact",
                   help="'exact' = depth-2 variant with measured constant exactly c; "
                        "'paper' = delta-parameterized family approaching the bound")
    p.add_argument("--depths", default="4,6,8", help="comma-separated family depths (paper mode)")
    p.add_argument("--delta-steps", dest="delta_steps", default=None,
                   help="comma-separated delta values; default picks the largest leaf-aligned delta per depth")
    p.add_argument("--out", required=True, help="output directory (sweep.csv + manifest.json)")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("search", help="hill-climb the normalized sup-ratio objective")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--restarts", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="search seed, a non-negative integer")
    p.add_argument("--out", required=True, help="output directory (trace.csv, best_weight.txt, summary.json)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("inspect", help="print all derived structure for one serialized weight")
    p.add_argument("--weight", required=True, help="path to a weight file ('k m v_0 ...')")
    p.add_argument("--t", default=None, help="optional t in (0,1]: also print the superlevel audit")
    p.add_argument("--json", action="store_true", help="machine-readable JSON output")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:  # --help and --version have printed to stdout, which a closed reader must not fail
        _emit(sys.stdout)
        raise
    try:
        return args.func(args)
    except ParameterError as exc:
        _emit(sys.stderr, f"error: {exc}")
        return 2
    except ViolationError as exc:
        # _run writes the counterexample of every command with --out;
        # inspect has none, so its failed check reports the weight here
        _emit(sys.stderr, f"violation: {exc}", *exc.weight_text.splitlines())
        return 1
