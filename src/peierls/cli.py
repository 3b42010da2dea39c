"""Command-line surface: counts, bounds, simulate, manifest.

Every command is a pure function of its flags and seed: reruns produce
byte-identical data files.  Wall time and other volatile details live only in
the run manifest, which records output digests so a run can be verified by
re-execution.

Exit codes: 0 success, 2 argument error, 3 enumeration or Monte Carlo work
cap, feasibility error, a worker process lost or out of memory, or the
kernel of the flood and the circuit walk not built (no C compiler), 130
interrupted (Ctrl-C, SIGINT).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

from . import __version__
from .bounds import BoundReport, _check_point, truncated_q
from .enumeration import (
    class_counts_csv,
    contour_event_table,
    count_table_csv,
    count_table_json_dict,
    full_count_table,
)
from .errors import MAX_WORKERS, BuildError, CapExceeded, IncompletenessError, WorkerDied, check_workers
from .montecarlo import bisect_threshold, estimate_crossing, estimate_origin_reach

_BOUND_COLUMNS = ("c", "q_truncated", "tail", "q_lower", "series_bound", "threshold_bound", "guarantee")


def _default_workers() -> int:
    """Worker count from ``PEIERLS_THREADS``, else the hardware parallelism up to ``MAX_WORKERS``."""
    env = os.environ.get("PEIERLS_THREADS")
    if not env:
        return min(os.cpu_count() or 1, MAX_WORKERS)
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"PEIERLS_THREADS must be an integer, got {env!r}") from None
    return check_workers(workers, "PEIERLS_THREADS")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _emit(files: dict[str, str], out: str | None, stdout_name: str, command: str, args, extra_meta: dict) -> None:
    """Write output files plus a manifest, or print the primary file."""
    if out is None:
        sys.stdout.write(files[stdout_name])
        return
    digests = {}
    try:
        for suffix, text in sorted(files.items()):
            path = f"{out}{suffix}"
            data = text.encode()
            with open(path, "wb") as fh:
                fh.write(data)
            digests[os.path.basename(path)] = _sha256(data)
        manifest = {
            "artifact_version": __version__,
            "command": command,
            "argv": list(args._argv),
            "outputs": digests,
            "wall_time_s": time.time() - args._t0,
        }
        manifest.update(extra_meta)
        path = f"{out}.manifest.json"
        with open(path, "w") as fh:
            fh.write(_json_text(manifest))
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


def cmd_counts(args) -> int:
    table = full_count_table(
        args.k_max,
        rule=args.rule,
        cluster_cap=args.cluster_cap,
        max_nodes=args.max_nodes,
        workers=_default_workers(),
    )
    files = {
        ".csv": count_table_csv(table),
        "_classes.csv": class_counts_csv(table),
        ".json": _json_text(count_table_json_dict(table)),
    }
    primary = ".json" if args.format == "json" else ".csv"
    meta = {
        "seed": None,
        "caps": {"cluster_cap": table.meta["cluster_cap"], "max_nodes": args.max_nodes},
        "rule": args.rule,
    }
    _emit(files, args.out, primary, "counts", args, meta)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


#: Most rows one ``bounds --sweep`` may produce.
_MAX_SWEEP_POINTS = 10_000


def _parse_sweep(spec: str) -> list[float]:
    try:
        c0, c1, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise ValueError(f"bad sweep spec {spec!r}; expected c0:c1:step")
    if not (step > 0 and c0 <= c1):
        raise ValueError(f"bad sweep spec {spec!r}")
    out = []
    k = 0
    while True:
        c = c0 + k * step
        if c > c1 + 1e-12:
            break
        if k == _MAX_SWEEP_POINTS:
            raise ValueError(f"sweep {spec!r} has more than {_MAX_SWEEP_POINTS} points")
        out.append(round(c, 12))
        k += 1
    return out


def _bounds_rows(args) -> list[BoundReport]:
    cs = _parse_sweep(args.sweep) if args.sweep else [args.c]
    for c in cs:  # before the censuses, not after them
        _check_point(c, args.r)
    workers = _default_workers()
    counts = None
    if args.mode in ("exact", "sa"):
        counts = full_count_table(args.k_max, rule=args.rule, max_nodes=args.max_nodes, workers=workers)
    events = contour_event_table(args.r - 1, workers=workers) if args.r >= 5 else {}
    return [truncated_q(c, args.r, events=events, counts=counts, mode=args.mode) for c in cs]


def cmd_bounds(args) -> int:
    if args.sweep is None and args.c is None:
        raise ValueError("provide --c or --sweep")
    rows = _bounds_rows(args)
    lines = [",".join(_BOUND_COLUMNS)]
    for rep in rows:
        lines.append(",".join(_fmt(getattr(rep, col)) for col in _BOUND_COLUMNS))
    files = {
        ".csv": "\n".join(lines) + "\n",
        ".json": _json_text({"r": args.r, "mode": args.mode, "rows": [r.to_json_dict() for r in rows]}),
    }
    primary = ".json" if args.format == "json" else ".csv"
    meta = {"seed": None, "caps": {"r": args.r, "k_max": args.k_max}, "rule": args.rule, "mode": args.mode}
    _emit(files, args.out, primary, "bounds", args, meta)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    workers = args.workers if args.workers else _default_workers()
    if args.bisect:
        res = bisect_threshold(args.L, args.trials, args.tol, args.seed, workers=workers)
        lines = ["c,value"]
        for c, v in res.trace:
            lines.append(f"{_fmt(c)},{_fmt(v)}")
        lines.append(f"threshold,{_fmt(res.estimate)}")
        payload = {
            "threshold": res.estimate,
            "tol": res.tol,
            "L": res.L,
            "trials": res.trials,
            "seed": res.seed,
            "trace": [{"c": c, "value": v} for c, v in res.trace],
        }
        files = {".csv": "\n".join(lines) + "\n", ".json": _json_text(payload)}
    else:
        if args.c is None:
            raise ValueError("provide --c or --bisect")
        estimator = estimate_crossing if args.observable == "crossing" else estimate_origin_reach
        est = estimator(args.L, args.c, args.trials, args.seed, workers=workers)
        header = "L,c,trials,value,std_error,seed"
        row = f"{est.L},{_fmt(est.c)},{est.trials},{_fmt(est.value)},{_fmt(est.std_error)},{est.seed}"
        files = {".csv": header + "\n" + row + "\n", ".json": _json_text(est.to_json_dict())}
    primary = ".json" if args.format == "json" else ".csv"
    meta = {"seed": args.seed, "caps": {"L": args.L, "trials": args.trials}, "rule": None}
    _emit(files, args.out, primary, "simulate", args, meta)
    return 0


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def cmd_manifest(args) -> int:
    try:
        with open(args.file) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read manifest {args.file}: {exc.strerror}")
    if args.show:
        sys.stdout.write(_json_text(manifest))
        return 0
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise ValueError(f"manifest {args.file} records no argv; nothing to verify")
    if not isinstance(manifest.get("outputs"), dict) or not manifest["outputs"]:
        raise ValueError(f"manifest {args.file} records no outputs; nothing to verify")
    if "--out" not in argv[:-1]:
        raise ValueError("manifest records no --out prefix; nothing to verify")
    out = argv.index("--out") + 1
    with tempfile.TemporaryDirectory() as tmp:
        old_prefix = argv[out]
        argv[out] = os.path.join(tmp, "rerun")
        code = main(argv)
        if code != 0:
            print(f"re-run failed with exit code {code}", file=sys.stderr)
            return 1
        mismatches = []
        for name, digest in manifest["outputs"].items():
            new_name = os.path.basename(old_prefix)
            rerun_file = os.path.join(tmp, "rerun" + name[len(new_name):]) if name.startswith(new_name) else None
            if rerun_file is None or not os.path.exists(rerun_file):
                mismatches.append(f"{name}: missing from re-run")
                continue
            with open(rerun_file, "rb") as fh:
                fresh = _sha256(fh.read())
            if fresh != digest:
                mismatches.append(f"{name}: {digest} != {fresh}")
    if mismatches:
        for m in mismatches:
            print(f"MISMATCH {m}", file=sys.stderr)
        return 1
    print(f"ok: {len(manifest['outputs'])} outputs reproduced")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peierls",
        description="Contour census, series bounds, and Monte Carlo for square-lattice site percolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="exact contour census with walk bounds")
    p.add_argument("--k-max", dest="k_max", type=int, required=True, help="largest contour length (>= 4)")
    p.add_argument("--rule", choices=("five", "seven"), default="five", help="continuation rule for circuits")
    p.add_argument("--cluster-cap", dest="cluster_cap", type=int, default=None)
    p.add_argument("--max-nodes", dest="max_nodes", type=int, default=200_000_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file prefix")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("bounds", help="series bounds and the truncated polynomial")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--sweep", default=None, help="concentration sweep c0:c1:step")
    p.add_argument("--r", type=int, default=4, help="truncation length")
    p.add_argument("--mode", choices=("analytic", "exact", "sa"), default="analytic")
    p.add_argument("--k-max", dest="k_max", type=int, default=10, help="table depth for exact/sa modes")
    p.add_argument("--rule", choices=("five", "seven"), default="five")
    p.add_argument("--max-nodes", dest="max_nodes", type=int, default=200_000_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo estimates and threshold bisection")
    p.add_argument("--L", type=int, required=True, help="window radius")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--bisect", action="store_true", help="bisect the crossing threshold")
    p.add_argument("--tol", type=float, default=0.005)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--observable", choices=("reach", "crossing"), default="reach")
    p.add_argument(
        "--workers", type=int, default=0, help="worker processes; 0 = PEIERLS_THREADS or hardware parallelism"
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("manifest", help="show or verify a run manifest")
    p.add_argument("file")
    p.add_argument("--show", action="store_true", help="pretty-print instead of verifying")
    p.set_defaults(func=cmd_manifest)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    args._t0 = time.time()
    try:
        out = getattr(args, "out", None)
        out_dir = os.path.dirname(out or "") or "."
        # before any work, not after it
        if out is not None and not os.path.basename(out):
            raise ValueError(f"output prefix {out!r} names no file: give a prefix such as {os.path.join(out_dir, 'run')}")
        if not os.path.isdir(out_dir):
            raise ValueError(f"output directory {out_dir} does not exist")
        return args.func(args)
    except (BuildError, CapExceeded, IncompletenessError, WorkerDied, MemoryError) as exc:
        # the kernel's callers name the allocation that failed; Python's own MemoryError says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # the pool has stopped and reaped its workers on the way out
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
