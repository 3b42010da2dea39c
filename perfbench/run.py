#!/usr/bin/env python3
"""Benchmark of the ``peierls`` command line, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload census-k12 --seed 1 --seconds 15 --trace 0

Each workload is one ``peierls`` command at fixed flags.  This process is the
one client and runs a closed loop: it starts the next command when the
previous one has returned.  Every command runs as one CLI invocation would,
in a fresh interpreter through ``peierls.cli.main`` (``command.py``), with
its outputs in a temporary directory under ``perfbench/out``.  Every output
is checked.

``--trace 0`` repeats the command while ``--seconds`` allows (at least once)
and reports the end-to-end metrics as medians.  ``--trace 1`` is a separate
run: for Monte Carlo workloads a fixed trial subset timed at one and at all
workers, then the command once untraced and once with spans recorded around
every module boundary (``tracing.py``).  It reports the per-module metrics
and writes the spans to ``perfbench/out/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  NOTES.md says why
each workload and metric is there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

#: Reference key of workloads whose inputs do not depend on the seed.
UNSEEDED = "*"
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 3
#: Census values the paper states; any census output must reproduce them.
CENSUS_PREFIX = {4: 1, 5: 0, 6: 4, 7: 12, 8: 47}
MANIFEST = ".manifest.json"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "enumeration.exact_contour_counts_s": "s",
    "enumeration.shapes": "count",
    "enumeration.shapes_per_s": "1/s",
    "enumeration.distinct_contours": "count",
    "clusters.winding_number_s": "s",
    "clusters.winding_number_calls": "count",
    "enumeration.self_avoiding_circuit_count_s": "s",
    "enumeration.circuit_nodes": "count",
    "enumeration.circuit_nodes_per_s": "1/s",
    "enumeration.contour_event_table_s": "s",
    "enumeration.event_clusters": "count",
    "bounds.truncated_q_s": "s",
    "bounds.truncated_q_calls": "count",
    "montecarlo.estimate_origin_reach_s": "s",
    "montecarlo.site_trials_per_s": "1/s",
    "montecarlo.bisect_threshold_s": "s",
    "montecarlo.midpoints": "count",
    "montecarlo.field_evals_per_s": "1/s",
    "montecarlo.idle_share": "ratio",
    "montecarlo.thread_speedup": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Output invariants.  Each check takes the data files by suffix and returns
# the problems it found.
# ---------------------------------------------------------------------------


def check_census(files: dict[str, bytes]) -> list[str]:
    lines = files[".csv"].decode().splitlines()
    exact = {int(row.split(",")[0]): int(row.split(",")[1]) for row in lines[1:]}
    return [f"census S_{k} = {exact.get(k)}, expected {v}" for k, v in CENSUS_PREFIX.items() if exact.get(k) != v]


def check_bounds(files: dict[str, bytes]) -> list[str]:
    rows = json.loads(files[".json"])["rows"]
    problems = [] if rows else ["no bound rows"]
    for row in rows:
        if row["guarantee"] != "tail" or not 0.0 <= row["q_truncated"] <= 1.0:
            problems.append(f"row c={row['c']}: guarantee {row['guarantee']}, q_truncated {row['q_truncated']}")
    return problems


def check_reach(files: dict[str, bytes]) -> list[str]:
    value = json.loads(files[".json"])["value"]
    return [] if 0.0 <= value <= 1.0 else [f"reach value {value} outside [0, 1]"]


def check_bisect(files: dict[str, bytes]) -> list[str]:
    payload = json.loads(files[".json"])
    problems = []
    if len(payload["trace"]) != 8:
        problems.append(f"{len(payload['trace'])} bisection midpoints, expected 8")
    if not 1 / 3 < payload["threshold"] < 4 / 5:
        problems.append(f"threshold estimate {payload['threshold']} outside (1/3, 4/5)")
    return problems


@dataclass(frozen=True)
class Workload:
    """One ``peierls`` command at fixed flags, and how to check its outputs."""

    argv: tuple[str, ...]
    check: Callable[[dict[str, bytes]], list[str]]
    seeded: bool = False
    #: A fixed trial subset of the same computation, called as
    #: ``subset(montecarlo_module, seed, workers)``, timed at 1 and at
    #: ``workers`` workers for the thread speed-up.
    subset: Callable | None = None

    @property
    def workers(self) -> int:
        """Worker threads of a Monte Carlo command; 0 for the other commands."""
        return int(self.argv[self.argv.index("--workers") + 1]) if "--workers" in self.argv else 0


WORKLOADS = {
    "census-k12": Workload(("counts", "--k-max", "12"), check_census),
    "polynomial-r13": Workload(
        ("bounds", "--sweep", "0.81:0.99:0.01", "--r", "13", "--mode", "analytic"), check_bounds
    ),
    "reach-L128": Workload(
        ("simulate", "--L", "128", "--c", "0.9", "--observable", "reach", "--trials", "2500", "--workers", "2"),
        check_reach,
        seeded=True,
        subset=lambda mc, seed, w: mc.estimate_origin_reach(128, 0.9, 1000, seed, workers=w),
    ),
    "bisect-L64": Workload(
        ("simulate", "--L", "64", "--bisect", "--tol", "0.005", "--trials", "1250", "--workers", "2"),
        check_bisect,
        seeded=True,
        subset=lambda mc, seed, w: mc.bisect_threshold(64, 500, 0.005, seed, workers=w),
    ),
}


# ---------------------------------------------------------------------------
# Running and checking one command.
# ---------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass
class Sample:
    wall: float
    cpu: float
    #: Peak resident set of the command's process.
    peak_rss_mb: float
    digests: dict[str, str]
    bytes_written: int
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def _check_files(files: dict[str, bytes], prefix: str, check) -> list[str]:
    """Invariants of the data files, and the manifest's record of them."""
    if MANIFEST not in files:
        return ["no manifest written"]
    data = {suffix: blob for suffix, blob in files.items() if suffix != MANIFEST}
    try:
        recorded = json.loads(files[MANIFEST])["outputs"]
        problems = check(data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
    if recorded != {prefix + suffix: sha256(blob) for suffix, blob in data.items()}:
        problems.append("manifest digests disagree with the files written")
    return problems


def run_command(argv: list[str], check, trace: bool = False) -> Sample:
    """Run one command in a fresh interpreter with ``--out`` in a temporary directory; check it."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        prefix = Path(tmp) / "out"
        cmd = [sys.executable, str(BENCH_DIR / "command.py"), *(["--trace"] if trace else []),
               *argv, "--out", str(prefix)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        files = {p.name[len(prefix.name):]: p.read_bytes() for p in Path(tmp).iterdir()}
    try:
        report = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        report = {"wall": 0.0, "cpu": 0.0, "code": f"no report (exit status {proc.returncode})"}
    sample = Sample(
        wall=report["wall"],
        cpu=report["cpu"],
        peak_rss_mb=usage.ru_maxrss / 1024,
        digests={suffix: sha256(blob) for suffix, blob in sorted(files.items()) if suffix != MANIFEST},
        bytes_written=sum(len(blob) for blob in files.values()),
        spans=report.get("spans", []),
    )
    if report["code"] != 0:
        sample.problems.append(f"exit code {report['code']}")
    sample.problems += _check_files(files, prefix.name, check)
    return sample


def _checked(sample: Sample, expected: dict[str, str]) -> Sample:
    """Add the digest mismatches against ``expected`` to the sample's problems and report them."""
    sample.problems += [
        f"{suffix}: {sample.digests.get(suffix)} != expected {want}"
        for suffix, want in sorted(expected.items())
        if sample.digests.get(suffix) != want
    ] + [f"{suffix}: unexpected output" for suffix in sorted(set(sample.digests) - set(expected))]
    for problem in sample.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return sample


# ---------------------------------------------------------------------------
# The timed run and the traced run.
# ---------------------------------------------------------------------------


def setup_seconds(repeats: int) -> float:
    """Median wall time from interpreter start through ``import peierls.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import peierls.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_run(argv: list[str], wl: Workload, seconds: float, expected) -> list[Sample]:
    """Repeat the command while the next repeat still fits in ``seconds``; at least once.

    Without a reference, the first repeat's digests become the expectation,
    so every further repeat must reproduce it byte for byte.
    """
    samples: list[Sample] = []
    start = last = time.perf_counter()
    while True:
        sample = run_command(argv, wl.check)
        if expected is None:
            expected = sample.digests
        samples.append(_checked(sample, expected))
        now = time.perf_counter()
        if (now - start) + (now - last) > seconds:
            return samples
        last = now


def thread_speedup(wl: Workload, montecarlo, seed: int) -> tuple[float, list[str]]:
    """Time of the trial subset at one worker over its time at ``wl.workers``.

    An untimed first call lets every worker thread's allocator arena grow
    first, which the timed calls would otherwise pay unevenly.
    """
    times, results = {}, {}
    try:
        wl.subset(montecarlo, seed, wl.workers)
        for workers in (1, wl.workers):
            t0 = time.perf_counter()
            results[workers] = wl.subset(montecarlo, seed, workers)
            times[workers] = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return 0.0, ["the trial subset raised an exception"]
    same = results[1] == results[wl.workers]
    return times[1] / times[wl.workers], [] if same else ["trial subset differs between 1 and all workers"]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], wl: Workload, overhead: float, speedup: float, bytes_written: int) -> dict:
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for span in spans:
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + span["end"] - span["start"]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        for key, n in span["counts"].items():
            counts[key] = counts.get(key, 0) + n
    mc = [s for s in spans if s["name"].startswith("montecarlo.")]
    mc_wall = sum(s["end"] - s["start"] for s in mc)
    mc_cpu = sum(s["cpu_s"] for s in mc)
    ecc = seconds.get("enumeration.exact_contour_counts", 0.0)
    sac = seconds.get("enumeration.self_avoiding_circuit_count", 0.0)
    reach = seconds.get("montecarlo.estimate_origin_reach", 0.0)
    bisect = seconds.get("montecarlo.bisect_threshold", 0.0)
    return {
        "enumeration.exact_contour_counts_s": ecc,
        "enumeration.shapes": counts.get("shapes", 0),
        "enumeration.shapes_per_s": _rate(counts.get("shapes", 0), ecc),
        "enumeration.distinct_contours": counts.get("distinct_contours", 0),
        "clusters.winding_number_s": seconds.get("clusters.winding_number", 0.0),
        "clusters.winding_number_calls": calls.get("clusters.winding_number", 0),
        "enumeration.self_avoiding_circuit_count_s": sac,
        "enumeration.circuit_nodes": counts.get("circuit_nodes", 0),
        "enumeration.circuit_nodes_per_s": _rate(counts.get("circuit_nodes", 0), sac),
        "enumeration.contour_event_table_s": seconds.get("enumeration.contour_event_table", 0.0),
        "enumeration.event_clusters": counts.get("event_clusters", 0),
        "bounds.truncated_q_s": seconds.get("bounds.truncated_q", 0.0),
        "bounds.truncated_q_calls": calls.get("bounds.truncated_q", 0),
        "montecarlo.estimate_origin_reach_s": reach,
        "montecarlo.site_trials_per_s": _rate(counts.get("site_trials", 0), reach),
        "montecarlo.bisect_threshold_s": bisect,
        "montecarlo.midpoints": counts.get("midpoints", 0),
        "montecarlo.field_evals_per_s": _rate(counts.get("field_evals", 0), bisect),
        "montecarlo.idle_share": 1.0 - mc_cpu / (mc_wall * wl.workers) if mc_wall > 0 and wl.workers else 0.0,
        "montecarlo.thread_speedup": speedup,
        "cli.self_s": sum(s["self_s"] for s in spans if s["name"] == "cli.main"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_s": overhead,
    }


def traced_run(name: str, argv: list[str], wl: Workload, seed: int, expected) -> tuple[list[Sample], dict]:
    """Thread speed-up, then the command untraced and traced; the spans go to a file."""
    samples = []
    speedup = 0.0
    if wl.subset is not None:
        import peierls.montecarlo

        speedup, problems = thread_speedup(wl, peierls.montecarlo, seed)
        samples.append(_checked(Sample(0.0, 0.0, 0.0, {}, 0, problems), {}))
    base = run_command(argv, wl.check)
    if expected is None:
        expected = base.digests
    samples.append(_checked(base, expected))
    traced = _checked(run_command(argv, wl.check, trace=True), expected)
    samples.append(traced)
    spans_file = OUT_DIR / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps({"workload": name, "seed": seed, "machine": machine(), "spans": traced.spans}))
    return samples, layer_metrics(traced.spans, wl, traced.wall - base.wall, speedup, traced.bytes_written)


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "peierls").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "source_sha256": source.hexdigest(),
    }


def bench(name: str, wl: Workload, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """Run one workload and return the result object the last output line holds."""
    OUT_DIR.mkdir(exist_ok=True)
    argv = [*wl.argv, *(("--seed", str(seed)) if wl.seeded else ())]
    expected = references.get(name, {}).get(str(seed) if wl.seeded else UNSEEDED)
    if trace:
        samples, values = traced_run(name, argv, wl, seed, expected)
        units = PER_LAYER_UNITS
    else:
        setup = setup_seconds(SETUP_REPEATS)
        samples = timed_run(argv, wl, seconds, expected)
        values = {
            "wall_s": statistics.median(s.wall for s in samples),
            "cpu_s": statistics.median(s.cpu for s in samples),
            "setup_s": setup,
            # the largest, not the median: a 2-thread command now and then peaks
            # one array lower, and the maximum over a run's commands is steady
            "peak_rss_mb": max(s.peak_rss_mb for s in samples),
        }
        units = END_TO_END_UNITS
    failed = sum(1 for s in samples if s.problems)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  repeats {len(samples)}"
          f"  reference {'recorded' if expected else 'none (repeats must agree)'}")
    for metric, value in values.items():
        print(f"  {metric:<44} {value:>18.6f} {units[metric]}")
    print(f"  {'fail_ratio':<44} {failed / len(samples):>18.6f} ratio ({failed}/{len(samples)} commands)")
    for suffix, digest in samples[-1].digests.items():
        print(f"  digest out{suffix} {digest}")
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "peierls" / "cli.py").is_file():
        print(f"error: no peierls sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = bench(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                   load_references())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
