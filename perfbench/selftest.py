#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark harness on shrunken inputs.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload of ``run.py`` at small sizes (k=8, r=9, L=16, a few
hundred trials) through the same code as the real runs, untraced and traced,
and checks that:

- every metric ``BENCHMARK.json`` names is printed, by name, with its unit;
- a run against correct reference digests passes, and a run against a wrong
  reference digest is reported as a failure;
- the harness exits non-zero, printing no result, when the sources are missing.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

SMALL = {
    "census-k12": dataclasses.replace(run.WORKLOADS["census-k12"], argv=("counts", "--k-max", "8")),
    "polynomial-r13": dataclasses.replace(
        run.WORKLOADS["polynomial-r13"], argv=("bounds", "--sweep", "0.81:0.99:0.06", "--r", "9", "--mode", "analytic")
    ),
    "reach-L128": dataclasses.replace(
        run.WORKLOADS["reach-L128"],
        argv=("simulate", "--L", "16", "--c", "0.9", "--observable", "reach", "--trials", "300", "--workers", "2"),
        subset=lambda mc, seed, w: mc.estimate_origin_reach(16, 0.9, 100, seed, workers=w),
    ),
    "bisect-L64": dataclasses.replace(
        run.WORKLOADS["bisect-L64"],
        argv=("simulate", "--L", "16", "--bisect", "--tol", "0.005", "--trials", "300", "--workers", "2"),
        subset=lambda mc, seed, w: mc.bisect_threshold(16, 100, 0.005, seed, workers=w),
    ),
}
SEED = 5


def bench(name: str, trace: bool, references: dict) -> tuple[dict, str]:
    """One shrunken run; returns the result object and everything printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.bench(name, SMALL[name], SEED, 0, trace, references)
        print(json.dumps(result))
    text = out.getvalue()
    if json.loads(text.splitlines()[-1]) != result:
        raise AssertionError(f"{name}: the last output line is not the result object")
    return result, text


def digests(text: str) -> dict[str, str]:
    """The data-file digests a run printed, by file suffix."""
    return {
        line.split()[1].removeprefix("out"): line.split()[2]
        for line in text.splitlines()
        if line.startswith("  digest ")
    }


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    run.SETUP_REPEATS = 1
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    for name in SMALL:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, text = bench(name, trace, {})
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {metric: v["unit"] for metric, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={int(trace)}: metric names and units match BENCHMARK.json")
            printed = all(f"{metric} " in text for metric in [*want, "fail_ratio"])
            expect(printed, f"{name} trace={int(trace)}: every metric name and fail_ratio print")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={int(trace)}: outputs pass")
        recorded[name] = digests(text)
        expect(bool(recorded[name]), f"{name}: digests print")

    for name in ("census-k12", "reach-L128"):
        key = str(SEED) if SMALL[name].seeded else run.UNSEEDED
        result, text = bench(name, False, {name: {key: recorded[name]}})
        expect(result["correct"] and "reference recorded" in text, f"{name}: correct reference passes")
        wrong = dict(recorded[name])
        suffix = sorted(wrong)[0]
        wrong[suffix] = "sha256:" + "0" * 64
        result, _ = bench(name, False, {name: {key: wrong}})
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{name}: a wrong reference digest for out{suffix} is a failure")

    run.SRC = run.ROOT / "no-such-sources"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "census-k12", "--seed", "1", "--seconds", "1"])
    expect(code != 0 and not out.getvalue(), "missing sources: non-zero exit and no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
