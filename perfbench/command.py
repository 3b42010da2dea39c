#!/usr/bin/env python3
"""Run one ``peierls`` command in a fresh interpreter and report what it cost.

    python3 perfbench/command.py [--trace] ARGV...

``run.py`` starts one of these per command, so every command runs as one CLI
invocation would: in a new process, through ``peierls.cli.main``.  The
script imports ``peierls.cli`` from ``src/``, calls ``main(ARGV)`` and prints
one JSON line with the monotonic-clock time at which the import finished,
the wall and CPU time of ``main`` and its exit code.  With ``--trace`` the
line also holds the spans recorded around every module boundary (see
``tracing.py``).  The parent reads the peak resident set from the exit status.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import peierls.cli

    imported = time.monotonic()
    run = peierls.cli.main
    if trace:
        from tracing import Recorder

        recorder = Recorder(run=f"pid{os.getpid()}")
        recorder.install()
        run = lambda a: recorder.call("cli.main", peierls.cli.main, a)  # noqa: E731
    cpu0 = os.times()
    t0 = time.perf_counter()
    try:
        code = run(argv)
    except Exception:
        traceback.print_exc()
        code = "an exception"
    wall = time.perf_counter() - t0
    cpu1 = os.times()
    report = {
        "imported": imported,
        "wall": wall,
        "cpu": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "code": code,
    }
    if trace:
        report["spans"] = recorder.to_records()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
