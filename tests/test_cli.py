import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls import (
    bisect_threshold,
    contour_event_table,
    estimate_crossing,
    estimate_origin_reach,
    exact_contour_counts,
    full_count_table,
    self_avoiding_circuit_count,
)
from peierls import cli, enumeration, montecarlo
from peierls.cli import _default_workers, main
from peierls.errors import MAX_WORKERS, check_workers


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------


def test_counts_csv_bound_column(capsys):
    code, out = run(["counts", "--k-max", "8"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,exact,sa_walk,walk_bound"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[3] for r in rows] == ["300", "2000", "12500", "75000", "437500"]
    for r in rows:
        assert int(r[1]) <= int(r[3])


def test_counts_files_byte_identical(tmp_path, capsys):
    prefix1 = tmp_path / "a"
    prefix2 = tmp_path / "b"
    assert main(["counts", "--k-max", "6", "--out", str(prefix1)]) == 0
    assert main(["counts", "--k-max", "6", "--out", str(prefix2)]) == 0
    capsys.readouterr()
    for suffix in (".csv", "_classes.csv", ".json"):
        a = (tmp_path / f"a{suffix}").read_bytes()
        b = (tmp_path / f"b{suffix}").read_bytes()
        assert a == b
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["counts"][0]["exact"] == 1


def test_counts_json_stdout(capsys):
    code, out = run(["counts", "--k-max", "6", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["rule"] == "five"
    assert {row["k"]: row["exact"] for row in doc["counts"]} == {4: 1, 5: 0, 6: 4}


def test_counts_infeasible_cap_exits_3(capsys):
    code = main(["counts", "--k-max", "12", "--cluster-cap", "4"])
    capsys.readouterr()
    assert code == 3


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_single_point_tail(capsys):
    code, out = run(["bounds", "--c", "0.9", "--r", "4", "--mode", "analytic"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    assert abs(float(cols["tail"]) - 0.08) < 1e-12
    assert cols["guarantee"] == "tail"


def test_bounds_sweep_flags_divergent_rows(capsys):
    code, out = run(["bounds", "--sweep", "0.78:0.9:0.04", "--r", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 4
    flagged = [r for r in rows if float(r["c"]) <= 0.8]
    assert flagged and all(r["guarantee"] == "none" and r["tail"] == "" for r in flagged)
    fine = [r for r in rows if float(r["c"]) > 0.8]
    assert fine and all(r["guarantee"] == "tail" for r in fine)


def test_bounds_sa_mode_threshold_below_point_eight(capsys):
    code, out = run(
        ["bounds", "--c", "0.9", "--r", "5", "--mode", "sa", "--k-max", "10", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["threshold_bound"] < 0.8


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--sweep", "0.9:1.2:0.1", "--mode", "sa", "--k-max", "12", "--r", "5"],
        ["bounds", "--c", "nan", "--mode", "exact", "--k-max", "12", "--r", "5"],
        ["bounds", "--c", "0.9", "--mode", "sa", "--k-max", "12", "--r", "3"],
        ["bounds", "--sweep", "0.81:0.99:0.01", "--r", "3"],
    ],
)
def test_bounds_rejects_its_arguments_before_any_census(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a census ran")

    monkeypatch.setattr(cli, "full_count_table", refuse)
    monkeypatch.setattr(cli, "contour_event_table", refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_requires_concentration(capsys):
    code = main(["bounds", "--r", "4"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_estimate_deterministic(capsys):
    args = ["simulate", "--L", "8", "--c", "0.7", "--trials", "300", "--seed", "3", "--workers", "1"]
    code1, out1 = run(args, capsys)
    code2, out2 = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    header, row = out1.strip().split("\n")
    assert header == "L,c,trials,value,std_error,seed"
    assert row.startswith("8,0.7,300,")


def test_simulate_json(capsys):
    code, out = run(
        ["simulate", "--L", "8", "--c", "0.7", "--trials", "200", "--seed", "1",
         "--observable", "crossing", "--format", "json", "--workers", "2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 200 and doc["L"] == 8
    assert 0.0 <= doc["value"] <= 1.0


def test_simulate_bisect_interval(capsys):
    code, out = run(
        ["simulate", "--L", "12", "--bisect", "--trials", "300", "--tol", "0.01",
         "--seed", "5", "--workers", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert 1 / 3 < doc["threshold"] < 4 / 5
    assert len(doc["trace"]) >= 7


def test_simulate_requires_mode(capsys):
    code = main(["simulate", "--L", "8"])
    capsys.readouterr()
    assert code == 2


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--k-max", "8", "--bogus"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_threads_env_override(monkeypatch, capsys):
    monkeypatch.setenv("PEIERLS_THREADS", "2")
    args = ["simulate", "--L", "8", "--c", "0.6", "--trials", "200", "--seed", "7"]
    code1, out1 = run(args, capsys)
    monkeypatch.setenv("PEIERLS_THREADS", "1")
    code2, out2 = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bad_threads_env_names_the_variable(monkeypatch, capsys):
    for value in ("abc", "-3", "0"):
        monkeypatch.setenv("PEIERLS_THREADS", value)
        for argv in (["simulate", "--L", "8", "--c", "0.6", "--trials", "20"], ["counts", "--k-max", "6"]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: PEIERLS_THREADS") and err.count("\n") == 1


def test_worker_count_above_the_cap_exits_2_and_starts_no_pool(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "fork", refuse)
    over = MAX_WORKERS + 1
    simulate = ["simulate", "--L", "8", "--c", "0.6", "--trials", "20"]
    bisect = ["simulate", "--L", "8", "--bisect", "--trials", "20"]
    monkeypatch.setenv("PEIERLS_THREADS", str(over))
    for argv in (["counts", "--k-max", "6"], ["bounds", "--c", "0.9", "--r", "6"], simulate, bisect):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: PEIERLS_THREADS must be <= {MAX_WORKERS}, got {over}\n"
    monkeypatch.delenv("PEIERLS_THREADS")
    for argv in (simulate, bisect):
        assert main([*argv, "--workers", str(over)]) == 2
        assert capsys.readouterr().err == f"error: workers must be <= {MAX_WORKERS}, got {over}\n"
    for census in (exact_contour_counts, self_avoiding_circuit_count, contour_event_table, full_count_table):
        with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}"):
            census(6, workers=over)
    for estimate in (estimate_origin_reach, estimate_crossing):
        with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}"):
            estimate(8, 0.5, 10, 0, workers=over)
    with pytest.raises(ValueError, match=f"workers must be <= {MAX_WORKERS}"):
        bisect_threshold(8, 10, 0.01, 0, workers=over)
    assert check_workers(MAX_WORKERS) == MAX_WORKERS
    monkeypatch.setattr(os, "cpu_count", lambda: 100_000)
    assert _default_workers() == MAX_WORKERS


def test_counts_files_independent_of_threads(tmp_path, monkeypatch, capsys):
    for threads in ("1", "2"):
        monkeypatch.setenv("PEIERLS_THREADS", threads)
        assert main(["counts", "--k-max", "10", "--out", str(tmp_path / threads)]) == 0
    capsys.readouterr()
    for suffix in (".csv", "_classes.csv", ".json"):
        assert (tmp_path / f"1{suffix}").read_bytes() == (tmp_path / f"2{suffix}").read_bytes()


def test_cap_in_a_worker_exits_3_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("PEIERLS_THREADS", "2")
    code = main(["counts", "--k-max", "10", "--max-nodes", "1000"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: circuit search exceeded 1000 nodes") and err.count("\n") == 1
    assert "Traceback" not in err


#: The test process, in which a task patched in to end its worker must never run.
_TEST_PID = os.getpid()


def _end_this_worker(how: str) -> None:
    assert os.getpid() != _TEST_PID, "a task meant for a forked worker ran in the test process"
    if how == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise MemoryError("Unable to allocate 8.00 EiB for an array")


def _walk_killed(k_max, rule, max_nodes, threads):
    _end_this_worker("kill")


def _reach_chunk_killed(seed, L, c, t0, t1):
    if t0 > 0:
        _end_this_worker("kill")
    return _reach_count(seed, L, c, t0, t1)


def _reach_chunk_out_of_memory(seed, L, c, t0, t1):
    if t0 > 0:
        _end_this_worker("memory")
    return _reach_count(seed, L, c, t0, t1)


_reach_count = montecarlo._reach_count
_KILLED = r"error: worker process \d+ was killed by signal 9 before it returned task \d+\n"
_SIMULATE = ["simulate", "--L", "8", "--c", "0.6", "--trials", "10000", "--workers", "2"]


@pytest.mark.parametrize(
    "module, name, task, argv, message",
    [
        (enumeration, "_circuit_walk", _walk_killed, ["counts", "--k-max", "10"], _KILLED),
        (montecarlo, "_reach_count", _reach_chunk_killed, _SIMULATE, _KILLED),
        (
            montecarlo,
            "_reach_count",
            _reach_chunk_out_of_memory,
            _SIMULATE,
            r"error: Unable to allocate 8\.00 EiB for an array\n",
        ),
    ],
)
def test_a_lost_worker_exits_3_with_one_line(module, name, task, argv, message, monkeypatch, capsys):
    monkeypatch.setenv("PEIERLS_THREADS", "2")
    monkeypatch.setattr(module, name, task)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert re.fullmatch(message, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--L", "100000", "--c", "0.5", "--trials", "1"],
        ["simulate", "--L", "8", "--c", "0.5", "--trials", "1000000000000"],
        ["simulate", "--L", "8", "--bisect", "--trials", "1000000000000"],
    ],
)
def test_monte_carlo_work_cap_exits_3_with_one_line(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _children(pid: int) -> list[int]:
    """The child processes of the main thread of process ``pid``."""
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return [int(child) for child in fh.read().split()]


def test_ctrl_c_exits_130_with_one_line_and_leaves_no_worker():
    # SIGINT to the command's process group, as Ctrl-C in a terminal sends
    # it, once both of its workers run their trials
    if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
        pytest.skip("no /proc children list to find the command's workers")
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["simulate", "--L", "128", "--c", "0.9", "--trials", "2000000", "--workers", "2"]
    with subprocess.Popen(
        [sys.executable, "-m", "peierls.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as command:
        deadline = time.monotonic() + 120
        while command.poll() is None and len(_children(command.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        workers = _children(command.pid) if command.poll() is None else []
        os.killpg(command.pid, signal.SIGINT)
        out, err = command.communicate(timeout=120)
    assert len(workers) == 2
    assert (command.returncode, out, err) == (130, "", "error: interrupted\n")
    # the command reaped its workers: nothing of its process group is left
    with pytest.raises(ProcessLookupError):
        os.killpg(command.pid, 0)


def test_simulate_without_a_compiler_exits_3_and_other_commands_run(tmp_path):
    # a PATH with no cc and an empty kernel cache: no command that runs the
    # flood, the census, the circuit walk or the event table can build its
    # kernel, and the commands that never use it are unaffected
    (tmp_path / "bin").mkdir()
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {
        **os.environ,
        "PATH": str(tmp_path / "bin"),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "peierls.cli", *argv], env=env, capture_output=True, text=True, timeout=300
        )

    no_cc = r"error: no C compiler 'cc' on PATH to build the kernel _kernel\.c for {}\n"
    simulate = ("simulate", "--L", "8", "--trials", "20")
    bounds = ("bounds", "--c", "0.9", "--r", "6", "--k-max", "8")
    needs = [
        (argv, re.escape("the Monte Carlo (simulate)"))
        for argv in ([*simulate, "--bisect"], [*simulate, "--c", "0.6"], [*simulate, "--c", "0.6", "--observable", "crossing"])
    ] + [
        (argv, re.escape("the census and the circuit walk (counts, bounds --mode exact|sa)"))
        for argv in (["counts", "--k-max", "6"], [*bounds, "--mode", "exact"], [*bounds, "--mode", "sa"])
    ] + [
        ([*bounds, "--mode", "analytic"], re.escape("the event table of the truncated polynomial (bounds --r >= 5)"))
    ]
    for argv, need in needs:
        run = cli(*argv)
        assert run.returncode == 3 and run.stdout == "", argv
        assert re.fullmatch(no_cc.format(need), run.stderr), run.stderr
    assert os.listdir(tmp_path / "cache" / "peierls") == []  # the failed builds left no temporary
    # argument errors come before any build
    for argv in (["counts", "--k-max", "3"], ["counts", "--k-max", "6", "--max-nodes", "0"], [*simulate, "--c", "1.5"]):
        run = cli(*argv)
        assert run.returncode == 2 and run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, argv
    # below --r 5 the truncated polynomial has no contour events to count
    run = cli("bounds", "--c", "0.9", "--r", "4", "--mode", "analytic", "--out", str(tmp_path / "run"))
    assert run.returncode == 0, run.stderr
    run = cli("manifest", str(tmp_path / "run.manifest.json"))
    assert run.returncode == 0 and run.stdout == "ok: 2 outputs reproduced\n", run.stderr
    assert os.listdir(tmp_path / "cache" / "peierls") == []


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def test_manifest_show_and_check(tmp_path, capsys):
    prefix = tmp_path / "run"
    assert main(["counts", "--k-max", "6", "--out", str(prefix)]) == 0
    manifest_path = tmp_path / "run.manifest.json"
    assert manifest_path.exists()

    code, out = run(["manifest", str(manifest_path), "--show"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "counts"
    assert set(doc["outputs"]) == {"run.csv", "run_classes.csv", "run.json"}

    code, out = run(["manifest", str(manifest_path)], capsys)
    assert code == 0
    assert "ok" in out


_SMALL_COMMANDS = st.one_of(
    st.builds(
        lambda k, rule, fmt: ["counts", "--k-max", str(k), "--rule", rule, "--format", fmt],
        st.integers(4, 8),
        st.sampled_from(["five", "seven"]),
        st.sampled_from(["csv", "json"]),
    ),
    st.builds(
        lambda c, r, mode, k: ["bounds", "--c", repr(c), "--r", str(r), "--mode", mode, "--k-max", str(k)],
        st.floats(0.81, 0.99),
        st.integers(4, 9),
        st.sampled_from(["analytic", "exact", "sa"]),
        st.integers(4, 7),
    ),
    st.builds(
        lambda L, c, trials, seed, obs: [
            "simulate", "--L", str(L), "--c", repr(c), "--trials", str(trials), "--seed", str(seed),
            "--observable", obs,
        ],
        st.integers(1, 10),
        st.floats(0.0, 1.0),
        st.integers(1, 60),
        st.integers(0, (1 << 64) - 1),
        st.sampled_from(["reach", "crossing"]),
    ),
    st.builds(
        lambda L, trials, seed: ["simulate", "--L", str(L), "--bisect", "--trials", str(trials), "--seed", str(seed)],
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(0, 1000),
    ),
)


@settings(max_examples=15, deadline=None)
@given(_SMALL_COMMANDS)
def test_manifest_round_trips(argv):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "run.manifest.json")
        assert main([*argv, "--out", os.path.join(tmp, "run")]) == 0
        assert main(["manifest", manifest]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--L", "-1", "--c", "0.5", "--trials", "10"],
        ["simulate", "--L", "0", "--c", "0.5", "--trials", "10"],
        ["simulate", "--L", "8", "--bisect", "--trials", "0"],
        ["simulate", "--L", "8", "--bisect", "--tol", "nan", "--trials", "10"],
        ["manifest", "{tmp}/missing.manifest.json"],
        ["manifest", "{tmp}/noargv.manifest.json"],
        ["bounds", "--sweep", "0.81:0.99:1e-7", "--r", "4"],
        ["simulate", "--L", "8", "--bisect", "--tol", "2", "--trials", "50"],
        ["simulate", "--L", "8", "--c", "0.5", "--trials", "10", "--workers", "-3"],
        ["counts", "--k-max", "6", "--max-nodes", "-1"],
        ["manifest", "{tmp}/nooutputs.manifest.json"],
        ["manifest", "{tmp}/listoutputs.manifest.json"],
        ["manifest", "{tmp}/outlast.manifest.json"],
        ["manifest", "{tmp}/emptyoutputs.manifest.json"],
        ["counts", "--k-max", "6", "--out", "{tmp}/missing/run"],
        ["bounds", "--c", "0.9", "--r", "6", "--out", "{tmp}/missing/run"],
        ["simulate", "--L", "4", "--c", "0.6", "--trials", "10", "--out", "{tmp}/missing/run"],
        ["simulate", "--L", "4", "--c", "0.6", "--trials", "10", "--out", "{tmp}/taken"],
        ["counts", "--k-max", "6", "--out", "{tmp}/"],
    ],
)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "noargv.manifest.json").write_text(json.dumps({"command": "counts", "outputs": {}}))
    (tmp_path / "taken.csv").mkdir()  # an output path the write cannot open
    rerun = ["counts", "--k-max", "6", "--out", str(tmp_path / "run")]
    (tmp_path / "nooutputs.manifest.json").write_text(json.dumps({"argv": rerun}))
    (tmp_path / "listoutputs.manifest.json").write_text(json.dumps({"argv": rerun, "outputs": []}))
    (tmp_path / "outlast.manifest.json").write_text(json.dumps({"argv": rerun[:-1], "outputs": {}}))
    (tmp_path / "emptyoutputs.manifest.json").write_text(json.dumps({"argv": rerun, "outputs": {}}))
    code = main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # a prefix that names a directory writes nothing into it
    assert not {".csv", ".json", ".manifest.json", "_classes.csv"} & set(os.listdir(tmp_path))


def test_manifest_detects_tampering(tmp_path, capsys):
    prefix = tmp_path / "run"
    assert main(["counts", "--k-max", "6", "--out", str(prefix)]) == 0
    manifest_path = tmp_path / "run.manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["outputs"]["run.csv"] = "sha256:" + "0" * 64
    manifest_path.write_text(json.dumps(doc))
    code = main(["manifest", str(manifest_path)])
    capsys.readouterr()
    assert code == 1


# Per command and flag: valid values, the edges of the valid range among
# them, and bad values (NaN, infinite, negative, huge, non-numeric, a
# missing directory).  Valid sizes stay small, so that no draw runs long or
# starts many processes; oversized ones must be refused before any work.
_BAD_NUMBERS = ["nan", "inf", "-1", "abc", "", "1e400", str(10**30)]
_C = (["0.9", "0.85", "0", "1", "0.8", "0.81"], ["-0.5", "1.5", *_BAD_NUMBERS])
_FORMAT = (["csv", "json"], ["xml"])
_RULE = (["five", "seven"], ["six"])
_OUT = (["{tmp}/run"], ["{tmp}/missing/run", "{tmp}/missing/"])
_GRAMMAR = {
    "counts": {
        "--k-max": (["4", "5", "6", "8"], ["3", "0", *_BAD_NUMBERS]),
        "--rule": _RULE,
        "--cluster-cap": (["1", "3", "5", "7"], ["0", "31", *_BAD_NUMBERS]),
        "--max-nodes": (["1", "50", "200000000"], ["0", *_BAD_NUMBERS]),
        "--format": _FORMAT,
        "--out": _OUT,
    },
    "bounds": {
        "--c": _C,
        "--sweep": (
            ["0.81:0.99:0.06", "0.78:0.9:0.04", "0:1:0.5", "0.8:0.8:0.1"],
            ["1:0:0.1", "0.9:1.2:0.1", "nan:1:0.1", "0.8:0.9:inf", "0.5:0.9:0", "0.5:0.9:-0.1", "a:b:c",
             "0.8:0.9", "0.81:0.99:1e-7"],
        ),
        "--r": (["4", "5", "6", "9"], ["3", "0", *_BAD_NUMBERS]),
        "--mode": (["analytic", "exact", "sa"], ["refined"]),
        "--k-max": (["4", "6", "8"], ["3", *_BAD_NUMBERS]),
        "--rule": _RULE,
        "--max-nodes": (["1", "200000000"], ["0", *_BAD_NUMBERS]),
        "--format": _FORMAT,
        "--out": _OUT,
    },
    "simulate": {
        "--L": (["1", "4", "8"], ["0", str(10**9), *_BAD_NUMBERS]),
        "--c": _C,
        "--bisect": ([None], []),
        "--tol": (["0.01", "0.1", "0.5", "0.001"], ["0", "1", "2", "1e-9", *_BAD_NUMBERS]),
        "--trials": (["1", "10", "30"], ["0", str(10**15), *_BAD_NUMBERS]),
        "--seed": (["0", "7", str(2**64 - 1), "-1", str(10**30)], ["nan", "abc", ""]),
        "--observable": (["reach", "crossing"], ["border"]),
        "--workers": (["0", "1", "2", "3"], [str(10**6), *_BAD_NUMBERS]),
        "--format": _FORMAT,
        "--out": _OUT,
    },
    "manifest": {
        "{tmp}/run.manifest.json": ([None], []),
        "--show": ([None], []),
    },
}


#: Flags a command needs (for a concentration, one of two), present unless they are the bad flag.
_REQUIRED = {("counts", "--k-max"), ("bounds", "--c"), ("simulate", "--L"), ("simulate", "--c")}


@st.composite
def cli_argv(draw):
    """An argv of one command: each flag present or not, with a valid value, except at most one bad flag.

    The bad flag gets a bad value, or is left out; a bad command is unknown
    to the parser.  A manifest names a file that does not exist.
    """
    command = draw(st.sampled_from([*_GRAMMAR, "census"]))
    flags = _GRAMMAR.get(command, {})
    bad = draw(st.sampled_from([None, *flags]))
    argv = [command]
    for flag, (valid, invalid) in flags.items():
        if flag == bad:
            value = draw(st.sampled_from([*invalid, "omit"]))
        elif (command, flag) in _REQUIRED or draw(st.booleans()):
            value = draw(st.sampled_from(valid))
        else:
            value = "omit"
        if value != "omit":
            argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv(), threads=st.sampled_from(["1", "2", "3"]))
def test_every_argv_exits_0_2_or_3_with_one_error_line(argv, threads):
    err = io.StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.dict(os.environ, {"PEIERLS_THREADS": threads}),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = main([a.format(tmp=tmp) for a in argv])
        except SystemExit as exc:  # the parser's own errors
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == (code != 0), err
