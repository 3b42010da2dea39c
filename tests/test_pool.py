import gc
import math
import os
import threading
import time

import pytest

from peierls import WorkerDied, estimate_crossing, full_count_table
from peierls.pool import _fan_out


def test_fan_out_ends_running_tasks_when_the_caller_fails(monkeypatch):
    forked = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        with _fan_out([(abs, -1), (time.sleep, 60), (time.sleep, 60)], 2) as results:
            assert next(results) == (0, 1)
            raise KeyError("merge failed")
    assert time.perf_counter() - t0 < 30
    assert len(forked) == 2
    for pid in forked:
        # reaped on the way out: no longer a child of this process
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_fan_out_raises_a_task_error_as_it_comes_in_with_the_worker_traceback():
    # the error of task 1 is raised while task 0 still runs
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="math domain error") as info:
        with _fan_out([(time.sleep, 60), (math.sqrt, -1), (abs, -2)], 2) as results:
            next(results)
    assert time.perf_counter() - t0 < 30
    assert "in the worker process" in str(info.value.__cause__)
    assert "ValueError: math domain error" in str(info.value.__cause__)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fan_out_gives_each_result_with_its_task_index(workers):
    tasks = [(abs, -i) for i in range(10)]
    with _fan_out(tasks, workers) as results:
        assert sorted(results) == [(i, i) for i in range(10)]


def test_a_slow_first_task_holds_back_no_task_after_it():
    # the second worker takes every later task, past any window of tasks ahead, while the first sleeps
    tasks = [(time.sleep, 1.0), *[(abs, -i) for i in range(1, 13)]]
    with _fan_out(tasks, 2) as results:
        order = [index for index, _ in results]
    assert sorted(order) == list(range(13))
    assert order[-1] == 0


def test_fan_out_names_a_worker_that_died_and_a_result_it_cannot_send():
    with pytest.raises(WorkerDied, match=r"^worker process \d+ exited with code 3 before it returned task 1$"):
        with _fan_out([(abs, -1), (os._exit, 3), (abs, -2)], 2) as results:
            list(results)
    with pytest.raises(RuntimeError, match="task 0 gave a result that cannot be pickled"):
        with _fan_out([(eval, "lambda: 0"), (abs, -1)], 2) as results:
            list(results)


def test_workers_inherit_a_frozen_collector_and_the_caller_thaws_after():
    assert gc.get_freeze_count() == 0
    with _fan_out([(gc.get_freeze_count,), (gc.get_freeze_count,)], 2) as results:
        # every object the caller had before the forks is out of the workers' collections
        assert all(n > 0 for _, n in results)
        assert gc.get_freeze_count() > 0
    assert gc.get_freeze_count() == 0
    with pytest.raises(KeyError):
        with _fan_out([(abs, -1), (abs, -2)], 2) as results:
            raise KeyError("merge failed")
    assert gc.get_freeze_count() == 0


def test_a_caller_running_threads_runs_the_tasks_itself(monkeypatch):
    expected = estimate_crossing(8, 0.6, 5000, 3, workers=1)
    table = full_count_table(8, workers=1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:

        def refuse():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", refuse)
        with _fan_out([(abs, -1), (abs, -2), (abs, -3)], 2) as results:
            assert list(results) == [(0, 1), (1, 2), (2, 3)]
        assert estimate_crossing(8, 0.6, 5000, 3, workers=2) == expected
        assert full_count_table(8, workers=3) == table
    finally:
        stop.set()
        thread.join()
