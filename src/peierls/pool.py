"""One pool of forked worker processes for every parallel job of the package.

:func:`_fan_out` runs a lazy stream of tasks ``(fn, *args)`` on ``workers``
forked processes and gives each result back, with its task's index, as the
task finishes.  The census (:mod:`peierls.enumeration`) sends it the
circuit walk and the parts of its shape tree, the Monte Carlo
(:mod:`peierls.montecarlo`) its chunks of trials.  Task functions are
module-level, so a task pickles as the function's name and its arguments.
Both split their work by one rule, :func:`_parts`: one part at one worker,
else a few parts a worker, so that uneven parts even out.

The parent owns no thread and no queue.  Each worker has a task pipe and a
result pipe, and every message on them is pickled behind an 8-byte length:
the parent writes ``(task index, task)`` into a free worker's task pipe and
reads ``(ok, result or exception, traceback text)`` back from its result
pipe.  A worker holds at most one task, so the parent waits on the result
pipes with ``select`` and reads one reply whole.  Closing a task pipe stops
its worker.  The parent pays a fork per worker and little else: no
``multiprocessing`` import at start-up, and none of the threads, locks and
queues of a ``concurrent.futures`` pool, which took half of the CPU time a
``bounds`` command spends outside its workers.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import threading
from contextlib import contextmanager
from itertools import chain, islice
from typing import Iterable, Iterator

from .errors import WorkerDied

#: Parts of a job per worker process, so that uneven parts even out.
_PARTS_PER_WORKER = 4


def _parts(workers: int) -> int:
    """Parts a job is split into for ``workers`` processes: one at one worker, else ``_PARTS_PER_WORKER`` a worker."""
    return 1 if workers == 1 else _PARTS_PER_WORKER * workers


@contextmanager
def _fan_out(tasks: Iterable[tuple], workers: int) -> Iterator[Iterator[tuple[int, object]]]:
    """``fn(*args)`` for each task ``(fn, *args)``, spread over ``workers`` forked processes.

    Used as ``with _fan_out(tasks, workers) as results``: ``results`` yields
    a pair ``(task index, result)`` for each task as it finishes, in the
    order the tasks finish, so every caller merges its results in a way
    that does not depend on their order.  A task's exception is raised as
    soon as it comes in, with the worker's traceback as its cause.  Tasks
    start in order, each drawn from ``tasks`` as soon as a worker is free,
    so a long first task holds back none after it, and a stream of any
    length holds at most one task and one result a worker at a time.
    Leaving the ``with`` block ends the running tasks, starts no others and
    reaps the workers, so a caller that fails on an early result does not
    wait for the rest.  A worker that dies raises :class:`WorkerDied`.

    The tasks run in the caller instead, in order, at one worker, for fewer
    than two tasks, and when the caller runs other threads, since a forked
    child keeps only the forking thread and could inherit a lock another
    one holds.  The results never depend on where the tasks ran.
    """
    tasks = iter(tasks)
    head = list(islice(tasks, 2))
    tasks = chain(head, tasks)
    if workers == 1 or len(head) < 2 or threading.active_count() > 1:
        yield ((index, fn(*args)) for index, (fn, *args) in enumerate(tasks))
        return
    # no collection, in the parent or a worker, walks (and so copies the pages of) the objects made before the forks
    gc.freeze()
    pool = _ForkPool(tasks, workers)
    try:
        pool.feed()
        yield pool.results()
    finally:
        pool.close()
        gc.unfreeze()


class _ForkPool:
    """Up to ``size`` forked workers that run a stream of tasks, each next task on the first one free."""

    def __init__(self, tasks: Iterator[tuple], size: int):
        self.tasks = enumerate(tasks)
        self.size = size
        #: Result pipe -> (pid, task pipe, running task index or None); every worker not yet reaped.
        self.workers: dict[int, tuple[int, int, int | None]] = {}

    def feed(self) -> None:
        """Hand the next tasks to the free workers, forking up to ``size``."""
        idle = [fd for fd, (_, _, index) in self.workers.items() if index is None]
        while idle or len(self.workers) < self.size:
            drawn = next(self.tasks, None)
            if drawn is None:
                return
            index, task = drawn
            fd = idle.pop() if idle else self._fork()
            pid, task_w, _ = self.workers[fd]
            self.workers[fd] = (pid, task_w, index)
            data = pickle.dumps((index, task))
            try:
                _write_all(task_w, len(data).to_bytes(8, "little") + data)
            except BrokenPipeError:
                raise self._lost(fd) from None

    def _fork(self) -> int:
        """Fork one more worker and return its result pipe."""
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the parent's ends of every worker's pipes, so that each task pipe ends with the parent
                for fd in [task_w, result_r, *self.workers, *(w[1] for w in self.workers.values())]:
                    os.close(fd)
                _work(task_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self.workers[result_r] = (pid, task_w, None)
        return result_r

    def results(self) -> Iterator[tuple[int, object]]:
        while running := [fd for fd, (_, _, index) in self.workers.items() if index is not None]:
            for index, (ok, value, trace) in self._receive(running):
                if not ok:
                    value.__cause__ = RuntimeError(f"in the worker process:\n{trace}")
                    raise value
                yield index, value

    def _receive(self, running: list[int]) -> list[tuple[int, tuple]]:
        """Wait for at least one reply from the result pipes ``running``, hand out the next tasks, and return the replies by task index."""
        ready, _, _ = select.select(running, [], [])
        replies = []
        for fd in ready:
            pid, task_w, index = self.workers[fd]
            head = _read_exact(fd, 8)
            size = int.from_bytes(head, "little") if len(head) == 8 else -1
            reply = _read_exact(fd, size) if size > 0 else b""
            if len(reply) != size:
                raise self._lost(fd)
            replies.append((index, pickle.loads(reply)))
            self.workers[fd] = (pid, task_w, None)
        self.feed()
        return replies

    def _lost(self, fd: int) -> WorkerDied:
        """Reap the worker at result pipe ``fd``, which ended before it returned its task, and name it."""
        pid, task_w, index = self.workers.pop(fd)
        os.close(task_w)
        os.close(fd)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return WorkerDied(f"worker process {pid} {how} before it returned task {index}")

    def close(self) -> None:
        """Stop the workers still running a task, reap every worker and close the pipes."""
        for fd, (pid, task_w, index) in self.workers.items():
            if index is not None:
                os.kill(pid, signal.SIGTERM)
            os.close(task_w)
        for fd, (pid, _, _) in self.workers.items():
            os.waitpid(pid, 0)
            os.close(fd)
        self.workers.clear()


def _work(task_r: int, result_w: int) -> None:
    """Body of a forked worker: run the tasks that come in on ``task_r`` until the parent closes it."""
    while True:
        head = _read_exact(task_r, 8)
        if len(head) < 8:
            return
        index, (fn, *args) = pickle.loads(_read_exact(task_r, int.from_bytes(head, "little")))
        try:
            reply = (True, fn(*args), "")
        except BaseException as exc:
            import traceback

            reply = (False, exc, "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)))
        try:
            data = pickle.dumps(reply)
        except Exception as exc:
            what = "result" if reply[0] else "exception"
            error = RuntimeError(f"task {index} gave a {what} that cannot be pickled: {exc!r}")
            data = pickle.dumps((False, error, reply[2]))
        _write_all(result_w, len(data).to_bytes(8, "little") + data)


def _read_exact(fd: int, n: int) -> bytes:
    """``n`` bytes from ``fd``, fewer only at end of file."""
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            break
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
