"""The CPUs this process may use, a snake-order split over threads and a
job queue over forked children, with no ``multiprocessing`` import.

``harness`` runs the jobs of an experiment or of ``simulate`` with
:func:`on_forks`. ``kernels`` splits the row blocks of the kernel-matrix
build with :func:`on_threads`, whose threads never outlive the call, so
the children are still forked from a single-threaded process.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from typing import BinaryIO, Callable

# Job numbers go down the queue pipe as fixed-width records, in writes of
# at most POSIX's least PIPE_BUF, which are atomic, so a read gets a record.
_WIDTH = 8
_CHUNK = 512 // _WIDTH


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def on_threads(work: Callable[[list[int]], None], count: int) -> None:
    """Call ``work`` once per part of ``range(count)`` split over
    ``min(available_cpus(), count)`` threads in snake order: the indices go
    out in rounds of p, one per part, to parts 0, 1, ..., p - 1 and in the
    next round from p - 1 back to 0. Where the cost falls along the range,
    as row block i of the kernel build owns ``count - i`` tile pairs, the
    parts get near-equal shares. The calling thread runs part 0, so one
    part starts no thread. Every thread is joined before this returns, also
    when a part raises; then the error of the lowest failing part is
    raised."""
    parts = max(1, min(available_cpus(), count))
    shares: list[list[int]] = [[] for _ in range(parts)]
    for index in range(count):
        turn, k = divmod(index, parts)
        shares[parts - 1 - k if turn % 2 else k].append(index)
    errors: list[BaseException | None] = [None] * parts

    def run(k: int) -> None:
        try:
            work(shares[k])
        except BaseException as exc:  # raised again once all are joined
            errors[k] = exc

    started = []
    try:
        for k in range(1, parts):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def on_forks(job: Callable[[int], object], count: int) -> list:
    """``[job(i) for i in range(count)]`` from ``min(available_cpus(),
    count)`` forked children, so ``job`` may be any closure: they inherit
    all it reaches copy-on-write. Each takes the next index from one pipe
    when it is free, until the queue is empty or a job fails, then sends
    back one pickle of its ``(index, ok, value or exception)`` list; a
    child whose job failed empties the queue unrun, so the others stop
    after their current job and the queue's writer never blocks. This
    process runs no job and reaps every child, also when interrupted; it
    raises the exception of the lowest failing index, as a serial run
    would, or a RuntimeError naming how a child died without reporting.
    The jobs run here instead with one worker, without ``os.fork``, beside
    other threads (a child could inherit a held lock) or in a daemonic
    ``multiprocessing`` process, which may not have children."""
    workers = min(available_cpus(), count)
    mp = sys.modules.get("multiprocessing")
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1
            or (mp is not None and mp.current_process().daemon)):
        return [job(i) for i in range(count)]
    import signal  # here, not on every command's import path
    _flush_std()  # or each child would write the buffers again
    r, w = os.pipe()
    tasks, queue = open(r, "rb", buffering=0), open(w, "wb", buffering=0)
    results: dict[int, BinaryIO] = {}  # pid: the read end of its pipe
    values, errors = {}, {}
    try:
        for _ in range(workers):
            r, w = os.pipe()
            out, back = open(r, "rb"), open(w, "wb")
            pid = os.fork()
            if pid == 0:
                _serve(job, tasks, back, (queue, out, *results.values()))
            back.close()
            results[pid] = out
        tasks.close()  # the children hold the only read ends
        try:
            for start in range(0, count, _CHUNK):
                queue.write(b"".join(
                    i.to_bytes(_WIDTH, "little")
                    for i in range(start, min(count, start + _CHUNK))))
        except BrokenPipeError:  # every child has gone; reported below
            pass
        queue.close()
        for pid in list(results):
            with results[pid] as out:
                data = out.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del results[pid]
            if code < 0:
                raise RuntimeError(f"a worker process was killed by signal "
                                   f"{signal.Signals(-code).name}")
            if code or not data:
                raise RuntimeError(f"a worker process exited with status "
                                   f"{code} before sending its results")
            for i, ok, value in pickle.loads(data):
                (values if ok else errors)[i] = value
    finally:
        for f in (tasks, queue, *results.values()):
            f.close()
        for pid in results:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if errors:
        raise errors[min(errors)]
    return [values[i] for i in range(count)]


def _serve(job: Callable[[int], object], tasks: BinaryIO, back: BinaryIO,
           unused: tuple[BinaryIO, ...]) -> None:
    """Run a child of :func:`on_forks` to its end by ``os._exit``, never
    returning into the parent's code. It first closes the parent's ends it
    inherited, the queue's write end above all, or the queue never ends."""
    code = 1
    try:
        for f in unused:
            f.close()
        done, failed = [], False
        while data := tasks.read(_WIDTH):
            if failed:
                continue
            i = int.from_bytes(data, "little")
            try:
                done.append((i, True, job(i)))
            except BaseException as exc:  # raised in the parent
                done.append((i, False, exc))
                failed = True
        with back:
            back.write(pickle.dumps(done))
        _flush_std()
        code = 0
    except BaseException:
        import traceback
        traceback.print_exc()
    finally:
        os._exit(code)


def _flush_std() -> None:
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()
