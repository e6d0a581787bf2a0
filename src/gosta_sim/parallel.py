"""The CPUs this process may use, and a snake-order split over threads.

``harness`` sizes its fork pool with :func:`available_cpus`. ``kernels``
splits the row blocks of the kernel-matrix build with :func:`on_threads`,
whose threads never outlive the call, so the pool is still forked from a
single-threaded process.
"""

from __future__ import annotations

import os
import threading
from typing import Callable


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
