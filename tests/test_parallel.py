import os
import signal
import time

import pytest

from gosta_sim import parallel

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


class Interrupted(Exception):
    pass


@pytest.fixture(autouse=True)
def alarm():
    """``alarm(seconds)`` raises Interrupted in this process after that
    many seconds; a forked child inherits no timer. Each test starts with
    60 seconds, so a hang fails it instead of stalling the suite."""
    def interrupt(signum, frame):
        raise Interrupted

    old = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 60)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def two_cpus(monkeypatch):
    # two children even on a one-CPU host, so the forked path always runs
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_values_come_back_in_index_order(two_cpus):
    # job 0 holds one child for half a second while the other takes every
    # later job from the queue; a fixed split would give it jobs 3, 4, ...
    def job(i):
        if i == 0:
            time.sleep(0.5)
        return i * i, os.getpid()

    got = parallel.on_forks(job, 12)
    assert [value for value, _ in got] == [i * i for i in range(12)]
    pids = [pid for _, pid in got]
    assert os.getpid() not in pids
    assert pids[0] not in pids[1:]
    assert_no_child_left()


def test_one_cpu_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    assert parallel.on_forks(lambda i: (i, os.getpid()), 3) == [
        (i, os.getpid()) for i in range(3)]


@pytest.mark.parametrize("cpus", [2, 5])
def test_more_jobs_than_one_pipe_buffer_holds(monkeypatch, cpus):
    # 20000 eight-byte job numbers are more than a 64 KiB pipe buffer; five
    # children outnumber the cores of a small host, so their reads contend
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    assert parallel.on_forks(lambda i: i, 20000) == list(range(20000))
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_lowest_failing_index_is_raised(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)

    def job(i):
        if i in (2, 5, 7):
            raise ValueError(f"job {i} failed")
        return i

    with pytest.raises(ValueError, match="^job 2 failed$"):
        parallel.on_forks(job, 10)
    assert_no_child_left()



def test_failed_children_empty_the_queue(two_cpus, alarm):
    # jobs 0 and 1 fail with results larger than a pipe buffer; were the
    # queue left full, its writer and both children would wait on each other
    alarm(20)

    def job(i):
        if i < 2:
            raise ValueError(str(i) * 100000)
        return i

    with pytest.raises(ValueError) as info:
        parallel.on_forks(job, 20000)
    assert str(info.value) == "0" * 100000
    assert_no_child_left()

def test_queue_of_children_that_all_died_is_reported(two_cpus, alarm):
    # each child dies on its first job, so the queue's writer finds no
    # reader left before it has written 20000 job numbers
    alarm(20)
    with pytest.raises(RuntimeError) as info:
        parallel.on_forks(lambda i: os._exit(3), 20000)
    assert str(info.value) == ("a worker process exited with status 3 "
                               "before sending its results")
    assert_no_child_left()


def test_cpus_without_affinity_are_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, cpus in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert parallel.available_cpus() == cpus


@pytest.mark.parametrize("leave, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "a worker process was killed by signal SIGKILL"),
    (lambda: os._exit(3),
     "a worker process exited with status 3 before sending its results"),
], ids=["sigkill", "exit"])
def test_child_that_dies_is_reported(two_cpus, leave, message):
    def job(i):
        if i == 1:
            leave()
        time.sleep(0.01)
        return i

    with pytest.raises(RuntimeError) as info:
        parallel.on_forks(job, 20)
    assert str(info.value) == message
    assert_no_child_left()


def test_unpicklable_result_is_reported(two_cpus, capfd):
    with pytest.raises(RuntimeError, match="exited with status 1"):
        parallel.on_forks(lambda i: (lambda: i), 4)
    assert_no_child_left()
    assert "pickle" in capfd.readouterr().err


def test_interrupted_parent_leaves_no_child(two_cpus, alarm):
    alarm(0.3)
    with pytest.raises(Interrupted):
        parallel.on_forks(lambda i: time.sleep(30), 4)
    assert_no_child_left()
