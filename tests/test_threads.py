"""``_threads.run_in_order``: who runs the items, its errors and interrupts,
and the helper threads it keeps."""

import os
import signal
import sys
import threading
import time

import pytest

from mlfas import _threads


def use_cpus(monkeypatch, count):
    """Let the thread plumbing see ``count`` usable CPUs."""
    monkeypatch.setattr(_threads.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture
def helpers(monkeypatch):
    """A process without helper threads; those the test makes are shut down after it."""
    made = {}
    monkeypatch.setattr(_threads, "_helpers", made)
    yield made
    for pools in made.values():
        for pool in pools:
            pool.shutdown()


def wait_for(condition, timeout=10):
    """Whether ``condition()`` holds within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


def in_line(count):
    """The (item, thread) of every item of ``count`` run on the calling thread."""
    return [(i, threading.current_thread()) for i in range(count)]


class TestRunInOrder:
    def test_caller_takes_the_first_item(self, monkeypatch, helpers):
        # all three threads hold an item at once, so each helper has one
        use_cpus(monkeypatch, 3)
        started = threading.Barrier(3, timeout=30)
        ran = {}

        def task(i):
            ran[i] = threading.current_thread()
            started.wait()

        _threads.run_in_order(task, range(3))
        caller = threading.current_thread()
        assert ran[0] is caller
        assert len({ran[1], ran[2], caller}) == 3

    def test_every_item_runs_once(self, monkeypatch, helpers):
        # eight threads on short switch intervals stress the shared hand-out
        use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran = []
                _threads.run_in_order(ran.append, range(500))
                assert sorted(ran) == list(range(500))
        finally:
            sys.setswitchinterval(interval)

    def test_caller_runs_the_items_a_blocked_helper_never_took(self, monkeypatch, helpers):
        use_cpus(monkeypatch, 2)
        # another caller's two items hold it and the helper until released
        release, held, ended = threading.Event(), [], []

        def hold(item):
            held.append(threading.current_thread())
            release.wait(10)
            ended.append(item)

        other = threading.Thread(target=_threads.run_in_order, args=(hold, (0, 1)))
        other.start()
        try:
            assert wait_for(lambda: len(held) == 2)
            ran = []
            _threads.run_in_order(lambda i: ran.append((i, threading.current_thread())),
                                  range(4))
            assert ran == in_line(4)
            assert ended == [] and other.is_alive()
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()

    def test_earliest_error_is_raised_once_every_started_item_ended(self, monkeypatch,
                                                                   helpers):
        use_cpus(monkeypatch, 3)
        started = threading.Barrier(3, timeout=30)
        ended = []

        def task(i):
            started.wait()
            if i == 1:
                time.sleep(0.2)  # item 2 fails first
            ended.append(i)
            if i:
                raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 1"):
            try:
                _threads.run_in_order(task, range(3))
            finally:
                assert sorted(ended) == [0, 1, 2]
        assert ended.index(2) < ended.index(1)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_no_item_starts_after_a_failure(self, monkeypatch, helpers, failing):
        # three helpers exist, but on two CPUs one of them takes items;
        # items 0 (the caller's) and 1 (the helper's) start together and
        # hold both threads, one fails while the other runs on, and then no
        # later item may start
        use_cpus(monkeypatch, 4)
        together = threading.Barrier(4, timeout=30)
        _threads.run_in_order(lambda i: together.wait(), range(4))
        assert len(helpers[os.getpid()]) == 3
        use_cpus(monkeypatch, 2)
        started = threading.Barrier(2, timeout=30)
        calls = []

        def task(i):
            calls.append(i)
            if i < 2:
                started.wait()
            time.sleep(0.1)  # a third thread would start item 2 meanwhile
            if i == failing:
                raise ValueError(f"item {i}")
            time.sleep(0.2)  # the failure comes first

        with pytest.raises(ValueError, match=f"item {failing}"):
            _threads.run_in_order(task, range(8))
        assert sorted(calls) == [0, 1]

    def test_callers_interrupt_beats_a_helpers_error(self, monkeypatch, helpers):
        # the helper's item 1 fails while the caller runs item 2, which is
        # then interrupted; item 3 never starts
        use_cpus(monkeypatch, 2)
        helper_started, caller_on_two, helper_failing = (threading.Event() for _ in range(3))
        calls = []

        def task(i):
            calls.append(i)
            if i == 0:
                assert helper_started.wait(10)  # so that the helper takes item 1
            elif i == 1:
                helper_started.set()
                assert caller_on_two.wait(10)
                helper_failing.set()
                raise ValueError("item 1")
            elif i == 2:
                caller_on_two.set()
                assert helper_failing.wait(10)
                time.sleep(0.1)  # the helper's error is recorded first
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(10)

        with pytest.raises(KeyboardInterrupt):
            _threads.run_in_order(task, range(4))
        assert sorted(calls) == [0, 1, 2]

    def test_one_cpu_or_one_item_starts_no_thread(self, monkeypatch, helpers):
        before = threading.active_count()
        for cpus, count in [(1, 5), (2, 1), (3, 0)]:
            use_cpus(monkeypatch, cpus)
            ran = []
            _threads.run_in_order(lambda i: ran.append((i, threading.current_thread())),
                                  range(count))
            assert ran == in_line(count)
        assert helpers == {}
        assert threading.active_count() == before

    def test_helpers_follow_the_allowed_cpus(self, monkeypatch, helpers):
        # each call needs every allowed CPU's thread at once
        for cpus in (2, 3):
            use_cpus(monkeypatch, cpus)
            together = threading.Barrier(cpus, timeout=30)
            _threads.run_in_order(lambda i: together.wait(), range(cpus))
            assert len(helpers[os.getpid()]) == cpus - 1

    def test_threads_do_not_accumulate_over_calls(self, monkeypatch, helpers):
        use_cpus(monkeypatch, 3)
        before = threading.active_count()
        counts = []
        for _ in range(10):
            together = threading.Barrier(3, timeout=30)
            _threads.run_in_order(lambda i: together.wait(), range(3))
            counts.append(threading.active_count())
        assert counts == [before + 2] * 10
