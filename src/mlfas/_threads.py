"""The thread plumbing that ``poisson``, ``nets``, ``training`` and ``harness`` share.

When to use another thread stays with the module that decides it.
"""

import contextlib
import contextvars
import os
import signal
import threading
from concurrent import futures


def allowed_cpus() -> int:
    """How many CPUs the calling thread may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def submit(pool: futures.Executor, fn, *args) -> futures.Future:
    """``pool.submit(fn, *args)``, with ``fn`` run in a copy of the caller's context.

    numpy keeps ``np.errstate`` in a context variable, which a thread does
    not inherit; the caller's settings must hold where ``fn`` runs.
    """
    return pool.submit(contextvars.copy_context().run, fn, *args)


def _renew_helper() -> None:
    """Make the executor of the process's one helper thread.

    ``nets.backward`` hands it large weight products, with the smoother's
    SGD step behind each, and ``training.v_cycle`` the fine level's tau
    gradients, never both at once, so one thread serves both.  The
    executor starts the thread on first use, with the CPU affinity of the
    thread that uses it.  Unlike the harness's evaluation worker, the helper
    is not moved off its creator's CPU, nor pinned to the evaluation
    worker's, where it would only take turns with that worker.  A forked
    child gets an executor of its own: it inherits the parent's but not its
    thread, and would wait forever on the helper.
    """
    global _helper
    _helper = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="mlfas-helper")


_renew_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_helper)


def beside(fn, *args) -> futures.Future:
    """The future of ``fn(*args)``, run beside the calling thread if it may.

    With at least two CPUs allowed to the calling thread, ``fn`` runs on
    the helper thread, through ``submit``.  Otherwise it runs here, before
    the call returns, and an ``Exception`` it raises is kept in the future,
    as the helper would keep it, so the caller ends its own work before it
    meets the error either way.  ``fn`` must not itself wait on
    the helper, which would then queue behind itself.
    """
    if allowed_cpus() >= 2:
        return submit(_helper, fn, *args)
    done = futures.Future()
    try:
        done.set_result(fn(*args))
    except Exception as e:
        done.set_exception(e)
    return done


def run_in_order(task, items) -> None:
    """Call ``task`` on every one of the sequence ``items``, on worker threads.

    There are as many threads as CPUs the calling thread may use, and no
    more than items; with one, the calls run in line on the calling thread.
    Items start in order, each through ``submit``.  After a failure no
    further item starts, and the error of the earliest failed item is
    raised once every started item has ended.  An interrupted caller
    cancels the items that have not started.  No thread outlives the call:
    the pool starts its threads while the items are submitted, and an
    interrupt that landed between a thread's start and the pool's record of
    it would leave that thread unjoined, so the calling thread holds SIGINT
    back until every item is submitted.
    """
    workers = min(allowed_cpus(), len(items))
    if workers <= 1:
        for item in items:
            task(item)
        return
    stop = False

    def guarded(item):
        nonlocal stop
        if stop:
            return
        try:
            task(item)
        except BaseException:
            stop = True
            raise

    pool = futures.ThreadPoolExecutor(workers)
    try:
        with _sigint_held():
            runs = [submit(pool, guarded, item) for item in items]
        futures.wait(runs)
    finally:
        stop = True  # an interrupted caller starts no further item either
        pool.shutdown(cancel_futures=True)
    for run in runs:
        run.result()


@contextlib.contextmanager
def _sigint_held():
    """Block SIGINT for the calling thread while the block runs.

    A SIGINT sent meanwhile arrives when the block ends.  Threads started
    in the block inherit the mask, which costs nothing, since Python runs
    signal handlers on the main thread only.  Without
    ``signal.pthread_sigmask`` nothing is held.
    """
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def leave_start_cpu() -> None:
    """Move the calling thread onto the process's other CPUs, if it has any.

    A new thread starts on its creator's CPU.  Where the kernel does not
    balance load between CPUs (a cpuset with ``sched_load_balance`` 0) it
    never leaves it, so a worker would share its creator's CPU and
    time-slice with it instead of overlapping it.  Placement is only a
    hint: without the Linux calls, or if they fail, the thread stays put.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        # field 39 of a task's stat line is the CPU it last ran on
        with open("/proc/thread-self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except OSError:
        pass


def lower_priority() -> None:
    """Give the calling thread the lowest scheduling priority (nice 19).

    On Linux the call acts on the calling thread alone.  Another thread of
    the process then preempts it whenever both want the same CPU.  Like the
    placement hint, the priority is only a hint: without the call, or if it
    fails, the thread keeps its priority.
    """
    if not hasattr(os, "setpriority"):
        return
    try:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
    except OSError:
        pass
