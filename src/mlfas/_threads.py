"""The thread plumbing of ``poisson``, ``nets`` and ``harness``.

``poisson.generate_dataset`` solves its chunks, and ``nets.backward`` the
two row halves of a large batch, through ``run_in_order``, which shares
them between the calling thread and the process's helper threads.
``harness`` runs each seed's evaluation worker through ``submit``, and that
worker calls ``leave_start_cpu`` and ``lower_priority``.  The rest of
training runs on the thread that calls it.  When to use another thread
stays with the module that decides it.
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


# the helper threads' executors of each process, by pid: a forked child
# inherits its parent's executors but not their threads, so it makes its own
_helpers = {}


def run_in_order(task, items) -> None:
    """Call ``task`` on every one of the sequence ``items``.

    The calling thread takes the first item.  The rest go, in order, to
    whichever is free: the caller or one of the process's helper threads,
    one per CPU the caller may use past the first, and no more than items
    past the first.  An item no helper has taken by the time the caller is
    free is run by the caller, so a busy helper delays nothing.  With one
    CPU or one item the calls run in line and no thread starts.  A helper
    is made on first use, moves off the CPU it started on
    (``leave_start_cpu``) and waits idle between calls; each item runs
    through ``submit``, in the caller's context.

    After a failure no further item starts, and once every started item
    has ended the error of the earliest failed item is raised.  An
    interrupt of the caller wins over an item's error and starts no further
    item either.  The calling thread holds SIGINT back while it hands its
    helpers their work, so that an interrupt cannot leave a helper working
    on the call after it has ended.
    """
    workers = min(allowed_cpus(), len(items))
    if workers <= 1:
        for item in items:
            task(item)
        return
    lock = threading.Lock()
    order = iter(range(1, len(items)))  # item 0 is the caller's
    failed = {}  # the error of every failed item, by index
    stop = False

    def take():
        with lock:
            return None if stop else next(order, None)

    def work(i, caller=False):
        nonlocal stop
        while i is not None:
            try:
                task(items[i])
            except BaseException as error:
                with lock:
                    stop = True
                    failed[i] = error
                if caller and isinstance(error, KeyboardInterrupt):
                    raise
                return
            i = take()

    helpers = _helpers.setdefault(os.getpid(), [])
    while len(helpers) < workers - 1:
        helpers.append(futures.ThreadPoolExecutor(
            1, thread_name_prefix="mlfas-helper", initializer=leave_start_cpu))
    with _sigint_held():
        shares = [submit(helper, lambda: work(take())) for helper in helpers[:workers - 1]]
    try:
        work(0, caller=True)
    finally:
        with lock:
            stop = True
        # a cancelled share counts as done only once its helper reaches it
        futures.wait([share for share in shares if not share.cancel()])
    if failed:
        raise failed[min(failed)]


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
