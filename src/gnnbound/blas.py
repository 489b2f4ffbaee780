"""The OpenBLAS thread pin that sweeps, trainings, risks and filter reports
take for their whole call, so that idle BLAS threads never spin beside them,
and the lanes that trainings and risks run their work on.

The main thread owns the cores: only it pins, and only it runs on more than
one lane. The count is process-wide, so a sweep pool's threads and the lane
threads run pinned under the main thread's pin. The process has one set of
lane threads, started by the first call that needs them.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas_thread_setter():
    """openblas_set_num_threads_local of the OpenBLAS NumPy loaded, or None
    when NumPy uses another BLAS."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so")):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


# The OpenBLAS thread count to restore when the main thread's outermost pin
# ends; None outside a pin.
_restore: int | None = None


def on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lane_count() -> int:
    """The lanes a call may run its work on: one per usable CPU on the main
    thread, one (the calling thread) anywhere else."""
    return _usable_cpus() if on_main_thread() else 1


@functools.cache
def _lane_threads() -> ThreadPoolExecutor:
    """The process's lane threads, each started when a call first needs it."""
    return ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1), thread_name_prefix="lane")


# A forked child has none of its parent's threads, so it starts its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_lane_threads.cache_clear)


def on_lanes(fn, items) -> list:
    """[fn(item) for item in items], the first item on the calling thread and
    each other one on a lane thread, in a copy of the caller's context (so
    np.errstate holds there). Returns, or raises the error of the first item
    that failed, only once every call has finished.

    Only the main thread has more than one lane (lane_count): a lane thread
    that handed on more items could wait for a lane that is waiting for it.
    """
    if len(items) < 2:
        return [fn(item) for item in items]
    lanes = _lane_threads()
    futures = [lanes.submit(contextvars.copy_context().run, fn, item) for item in items[1:]]
    try:
        first = fn(items[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


@contextmanager
def single_threaded_blas():
    """Run the block with one OpenBLAS thread when called on the main thread
    outside another pin, restoring the count from before on exit. Anywhere
    else, and without OpenBLAS, the block runs with the count as it is."""
    global _restore
    setter = _openblas_thread_setter()
    if setter is None or _restore is not None or not on_main_thread():
        yield
        return
    _restore = setter(1)
    try:
        yield
    finally:
        setter(_restore)
        _restore = None
