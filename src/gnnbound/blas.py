"""The OpenBLAS thread pin that sweeps, trainings and filter reports take
for their whole call, so that idle BLAS threads never spin beside them, and
the lanes those calls may run on.

The main thread owns the cores: only it pins, and only it runs on more than
one lane. The count is process-wide, so a sweep pool's threads and a call's
lanes run pinned under the main thread's pin.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
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
