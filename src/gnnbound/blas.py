"""The OpenBLAS thread pin and the core hold that sweeps, trainings and filter
reports share.

A pin runs every matrix product on the thread that calls it. A sweep (at any
worker count) and a filter report pin OpenBLAS for their whole call, so its
threads never spin beside work that does not use them. A hold says who runs
on the cores: a sweep pool's threads, or a training's lanes. A training
that finds no other holder has the cores to itself.
"""

from __future__ import annotations

import ctypes
import functools
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


# How many blocks pin OpenBLAS and how many hold the cores, and the
# process-wide OpenBLAS thread count from before the first pin.
_lock = threading.Lock()
_pins = 0
_holds = 0
_threads_before = 0


@contextmanager
def single_threaded_blas():
    """Run the block with one OpenBLAS thread per calling thread.

    In pthread builds of OpenBLAS the setter changes the count for the whole
    process, so the count from before the first of any overlapping pins is
    restored when the last one ends. Without OpenBLAS the BLAS runs as is.
    """
    global _pins, _threads_before
    setter = _openblas_thread_setter()
    with _lock:
        if _pins == 0 and setter is not None:
            _threads_before = setter(1)
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0 and setter is not None:
                setter(_threads_before)


@contextmanager
def hold_cores():
    """Run the block pinned (single_threaded_blas) and holding the cores;
    yields True when no other block held them on entry, so this one has them
    all. Only a sweep pool and a training hold the cores."""
    global _holds
    with single_threaded_blas():
        with _lock:
            alone = _holds == 0
            _holds += 1
        try:
            yield alone
        finally:
            with _lock:
                _holds -= 1
