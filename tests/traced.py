"""Peak-memory measurement shared by the memory tests."""
from __future__ import annotations

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """Call fn(*args, **kwargs) under tracemalloc.

    Returns (the call's result, its traced peak in bytes above the
    traced memory at its start).  Only allocations made during the call
    are traced, so the inputs are not counted.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
