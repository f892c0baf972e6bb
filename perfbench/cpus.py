"""Spread one thread's work evenly over every CPU the process may use.

On a shared host each CPU's speed depends on what else runs on its core,
and that changes over minutes.  A single-threaded run left on one CPU
measures that CPU's neighbours, so two runs of the same code can differ by
a factor of two.  Moving the thread to the next CPU for each block of work
makes every run sample all of them alike.  Linux only.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


def allowed() -> list[int]:
    """CPUs this process may run on, in ascending order."""
    return sorted(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu: int):
    """Run the body on one CPU, then restore the previous affinity."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)
