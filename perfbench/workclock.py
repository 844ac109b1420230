"""A clock that ticks with the speed of the host's CPU, not with wall time.

The benchmark runs on a VM on a shared host. The speed of each vCPU there
changes by up to ~2x as other tenants come and go, within seconds and for
minutes at a time, and each vCPU changes on its own. Wall times of the same
compile taken minutes apart therefore differ by more than the regressions
the benchmark has to catch: the median compile wall time of ten runs spread
by 19-37% of its median on a 2-vCPU x86-64 VM.

`WorkClock` pins this process to one CPU and forks a spinner pinned to the
same CPU. The spinner runs a fixed unit of pure-Python work in a loop and
counts the units in shared memory. The kernel splits that CPU evenly, in
slices of a few milliseconds, between the spinner and whatever else is
runnable there: the compile, or a child process the benchmark waits for.
Both therefore run at the same host speed, and the units the spinner
completes while a compile runs measure the compile's CPU work independently
of that speed. `seconds(ticks)` converts them to the time the work takes
alone on a CPU where one unit takes `UNIT_S`; in wall time a process that
shares the CPU with the spinner takes about twice as long.

A unit mixes the kinds of work the compiler spends its time on: a regex
tokenizer, and interpreted method calls and tuple comparisons over a list
of small objects. Over five runs each, the normalised fanout_sugar compile
spread by 16% of its median with the tokenizer alone and by 10% with this
mix; a unit that also chased pointers through a ring larger than the caches
spread it by 14% and slowed the compile sharing its CPU by ~1.8x.

The spinner exits when this process does, and `close()` kills and reaps it.
"""

from __future__ import annotations

import gc
import mmap
import os
import re
import signal
import sys

# Seconds one `_unit()` took alone on a vCPU of the reference host (2-vCPU
# Intel Xeon VM, CPython 3.11) when it was measured. A fixed constant, so
# that normalised times compare across runs and commits; it only scales them.
UNIT_S = 45e-6

_TOKEN = re.compile(r"\w+|[^\w\s]")
_LINE = ("impl fan_i of fan_s { instance lane_0(tap_i<type pixel_stream>), "
         "inputs[0] => lane_0.input, }")


class _End:
    """A connection end, as the compiler's sugaring pass compares them."""
    __slots__ = ("owner", "port", "index")

    def __init__(self, owner, port, index):
        self.owner, self.port, self.index = owner, port, index

    def key(self):
        return (self.owner, self.port, self.index)


_ENDS = [_End(f"lane_{i // 3}", ("input", "output", "tap")[i % 3], None)
         for i in range(150)]
_KEY = ("lane_7", "tap", None)


def _unit() -> int:
    """A fixed slice of the kind of work the compiler does: split a line into
    tokens and build a dict of small tuples, then scan connection ends for a
    key."""
    table = {}
    for i, token in enumerate(_TOKEN.findall(_LINE)):
        table[token] = (i, token.upper())
    hits = 0
    for end in _ENDS:
        if end.key() == _KEY:
            hits += 1
    return hits


def _spin(count, parent: int):
    n = 0
    while os.getppid() == parent:
        for _ in range(16):
            _unit()
        n += 16
        count[0] = n


class WorkClock:
    """Units of work the spinner completed; see the module docstring."""

    def __init__(self):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except (AttributeError, OSError) as e:
            print(f"workclock: cannot pin to one CPU ({e}); times are "
                  "normalised less well", file=sys.stderr)
        self._shared = mmap.mmap(-1, 8)
        self._count = memoryview(self._shared).cast("Q")
        parent = os.getpid()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:  # the spinner; it inherits the pinning
            try:
                gc.disable()
                _spin(self._count, parent)
            finally:
                os._exit(0)
        while self.read() == 0:  # until it has started spinning
            if os.waitpid(self.pid, os.WNOHANG)[0]:
                self.pid = 0
                raise RuntimeError("workclock: the spinner exited at start")
            os.sched_yield()

    def read(self) -> int:
        return self._count[0]

    @staticmethod
    def seconds(ticks: float) -> float:
        return ticks * UNIT_S

    def close(self):
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self._count.release()
        self._shared.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
