"""How fast the host runs Python right now, from a fixed reference loop.

On a shared virtual machine the CPU rate available to one process
drifts by a factor of two or more over minutes, and two processes
sometimes get one core's worth between them. The benchmark therefore
times a fixed pure-Python loop before and after every repetition, in
as many concurrent processes as the repetition uses workers, and
scales the repetition's host times by ``REFERENCE_S / measured`` (see
``run.py``). The loop is independent of the program under test, so a
change to the program moves the scaled times and a drift in host load
does not.

The loop mixes the two kinds of work the simulator does: a small event
loop (a heap, bound-method calls, dicts) that stays in cache, and a
walk over a heap of objects too large for it. Either alone varies more
from sample to sample than the simulator does.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import statistics
import time

#: Events of the event-loop half.
EVENTS = 10_000
#: Objects the memory walk visits, out of :data:`HEAP_OBJECTS`.
WALK = 20_000
HEAP_OBJECTS = 300_000
#: Loops per sample; the sample is their mean.
SAMPLE_LOOPS = 6
#: What one loop takes on a quiet 2-core Xeon host (Python 3.11):
#: scaled times are host seconds at that speed.
REFERENCE_S = 0.016


class _Counter:
    __slots__ = ("count", "tally")

    def __init__(self) -> None:
        self.count = 0
        self.tally: dict[int, int] = {}

    def fire(self, now: int) -> int:
        self.count += 1
        bucket = now & 63
        self.tally[bucket] = self.tally.get(bucket, 0) + 1
        return (now * 7 + self.count) % 1000 + 1


def _loop(heap: list) -> float:
    start = time.perf_counter()
    counters = [_Counter() for _ in range(16)]
    queue = [(i, i, counters[i].fire) for i in range(16)]
    heapq.heapify(queue)
    seq = 16
    for _ in range(EVENTS):
        now, _, fire = heapq.heappop(queue)
        seq += 1
        heapq.heappush(queue, (now + fire(now), seq, fire))
    total = 0
    for step in range(WALK):
        total += heap[(step * 7919) % HEAP_OBJECTS][0]
    return time.perf_counter() - start


def _sample() -> float:
    heap = [[i] for i in range(HEAP_OBJECTS)]
    # Collections would time the heap just built, not the host.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.fmean(_loop(heap) for _ in range(SAMPLE_LOOPS))
    finally:
        if enabled:
            gc.enable()


def _child(conn) -> None:
    conn.send(_sample())
    conn.close()


def reference_s(processes: int) -> float:
    """Seconds per reference loop, run in ``processes`` at once."""
    if processes <= 1:
        return _sample()
    ctx = multiprocessing.get_context("fork")
    pipes, children = [], []
    for _ in range(processes):
        parent_end, child_end = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child, args=(child_end,))
        child.start()
        child_end.close()
        pipes.append(parent_end)
        children.append(child)
    try:
        samples = [pipe.recv() for pipe in pipes]
    finally:
        for child in children:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join()
    return statistics.fmean(samples)
