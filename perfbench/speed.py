"""Machine-speed factor, so that time metrics compare across a shared host's slow and fast spells.

On a shared host the same work can take 25-40% longer for minutes at a
time, for every process alike: on a 2-core Xeon virtual machine the fixed
`homopolymer` input took 5.0-8.7 s per alignment across ten runs. A fixed
pure-Python kernel, timed between alignments and off the clock, measures
the host's speed during a run, and time metrics are reported scaled to
REFERENCE_KERNEL_S, a fixed nominal kernel time. The raw wall times stay
in the results file.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_KERNEL_S = 0.002


def _kernel() -> int:
    """Object churn like the program's: tuples, a sort, a dict, a generator sum."""
    rng = random.Random(7)
    items = [(rng.randrange(1000), i, (i, i + 1)) for i in range(3000)]
    items.sort()
    table = {}
    for a, b, key in items:
        table[key] = a + b
    return sum(v for v in table.values() if v % 3)


class SpeedProbe:
    """Accumulates kernel timings taken over a run."""

    def __init__(self):
        self.seconds = 0.0
        self.kernels = 0

    def sample(self, budget_s: float) -> None:
        """Time the kernel for about budget_s, and at least once, with the cyclic GC
        off so that the time does not depend on the size of the program's heap.
        One untimed call first brings the kernel's data back into the caches."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _kernel()
            end = time.perf_counter() + budget_s
            while True:
                t0 = time.perf_counter()
                _kernel()
                self.seconds += time.perf_counter() - t0
                self.kernels += 1
                if time.perf_counter() >= end:
                    break
        finally:
            if was_enabled:
                gc.enable()

    def slowdown(self) -> float:
        """Mean kernel time over the reference: above 1 when the host ran slow."""
        return self.seconds / self.kernels / REFERENCE_KERNEL_S
