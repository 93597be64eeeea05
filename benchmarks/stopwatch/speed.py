"""A fixed kernel that reads how fast this machine is *right now*.

On the shared 2-vCPU sandboxes this benchmark runs in, identical code
takes 0.5–0.85 s from one minute to the next: the machine's speed drifts
by ±25 % over tens of seconds (neighbours on the same core), in user
time, with no page faults or context switches to blame.  No statistic
over one run's passes removes that, and ten runs of unchanged code
spread by 20–35 % — more than any regression bound worth having.

The drift is a common factor: a small fixed kernel — an interpreter
loop plus a zlib round trip, the two things the layers spend their time
in — timed right before and after a pass slows down by the same factor
as the pass (correlation ≈ 0.8; dividing it out cut the spread between
8-second windows of one workload from 21–29 % to 6–8 %).  So the
end-to-end clock is *calibrated*: elapsed seconds are divided by
``kernel seconds now ÷ NOMINAL_KERNEL_S``.  A calibrated second is a
second on a machine that runs the kernel in exactly the nominal time;
raw seconds and the slowdown factor are reported beside it.

The kernel uses only the standard library and nothing from ``repro``,
so it costs the same on every commit.
"""

from __future__ import annotations

import time
import zlib

#: what the kernel takes on the sandbox this was calibrated on, at its
#: median speed; calibrated seconds are real seconds on such a machine
NOMINAL_KERNEL_S = 0.075

_TEXT = b"".join(
    str(i * 2654435761 % 1000003).encode() for i in range(100_000)
)


def kernel_seconds() -> float:
    """Run the fixed kernel once; the seconds it took."""
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i & 255
    zlib.decompress(zlib.compress(_TEXT, 6))
    return time.perf_counter() - started


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two kernel
    readings (> 1 is slow); divide elapsed seconds by it."""
    return (before + after) / (2 * NOMINAL_KERNEL_S)
