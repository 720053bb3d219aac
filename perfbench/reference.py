"""A fixed computation that measures how fast the host runs at the moment.

A shared host's speed can swing by 10-30% over seconds, and that moves every
timing of a run together. The benchmark times ``work()`` next to what it
measures and reports times at the reference speed: a measured time divided
by (reference time / NOMINAL_S). A change to the package moves such a time
in full, because ``work()`` runs no package code.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of work() inside benchmark runs on the 2-core Xeon KVM box the
# benchmark was tuned on.
NOMINAL_S = 0.004


def work() -> int:
    """A fixed mix of the kinds of work the package does.

    Interpreter arithmetic, small numpy calls, a fresh seeded generator per
    draw, and number formatting. Host contention slows these kinds unevenly
    (generator set-up more than arithmetic, say), so the reference holds
    them all.
    """
    total = 0
    for i in range(10_000):
        total += i * i % 7
    a = np.arange(64.0)
    for _ in range(200):
        a = np.sqrt(a + 1.0)
    for i in range(15):
        seq = np.random.SeedSequence(12345, spawn_key=(i,))
        total += int(np.random.Generator(np.random.PCG64(seq)).standard_normal(10).sum() > 0)
    parts = [f"L{i * 0.37:.3f},{i % 97:.4f}" for i in range(1_000)]
    return total + len(" ".join(parts))


def seconds() -> float:
    """Wall time of one ``work()``."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
