"""Host-speed probe of the circiso benchmark.

The benchmark runs on shared virtual machines whose speed for the same
pure-Python work drifts by a third or more between spans of a few seconds
(tenants on the sibling hyperthreads and the shared cache), which is more
than the gates allow. A fixed reference kernel, timed right before and
right after each op, tracks that speed, and the benchmark rescales the op's
time to a host on which the kernel takes REFERENCE_NS, by the workload's
HOST_EXPONENT (see bench/README.md).

The kernel is plain interpreter work of the kinds circiso does: integer
arithmetic and updates of a small dict (cache-resident), then lookups in a
set of 10,000 ints (out of the first-level caches). It calls nothing of
circiso, so a change to the program does not change the kernel. It creates
one GC-tracked object per call, so it neither triggers nor waits for a
collection of the program's heap.
"""

import time

SMALL_STEPS = 3000
SET_SIZE = 10_000
# the kernel's median time on the baseline host (2-vCPU "Intel Xeon
# Processor" VM, Python 3.11.7); op times are rescaled to it
REFERENCE_NS = 6_000_000


def kernel():
    """Time one pass of the fixed reference work, in ns."""
    start = time.perf_counter_ns()
    counts = {}
    x = 1
    for _ in range(SMALL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x % 4093
        counts[k] = counts.get(k, 0) + 1
    members = set(range(0, 3 * SET_SIZE, 3))
    hits = 0
    for _ in range(SET_SIZE):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        hits += (x % (3 * SET_SIZE)) in members
    return time.perf_counter_ns() - start


def rescale(ns, before, after, exponent=1.0):
    """`ns` measured between kernel samples `before` and `after`, at the
    reference speed. `exponent` is how strongly the measured work follows the
    kernel's speed (a workload's HOST_EXPONENT; 1 for interpreter-bound work)."""
    return ns * (2 * REFERENCE_NS / (before + after)) ** exponent
