"""Machine-speed normalisation of measured times.

On the shared 2-core machine this benchmark was defined on, the CPU time
of one fixed qpl call varied by up to 1.8x in waves lasting from seconds
to whole runs (measured; steal time stayed near 1%, so the cores ran
slower rather than being taken away).  A fixed pure-Python reference
loop slows down in step: the ratio of a call's time to the reference
time measured next to it stayed within about 5% while the raw time
moved by 25%.

So every time the benchmark reports is the measured wall time rescaled
to nominal machine speed: wall * REF_NOMINAL_S / ref, where ref is the
median of the reference loop's times measured around the timed call.  REF_NOMINAL_S is
the loop's time at the fast state of that machine; it only fixes the
scale, so that the numbers read as milliseconds and seconds there.
"""

import time

REF_NOMINAL_S = 0.0014
# Reference times within this many seconds of a call are its reference;
# the slow waves last longer, and one reference time alone is noisy.
REF_WINDOW_S = 0.5


def _reference_loop():
    acc = 0
    table = {}
    for i in range(3000):
        x = (i * 2654435761) % 1000003
        acc += x * x - (x >> 3)
        table[x & 255] = table.get(x & 255, 0) + 1
        acc ^= sum([x, i, acc & 1023])
    return acc


def reference_s():
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def nominal(wall_s, ref_s):
    return wall_s * REF_NOMINAL_S / ref_s
