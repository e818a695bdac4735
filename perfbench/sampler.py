"""Machine-speed sampler that runs beside a worker on the same CPU.

On a shared host the speed of a CPU drifts by tens of percent within
minutes, and CPU time drifts with it.  Every PERIOD_S this process times a
fixed slice of interpreter work and writes (start, duration) to stdout as
two doubles, until it is terminated.  The worker scales each operation's
latency by REFERENCE_S over the median slice duration seen during the
operation, so a time named *_ref_* reads as if the CPU had kept the speed at
which one slice takes REFERENCE_S.  The sampler issues no operations; at one
~0.3 ms slice per 20 ms it takes ~1.5% of the CPU it shares.
"""

from __future__ import annotations

import struct
import sys
import time

PERIOD_S = 0.02
REFERENCE_S = 3.0e-4
RECORD = struct.Struct("dd")
_TEXT = "0121020121021201021012102012021020121012"


def work_slice() -> int:
    hits = 0
    for i in range(1000):
        a = i % 29
        hits += _TEXT[a : a + 6] == _TEXT[a + 3 : a + 9]
    return hits


def main() -> None:
    out = sys.stdout.buffer
    while True:
        started = time.perf_counter()
        work_slice()
        out.write(RECORD.pack(started, time.perf_counter() - started))
        out.flush()
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    try:
        main()
    except (KeyboardInterrupt, BrokenPipeError):
        pass
