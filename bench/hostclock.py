"""Wall-clock time net of hypervisor steal, for a process pinned to one CPU.

On a virtual machine the host may run other guests on our virtual CPU; the
guest kernel counts that time as "steal" in /proc/stat.  A program cannot
cause or cure it, yet it can stretch the wall time of identical work by a
third.  The benchmark therefore pins itself (and every process it starts,
which inherit the pinning) to one CPU and subtracts that CPU's steal from
perf_counter.  Time the program spends waiting for anything else, such as
disk writes or other processes on the same guest, stays in.  Linux only.
"""

from __future__ import annotations

import os
import time

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def pin() -> int:
    """Pin this process to the lowest CPU it may use; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_s(cpu: int) -> float:
    """Seconds of steal on `cpu` since boot, in 1/SC_CLK_TCK steps."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(prefix):
                return int(line.split()[8]) / _TICKS_PER_S
    raise RuntimeError(f"/proc/stat has no line for cpu{cpu}")


def net_now(cpu: int) -> float:
    """perf_counter minus the steal on `cpu`; take differences only."""
    return time.perf_counter() - steal_s(cpu)
