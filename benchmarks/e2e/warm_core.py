"""Keep one core from going idle: spin at the lowest scheduling priority.

``rt_workloads.WarmCores`` starts one of these per core around the rt
workloads.  A lightly loaded cluster (``rt_serial`` keeps both cores
~75 % idle) otherwise measures the host's idle policy — how long a
halted virtual CPU takes to wake, how far its clock drops, how cold its
caches get — which changes from hour to hour on a shared host: the same
code's p50 read 17.2 ms in one sitting and 14.3 ms in the next, and
spread 15 % in the driver's runs.  ``SCHED_IDLE`` runs only when nothing
else wants the core and is preempted at once by any waking task, so the
cluster gets every cycle it asks for.  The loop touches no memory to
speak of: spinning on ``reference.kernel`` instead cost the cluster a
quarter more CPU per commit in cache misses.

Exits when the process that started it is gone, whatever killed it.
"""

import os
import sys


def main() -> int:
    parent = int(sys.argv[1])
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    while os.getppid() == parent:
        for _ in range(200_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
