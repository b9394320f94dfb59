"""One set-up sample: import kportrait, then run one operation of a workload.

    python3 bench/probe_setup.py <workload> <seed> <work-dir>

Prints the seconds taken by the import and the operation.  The benchmark's
own modules, its inputs and its oracle are prepared off the clock.
"""

import sys
import time

import run
import workloads


def main() -> None:
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    run.load_program()
    imported = time.perf_counter() - t0
    wl = workloads.WORKLOADS[name](work_dir)
    item = wl.inputs(seed)[0]
    t0 = time.perf_counter()
    wl.run(item)
    print(imported + time.perf_counter() - t0)


if __name__ == "__main__":
    main()
