"""Set-up as a one-shot user pays it: a fresh interpreter imports the CLI
and runs one warm-up operation of the named workload.

    python3 perfbench/probe.py WORKLOAD

Prints the set-up's cost in seconds at the speed meter's nominal speed.
"""

import sys

from speed import SpeedMeter
from workloads import WORKLOADS, import_package

if __name__ == "__main__":
    meter = SpeedMeter()
    try:
        with meter:
            import_package()
            WORKLOADS[sys.argv[1]].warm_up()
    finally:
        meter.close()
    print(meter.cost)
