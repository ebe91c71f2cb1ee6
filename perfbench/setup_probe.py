"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing the library, building the workload's inputs and its
warm-up.  Prints the measured seconds and the seconds calibrated to the
nominal host speed by yardsticks taken just before and after (see
`probe`).  `run.py` starts this script several times and reports the
median.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

from probe import NOMINAL_S, yardstick

before = [yardstick() for _ in range(3)]
start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
seconds = time.perf_counter() - start
after = [yardstick() for _ in range(3)]
speed = sum(before + after) / (6 * NOMINAL_S)
print(seconds, seconds / speed)
