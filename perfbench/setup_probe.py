"""Time one cold set-up of a workload: triclt's imports and the one-time
tables and first-call caches the workload needs.

    python3 perfbench/setup_probe.py <workload>

prints the seconds as its last line.  ``run.py`` starts it several times and
reports the median as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402

inputs.SETUP[sys.argv[1]]()
print(time.perf_counter() - t0)
