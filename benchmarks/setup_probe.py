"""Time one cold set-up of a workload in a fresh interpreter.

    python3 benchmarks/setup_probe.py <workload> <seed>

Set-up is everything before the first operation: importing the library
(``irregmc.cli`` pulls in numpy and scipy), parsing the config, building the
model and payoff, and generating the grids and measures. Prints one JSON line
``{"setup_s": ...}``. run.py calls this several times per run and reports the
median.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name].setup(seed, BENCH_DIR / "out" / "work" / f"setup-{name}")
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
