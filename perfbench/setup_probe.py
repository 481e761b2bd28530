"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is the import of smbandits plus the generation of a workload's
inputs. Usage: python3 perfbench/setup_probe.py <workload> <seed> <out dir>
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import smbandits  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - started)
