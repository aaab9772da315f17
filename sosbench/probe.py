"""Child-process entry points of the benchmark.

``probe.py warm`` fills the caches a user builds once per machine, not
once per run: byte-compiled modules and the compiled tier's C library.

``probe.py setup <workload> <seed>`` is one ``setup_s`` sample: a fresh
interpreter imports the program, builds the workload's inputs and
produces its first result, then prints ``ready``. The parent times it
from process start to that line.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:1] = [ROOT]  # not sosbench/ itself; the program comes via PYTHONPATH


def warm() -> None:
    import compileall

    compileall.compile_dir(os.path.join(ROOT, "src", "repro"), quiet=1)
    from repro.perf.compiled import compiled_backend

    compiled_backend()


def setup(workload: str, seed: int) -> None:
    from sosbench.workloads import CLOSED_LOOP

    CLOSED_LOOP[workload](seed).first_result()
    print("ready", flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "warm":
        warm()
    else:
        setup(sys.argv[2], int(sys.argv[3]))
