"""Time one cold set-up of a workload in this fresh interpreter.

    python3 bench/probe_setup.py WORKLOAD SEED

Prints the seconds taken to import the package and run the workload's
set-up, unscaled and then scaled to reference-host time (see host.py).  A
fresh process is the only way to start with empty lru caches (gf.make_field
and the reduction-polynomial search) and unimported modules.
"""

import importlib
import sys
from pathlib import Path

import host


def cold_setup(name: str, seed: int) -> None:
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS[name](seed).setup()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    seconds, scale = host.Sampler().measure(cold_setup, sys.argv[1],
                                            int(sys.argv[2]))
    print(seconds, seconds * scale)
