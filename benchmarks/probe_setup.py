"""Cold-start probe: set one workload up and exit at its first pulse step.

    python3 benchmarks/probe_setup.py <workload> <seed>

``run.py`` times this process from spawn to exit, so one sample covers
interpreter start, imports, config parse, env and network construction
up to the first Hamiltonian build.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


class FirstStep(Exception):
    """Raised at the first Hamiltonian build, when the first step is ready."""


def _stop(_params):
    raise FirstStep


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from dotgate import sim

    name, seed = sys.argv[1], int(sys.argv[2])
    workload = workloads.WORKLOADS[name]
    sim.build_hamiltonian = _stop
    try:
        workload.run(workload.prepare(seed, HERE / "out"), lambda: None)
    except FirstStep:
        sys.stdout.flush()
        os._exit(0)  # set-up ends at the first step, not at interpreter teardown
    sys.exit(f"{name} finished without evolving a step")


if __name__ == "__main__":
    main()
