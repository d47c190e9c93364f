"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sync-ring-20k --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in a fresh process.

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails (exit code 2, no result) when that source is missing.  The last line
printed is one JSON object: ``correct``, ``attempted`` and ``failed``
rounds, and the metrics — end-to-end with ``--trace 0``, per-layer with
``--trace 1``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def cap_blas_threads() -> None:
    """Keep BLAS pools at most one thread per usable core (before numpy loads)."""
    cores = len(os.sched_getaffinity(0))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(name, "")
        if not value.isdigit() or not 0 < int(value) <= cores:
            os.environ[name] = str(cores)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SOURCE), str(ROOT)]

    from perfbench.bench import absent_layers, measure, result
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *options]).returncode
            for name in WORKLOADS
        )
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    measurement = measure(workload, args.seed, args.seconds, bool(args.trace))
    report = result(measurement, bool(args.trace))
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{len(measurement.untraced)} untraced + {len(measurement.traced)} traced "
          f"repetitions of {workload.rounds} rounds per method")
    for method, digest in measurement.digests().items():
        print(f"  digest {method}: {digest}")
    for problem in measurement.problems():
        print(f"  FAILED {problem}")
    if args.trace:
        print(f"  absent layers: {', '.join(absent_layers(measurement)) or 'none'}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
