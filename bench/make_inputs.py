"""Build one workload's input files from its seed, in a process of its own.

``run.py`` starts this script several times per run and times each start
to finish as the benchmark's set-up: importing ``setbayes`` and writing
the generator spec, the training CSV, the model file and the query CSV
that the workload needs.
"""

import argparse
from pathlib import Path

from run import pin_environment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    pin_environment()
    import workloads

    workloads.workloads(tiny=args.tiny)[args.workload].build(args.out, args.seed)


if __name__ == "__main__":
    main()
