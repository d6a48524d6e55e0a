"""Run one workload once in a fresh process and print its peak resident memory.

    python3 bench/rss_probe.py --workload quickstart --seed 0 --out-dir DIR

The last line of standard output is the peak resident set size in MB
(10^6 bytes), as the kernel reports it for this process. A run that raises
still reports the memory it reached; the benchmark's own iterations count
the failure.
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import sys
import warnings

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    bootstrap.prepare()
    from workloads import WORKLOADS

    warnings.simplefilter("ignore")
    with contextlib.suppress(Exception):
        WORKLOADS[args.workload].plan(args.seed, args.out_dir).call()
    # ru_maxrss is in KiB on Linux.
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    return 0


if __name__ == "__main__":
    sys.exit(main())
