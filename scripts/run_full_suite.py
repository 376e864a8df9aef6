#!/usr/bin/env python3
"""Run every experiment family against the shipped lattice and calibration.

Writes CSV tables, fit JSONs, and SVG plots under out/ (or a directory given
as the first argument). Each subcommand runs in its own process, and its
wall time (interpreter start-up included) and peak RSS, from the process's
resource usage, are printed when it exits.
"""
import os
import sys
import time
from pathlib import Path

EXPERIMENTS = [
    ["t1", "--qubit", "0", "--plot"],
    ["t2-ramsey", "--qubit", "0", "--plot"],
    ["t2-echo", "--qubit", "0", "--plot"],
    ["cnot-chain"],
    ["ccnot-survey"],
    ["qft-perfect"],
    ["qpe-sweep", "--plot"],
]


def run(out_root: Path, seed: int = 7) -> int:
    for argv in EXPERIMENTS:
        out = out_root / argv[0]
        args = argv + ["--seed", str(seed), "--out", str(out)]
        print(f"\n=== nisq-lab {' '.join(args)}", flush=True)
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "nisq_lab.cli", *args],
                             os.environ)
        _, status, usage = os.wait4(pid, 0)  # the rusage of this child alone
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        print(f"=== done in {wall:.2f}s, peak RSS {usage.ru_maxrss / 1024:.1f} MiB (exit {code})",
              flush=True)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    sys.exit(run(root))
