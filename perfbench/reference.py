"""Regenerate the committed reference tables from the program as it is.

    python3 perfbench/reference.py [WORKLOAD ...]

Never part of a measuring run. Each workload's pass runs once per
reference seed and the scored shots of every cell are pooled, so a
reference holds len(REFERENCE_SEEDS) times the workload's shots per cell.
The seeds are disjoint from the measuring seeds. A fit that fails on any
reference seed is listed under ``known_fit_failures``: the output check
then notes it instead of failing its cells.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nisq_lab import noise, topology  # noqa: E402

import refcheck  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

REFERENCE_SEEDS = tuple(range(1_000_001, 1_000_009))


def build(workload) -> dict:
    ctx = Context(HERE / ".out" / f"reference-{workload.name}",
                  topology.shipped_poughkeepsie(), noise.default_calibration())
    n = workload.shots
    pooled: dict[str, list] = {}
    fit_failures: set[str] = set()
    for seed in REFERENCE_SEEDS:
        shutil.rmtree(ctx.out, ignore_errors=True)
        with open(os.devnull, "w", encoding="utf-8") as devnull, redirect_stdout(devnull):
            result = workload.run(ctx, seed)
        for name, got in workload.collect(ctx, result).items():
            if got is None:
                raise RuntimeError(f"{workload.name}: {name} not produced on seed {seed}")
            if got[1] is False:
                fit_failures.add(name)
            rows = pooled.setdefault(name, [[x, 0, 0] for x, _, _ in got[0]])
            if [r[0] for r in rows] != [x for x, _, _ in got[0]]:
                raise RuntimeError(f"{workload.name}: {name} changed cells on seed {seed}")
            for row, (_, f1, f2) in zip(rows, got[0]):
                row[1] += round(f1 * n)
                row[2] += round(f2 * n)
    shutil.rmtree(ctx.out, ignore_errors=True)
    return {
        "workload": workload.name,
        "shots": n,
        "ref_shots": n * len(REFERENCE_SEEDS),
        "ref_seeds": list(REFERENCE_SEEDS),
        "tables": pooled,
        "known_fit_failures": sorted(fit_failures),
    }


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    refcheck.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        reference = build(WORKLOADS[name])
        path = refcheck.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}: "
              f"{refcheck.reference_cells(reference)} cells at {reference['ref_shots']} shots")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
