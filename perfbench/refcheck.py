"""Output check: every cell's f1 and f2 against the committed reference.

A reference table holds, per cell, the number of reference shots that
scored f1 and f2. A measured fraction k/n and a reference count j/m are
compared with the two-sided conditional (Fisher) test of equal
proportions, whose p-value is exact for any true proportion, including
those near 0 or 1 where a normal z-score undercounts the tails. The
p-value is expressed as the equivalent normal deviate, so the bound is in
sigma: a cell fails when either fraction lies beyond Z_BOUND sigma, which
a correct program does with probability below 6e-7 per comparison. Because
the bound is statistical, a change that keeps the output distribution but
changes the random stream still passes.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist

import numpy as np

Z_BOUND = 5.0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_NORMAL = NormalDist()


@lru_cache(maxsize=8)
def _log_factorials(size: int) -> np.ndarray:
    """log(i!) for i = 0..size."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size + 1)))))


def z_equivalent(k: int, n: int, j: int, m: int) -> float:
    """Sigma-equivalent distance between k successes of n and j of m."""
    total, size = k + j, n + m
    lf = _log_factorials(size)
    lo, hi = max(0, total - m), min(n, total)
    ks = np.arange(lo, hi + 1)
    # hypergeometric law of k given the pooled total: C(total, k) C(size - total, n - k)
    logp = -lf[ks] - lf[total - ks] - lf[n - ks] - lf[size - total - n + ks]
    p = np.exp(logp - logp.max())
    p /= p.sum()
    i = k - lo
    p_value = min(1.0, 2.0 * min(float(p[: i + 1].sum()), float(p[i:].sum())))
    if p_value >= 1.0:
        return 0.0
    if p_value <= 0.0:
        return math.inf
    return -_NORMAL.inv_cdf(p_value / 2.0)


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def reference_cells(reference: dict) -> int:
    return sum(len(rows) for rows in reference["tables"].values())


def count_failed(reference: dict, tables: dict) -> tuple[int, list[str]]:
    """Failed cells of one pass, and a line describing each failure.

    ``tables`` maps table name to (rows, fit_ok): rows are (x, f1, f2) in
    output order, fit_ok is None for tables without a fit; a table that was
    not produced is None. Cells compare position by position, so a missing,
    short or reordered table fails the cells it displaced. A table whose
    fit did not come back ok fails every cell, unless the reference lists
    that fit as already failing when the reference was made; that case is
    only noted.
    """
    n, m = reference["shots"], reference["ref_shots"]
    known_fit_failures = set(reference.get("known_fit_failures", ()))
    failed, notes = 0, []
    for name, ref_rows in reference["tables"].items():
        got = tables.get(name)
        if got is None:
            failed += len(ref_rows)
            notes.append(f"{name}: failed, no output")
            continue
        rows, fit_ok = got
        if fit_ok is False:
            if name not in known_fit_failures:
                failed += len(ref_rows)
                notes.append(f"{name}: failed, fit not ok")
                continue
            notes.append(f"{name}: fit not ok (known failure at the reference commit)")
        for pos, (x, j1, j2) in enumerate(ref_rows):
            if pos >= len(rows) or rows[pos][0] != x:
                failed += 1
                notes.append(f"{name}[{pos}]: failed, expected cell {x}")
                continue
            _, f1, f2 = rows[pos]
            z = max(z_equivalent(round(f1 * n), n, j1, m), z_equivalent(round(f2 * n), n, j2, m))
            if z > Z_BOUND:
                failed += 1
                notes.append(f"{name}[{x}]: failed, f1={f1:.4f} f2={f2:.4f} vs reference "
                             f"{j1 / m:.4f} {j2 / m:.4f} ({z:.1f} sigma)")
    return failed, notes
