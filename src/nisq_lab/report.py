"""Result persistence (CSV/JSON), run manifests, and static SVG plots.

The CSV schema is versioned and fixed: header exactly
``independent_var,f1,f1_stderr,f2,f2_stderr,shots``, fractions with six
decimal places, UTF-8, LF line endings, dot decimal separator. Extra
per-row columns (e.g. the theoretical phase-sweep curve) appear only in
the JSON mirror. JSON files are strict: a non-finite float is written as
null. A run writes its manifest after the result files it lists, so a run
that fails leaves none.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import ResultTable
from .fitting import FitResult, damped_cosine_model, exponential_model

CSV_HEADER = "independent_var,f1,f1_stderr,f2,f2_stderr,shots"


def _frac(value: float) -> str:
    return f"{value:.6f}"


def _x_str(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def write_results(table: ResultTable, fmt: str, path) -> Path:
    """Write a result table as CSV or JSON; returns the path written."""
    path = Path(path)
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in table.rows:
            lines.append(",".join([
                _x_str(r.x), _frac(r.f1), _frac(r.f1_stderr),
                _frac(r.f2), _frac(r.f2_stderr), str(r.shots),
            ]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    elif fmt == "json":
        path.write_text(_json_text(table_to_dict(table)), encoding="utf-8", newline="\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def _finite(value):
    """``value`` with every non-finite float (such as the infinite T1 of a
    null calibration entry) replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json_text(obj) -> str:
    """Strict JSON (no Infinity or NaN), keys sorted, two-space indent."""
    return json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def table_to_dict(table: ResultTable) -> dict:
    return {
        "metadata": table.metadata,
        "rows": [
            {
                "independent_var": r.x,
                "f1": r.f1,
                "f1_stderr": r.f1_stderr,
                "f2": r.f2,
                "f2_stderr": r.f2_stderr,
                "shots": r.shots,
                **({"extras": r.extras} if r.extras else {}),
            }
            for r in table.rows
        ],
        "fit": asdict(table.fit) if table.fit is not None else None,
    }


def write_fit(fit: FitResult, path) -> Path:
    path = Path(path)
    path.write_text(_json_text(asdict(fit)), encoding="utf-8", newline="\n")
    return path


@dataclass
class RunManifest:
    subcommand: str
    seed: int
    shots: int
    calibration_hash: str
    topology_hash: str | None = None
    config: dict = field(default_factory=dict)
    tool_version: str = __version__
    outputs: list[str] = field(default_factory=list)


def write_manifest(out_dir, manifest: RunManifest) -> Path:
    """Write manifest.json; call after the result files it lists are written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.write_text(_json_text(asdict(manifest)), encoding="utf-8", newline="\n")
    return path


# ---------------------------------------------------------------------------
# SVG plotting (no plotting library: deterministic, structurally testable)
# ---------------------------------------------------------------------------

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 20, 55


def _scales(xs, ys):
    x_lo, x_hi = float(min(xs)), float(max(xs))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = float(min(0.0, min(ys))), float(max(1.0, max(ys))) * 1.02

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    return sx, sy, (x_lo, x_hi), (y_lo, y_hi)


def _axis_elements(sx, sy, x_range, y_range, x_label, y_label) -> list[str]:
    parts = [
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_range[0] + i * (x_range[1] - x_range[0]) / 4
        yv = y_range[0] + i * (y_range[1] - y_range[0]) / 4
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{sy(yv):.2f}" font-size="11" '
            f'text-anchor="end">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.2f})">{y_label}</text>'
    )
    return parts


def _fit_curve(table: ResultTable, xs):
    fit = table.fit
    if fit is None or not fit.ok:
        return None
    grid = np.linspace(min(xs), max(xs), 120)
    if fit.model == "exponential":
        curve = exponential_model(grid, fit.params["t_decay"])
    elif fit.model == "damped-cosine":
        curve = damped_cosine_model(grid, fit.params["t_phi"], fit.params["omega"])
    else:
        return None
    if table.metadata.get("fit_input") == "2*P(|0>) - 1":
        curve = 0.5 * (1.0 + curve)
    return grid, curve


def emit_plot(table: ResultTable, path) -> Path:
    """Scatter with error bars, and a dashed overlay: the fitted model curve
    when the table carries an ok fit, else the noiseless theoretical curve
    when any row carries one in its extras."""
    if not table.rows:
        raise ValueError("cannot plot an empty table")
    xs = [float(r.x) if not isinstance(r.x, str) else i for i, r in enumerate(table.rows)]
    ys = [r.f1 for r in table.rows]
    sx, sy, x_range, y_range = _scales(xs, ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    parts += _axis_elements(sx, sy, x_range, y_range,
                            table.metadata.get("x_label", "x"),
                            table.metadata.get("y_label", "fidelity"))
    dashed = _fit_curve(table, xs)
    if dashed is None and any("theoretical" in r.extras for r in table.rows):
        dashed = (np.array(xs), np.array([r.extras.get("theoretical", float("nan"))
                                          for r in table.rows]))
    if dashed is not None:
        # as Python floats: the same strings, formatted faster than numpy scalars
        grid, curve = (a.tolist() for a in dashed)
        pts = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(grid, curve) if not math.isnan(y)]
        if pts:
            d_attr = "M " + " L ".join(pts)
            parts.append(f'<path d="{d_attr}" fill="none" stroke="black" '
                         f'stroke-dasharray="6,4" stroke-width="1.5"/>')
    for x, r in zip(xs, table.rows):
        err = r.f1_stderr
        if err > 0:
            parts.append(
                f'<line x1="{sx(x):.2f}" y1="{sy(r.f1 - err):.2f}" '
                f'x2="{sx(x):.2f}" y2="{sy(r.f1 + err):.2f}" stroke="steelblue"/>'
            )
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(r.f1):.2f}" r="3.5" fill="steelblue"/>')
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(p for p in parts if p) + "\n", encoding="utf-8", newline="\n")
    return path
