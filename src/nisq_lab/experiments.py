"""End-to-end experiment drivers: build, schedule, run noisy shots, score.

Every experiment is a sequence of cells. A ``Cell`` names the shape of its
local circuit and a call that builds it, the device qubit of each local,
its seed key, the computational basis string it should read out, and the
locals to flip to |1> before it runs. ``run_cells`` runs each cell on its
own qubits: X on the ``prep_x`` locals, the circuit, measure all, schedule,
``run_shots`` on the calibration subset of the cell's layout, and score
with ``fidelity``. The experiments below differ only in the cells they
yield and in how they fold the reports into tables; ``_metadata`` builds
every table's metadata.

A cell's shape is the structure of its local circuit: its ops, with DELAY
durations and RPHI angles left out, which depend on the placement only
through its geometry. A survey shape is a variant and its target's local
index, a chain shape a length and a strategy, a coherence shape whether
its delay is zero, and a QFT or QPE shape its geometry. A cell carries its
own delays and angles (``values``). ``run_cells`` builds and schedules each
shape once per call, from its first cell, and each cell binds its values
onto that schedule (``noise.bind``), so the cells of a shape differ only in
layout, seed key, calibration subset and bound values. Nothing mutates a
built circuit. ``run_cells`` lists the cells and their calibration subsets
first; then, shape by shape, it builds, schedules and binds, the exact
engine computes the distributions of all of the shape's cells in stacked
passes (``keep_distributions``), and the shape's cells run. Each cell still
makes its own ``run_shots`` call, which draws from its kept distribution,
and the kept distributions go with their shape, so that at most one
shape's are held at a time. ``run_shots`` picks the engine: every circuit
of up to 12 qubits runs exact, t1 and the chains of up to 11 links
included, so a chain shape's 4 orientations are one stacked pass; the
longer chains, of 13 to 20 qubits, run as bit-vector trajectories, whose
exact law would cost more per cell.

Each cell's seed key is ``[seed, experiment tag, ...cell coordinates]``,
so reruns with the same config are bit-identical and cells could be farmed
out in any order. Chain and survey coordinates name the cell within the
full experiment (every strategy, every survey family), not within the
requested subset, so a subset run draws the same counts as the full run;
a different topology re-enumerates, and so re-keys, the survey cells.
Coherence coordinates index the requested delay grid, and QPE
coordinates the fixed phase grid (``default_phi_grid``). QFT and QPE run
on the placements ranked best by a CCNOT survey of their geometries, on
the same counts ``run_ccnot_survey`` reports. Tables carry time in
microseconds and phases in radians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Iterable

import numpy as np

from . import __version__, builders, topology
from .builders import BuiltCircuit
from .fitting import (
    FidelityReport,
    FitResult,
    fidelity,
    fit_damped_cosine,
    fit_exponential,
    theoretical_qpe_distribution,
)
from .noise import DeviceCalibration, bind, keep_distributions, run_shots, schedule
from .simulator import Circuit, GateOp
from .topology import CouplingGraph, GeometryPlacement

US = 1e-6

PROVENANCE = f"nisq-lab {__version__}"


# experiment tags keep per-cell seed streams disjoint across experiments
_TAGS = {"t1": 11, "ramsey": 12, "echo": 13, "chain": 21, "ccnot": 31, "qft": 41, "qpe": 42}

SURVEY_FAMILIES = ("linear3", "star4", "ring6-3chain", "ring6-1chains")

QPE_GEOMETRIES = ("linear3", "star4")


def _check_names(name: str, got, allowed=None) -> None:
    """ValueError unless ``got`` lists distinct entries (of ``allowed``, if given)."""
    if len(set(got)) < len(got) or (allowed is not None and not set(got) <= set(allowed)):
        within = f" from {', '.join(map(str, allowed))}" if allowed is not None else ""
        raise ValueError(f"{name} must list distinct entries{within}, got {tuple(got)}")


class CellRangeError(ValueError):
    """A request for cells that do not exist: no chain lengths or placements
    at all, or chains longer than their orientation."""


@dataclass
class ExperimentConfig:
    """Common experiment knobs; unused fields are ignored per experiment."""

    calibration: DeviceCalibration
    graph: CouplingGraph | None = None
    shots: int = 8000
    seed: int = 0
    qubit: int = 0
    dt_grid_us: tuple[float, ...] | None = None
    strategies: tuple[str, ...] = ("none", "x-reset", "cnot-reset")
    orientations: tuple[int, ...] = (1, 2, 3, 4)
    max_length: int = 19
    geometries: tuple[str, ...] = builders.QFT_GEOMETRIES
    top_k: int = 3

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.max_length < 1:
            raise CellRangeError(f"max_length must be >= 1, got {self.max_length}")
        if self.top_k < 1:
            raise CellRangeError(f"top_k must be >= 1, got {self.top_k}")
        _check_names("strategies", self.strategies, builders.RESET_STRATEGIES)
        _check_names("orientations", self.orientations)
        _check_names("geometries", self.geometries, SURVEY_FAMILIES)
        n = self.calibration.n_qubits
        if not (0 <= self.qubit < n):
            raise ValueError(f"qubit {self.qubit} is outside the calibration's {n} qubits "
                             f"(0..{n - 1})")
        grid = self.dt_grid_us
        if grid is not None:
            if len(grid) == 0:
                raise ValueError("parameter grid must be non-empty")
            for value in grid:
                if not math.isfinite(value):
                    raise ValueError(f"dt_grid_us entry {value} is not finite")
            if list(grid) != sorted(grid):
                raise ValueError("parameter grid must be sorted")
            if grid[0] < 0:
                raise ValueError(f"dt_grid_us entry {grid[0]} is negative: "
                                 "a delay cannot be shorter than zero")


@dataclass
class ResultRow:
    x: float | int | str
    f1: float
    f2: float
    shots: int
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def f1_stderr(self) -> float:
        return math.sqrt(self.f1 * (1.0 - self.f1) / self.shots)

    @property
    def f2_stderr(self) -> float:
        return math.sqrt(self.f2 * (1.0 - self.f2) / self.shots)


@dataclass
class ResultTable:
    rows: list[ResultRow]
    fit: FitResult | None = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The cell executor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One circuit run: ``build()`` returns the local circuit of ``shape``,
    its structure. Every cell of a shape builds the same ops, up to DELAY
    durations and RPHI angles, with the same ``prep_x``; ``values`` are the
    cell's own DELAY durations and RPHI angles, in op order, which it binds
    onto its shape's schedule, or None when it builds just what the first
    cell of its shape builds. ``layout[local]`` is the device qubit each
    local runs on."""

    shape: Hashable
    build: Callable[[], BuiltCircuit]
    layout: tuple[int, ...]
    seed_key: tuple[int, ...]
    desired: str
    prep_x: tuple[int, ...] = ()
    values: tuple[float, ...] | None = None


def run_cells(cells: Iterable[Cell], cal: DeviceCalibration, shots: int) -> list[FidelityReport]:
    """Run and score each cell compactly on its own qubits; the reports
    come back in cell order.

    The cells are listed first, each with its calibration subset. Then,
    shape by shape, the first cell of the shape builds its circuit, and
    that circuit with its X prep and a measurement of every qubit is
    scheduled once for the call, which either engine plans once; each cell
    that has values binds them onto that schedule (``bind``), and the exact
    engine computes the outcome distributions of every cell of the shape in
    stacked passes (``keep_distributions``). Each cell of the shape then
    makes its own ``run_shots`` call on its bound schedule, calibration
    subset and seed key, and is scored with its shape's roles and desired
    ancilla string into its place in the reports, before the next shape is
    built: what was kept for one shape is freed before the next computes
    its own. Each cell's seed key fixes its counts, so the order in which
    cells run changes no report. Which engine runs a cell is ``run_shots``'
    choice: exact up to 12 qubits, and bit-vector trajectories for wider
    X/CNOT/DELAY circuits."""
    cells = [(cell, cal.subset(cell.layout)) for cell in cells]
    shapes: dict[Hashable, list[int]] = {}
    for i, (cell, _) in enumerate(cells):
        shapes.setdefault(cell.shape, []).append(i)
    reports: list = [None] * len(cells)
    for members in shapes.values():
        first = cells[members[0]][0]
        built = first.build()
        n = built.circuit.n_qubits
        circuit = Circuit(n, [GateOp("X", (q,)) for q in first.prep_x] + built.circuit.ops
                          + [GateOp("MEASURE", (q,)) for q in range(n)], built.roles)
        sched = schedule(circuit, cal.durations)
        rows = []
        for i in members:
            cell, sub = cells[i]
            rows.append((sched if cell.values is None else bind(sched, cell.values), sub))
        keep_distributions(rows)
        for i, (bound, sub) in zip(members, rows):
            cell = cells[i][0]
            counts = run_shots(bound, sub, shots, list(cell.seed_key))
            reports[i] = fidelity(counts, built.roles, cell.desired, built.desired_ancilla)
    return reports


def _row(x, rep: FidelityReport, **extras) -> ResultRow:
    return ResultRow(x=x, f1=rep.f1, f2=rep.f2, shots=rep.shots, extras=extras)


def _mean_row(x, parts, shots: int) -> ResultRow:
    """Pool parts (rows or reports) of ``shots`` shots each by their mean."""
    return ResultRow(x=x, f1=float(np.mean([p.f1 for p in parts])),
                     f2=float(np.mean([p.f2 for p in parts])), shots=shots * len(parts))


def _metadata(cfg: ExperimentConfig, experiment: str, x_label: str, y_label: str,
              **extra) -> dict:
    return {
        "experiment": experiment,
        **extra,
        "seed": cfg.seed,
        "x_label": x_label,
        "y_label": y_label,
        "calibration_hash": cfg.calibration.content_hash(),
        "provenance": PROVENANCE,
    }


# ---------------------------------------------------------------------------
# Coherence experiments
# ---------------------------------------------------------------------------

def _default_dt_grid(cfg: ExperimentConfig, scale_us: float, points: int) -> tuple[float, ...]:
    if cfg.dt_grid_us is not None:
        return cfg.dt_grid_us
    if not math.isfinite(scale_us):
        scale_us = 100.0
    return tuple(np.linspace(0.0, 2.0 * scale_us, points))


_IDLE = "idle"


def _coherence_rows(cfg: ExperimentConfig, tag: str, grid, desired: str,
                    sequence: tuple[str, ...]) -> list[ResultRow]:
    """One single-qubit cell per delay on cfg.qubit: the gates of
    ``sequence`` in order, with the delay split evenly over its ``_IDLE``
    entries. A zero delay leaves the idles out, so a table has at most two
    shapes; each cell of a nonzero delay binds its own delays, and the
    zero-delay cells run their shape's build as it is."""
    parts = sequence.count(_IDLE)

    def build(dt_s: float) -> BuiltCircuit:
        circuit = Circuit(1, roles=("computational",))
        for kind in sequence:
            if kind != _IDLE:
                circuit.add(GateOp(kind, (0,)))
            elif dt_s > 0:
                circuit.delay(dt_s / parts, 0)
        return BuiltCircuit(circuit, (cfg.qubit,), "")

    cells = []
    for i, dt in enumerate(grid):
        dt_s = dt * US
        cells.append(Cell(dt_s > 0, partial(build, dt_s), (cfg.qubit,),
                          (cfg.seed, _TAGS[tag], i), desired,
                          values=(dt_s / parts,) * parts if dt_s > 0 else None))
    reports = run_cells(cells, cfg.calibration, cfg.shots)
    return [_row(float(dt), rep) for dt, rep in zip(grid, reports)]


def run_t1(cfg: ExperimentConfig) -> ResultTable:
    """Excite, idle for dt, measure; fit the survival curve exponentially."""
    t1_us = cfg.calibration.params_for(cfg.qubit).t1 / US
    grid = _default_dt_grid(cfg, t1_us, 8)
    rows = _coherence_rows(cfg, "t1", grid, "1", ("X", _IDLE))
    fit = fit_exponential([r.x for r in rows], [r.f1 for r in rows], cfg.shots)
    meta = _metadata(cfg, "t1", "dt_us", "P(|1>)", qubit=cfg.qubit, configured_t1_us=t1_us)
    if math.isfinite(t1_us) and max(grid) < 2.0 * t1_us * 0.999:
        meta["grid_warning"] = f"grid spans {max(grid):.3g} us, below 2*t1 = {2 * t1_us:.3g} us"
    return ResultTable(rows, fit, meta)


def run_t2_ramsey(cfg: ExperimentConfig) -> ResultTable:
    """H, idle, H; fit P(|0>) with the damped cosine model."""
    params = cfg.calibration.params_for(cfg.qubit)
    rows = _coherence_rows(cfg, "ramsey", _default_dt_grid(cfg, params.t2 / US, 40), "0",
                           ("H", _IDLE, "H"))
    fit = fit_damped_cosine([r.x for r in rows], [r.f1 for r in rows], cfg.shots)
    meta = _metadata(cfg, "t2-ramsey", "dt_us", "P(|0>)", qubit=cfg.qubit,
                     configured_t2_us=params.t2 / US, configured_tphi_us=params.tphi / US,
                     configured_omega_rad_per_us=params.omega * US)
    return ResultTable(rows, fit, meta)


def run_t2_echo(cfg: ExperimentConfig) -> ResultTable:
    """H, idle dt/2, X, idle dt/2, H; exponential fit of 2 P(|0>) - 1."""
    params = cfg.calibration.params_for(cfg.qubit)
    rows = _coherence_rows(cfg, "echo", _default_dt_grid(cfg, params.t2 / US, 8), "0",
                           ("H", _IDLE, "X", _IDLE, "H"))
    coherence = np.clip(2.0 * np.array([r.f1 for r in rows]) - 1.0, 0.0, 1.0)
    fit = fit_exponential([r.x for r in rows], coherence, cfg.shots)
    meta = _metadata(cfg, "t2-echo", "dt_us", "P(|0>)", qubit=cfg.qubit,
                     configured_t2_us=params.t2 / US, fit_input="2*P(|0>) - 1")
    return ResultTable(rows, fit, meta)


# ---------------------------------------------------------------------------
# CNOT chain sweep
# ---------------------------------------------------------------------------

@dataclass
class ChainSweepResult:
    tables: dict[tuple[int, str], ResultTable]
    averages: dict[str, ResultTable]


def run_cnot_chain_sweep(cfg: ExperimentConfig) -> ChainSweepResult:
    """Chains of every length on each stored orientation, per strategy.

    f1 scores the control/target pair against |11>; f2 additionally holds
    the ancillas to their strategy's desired state. Averages pool the
    orientations per (strategy, length). Raises CellRangeError when
    max_length exceeds the links of a requested orientation.
    """
    g = cfg.graph or topology.shipped_poughkeepsie()
    paths = {o: topology.chain_paths(g, o) for o in cfg.orientations}
    for orientation, path in paths.items():
        if cfg.max_length > len(path) - 1:
            raise CellRangeError(f"max_length {cfg.max_length} exceeds the {len(path) - 1} "
                                 f"links of orientation {orientation}")
    lengths = range(1, cfg.max_length + 1)
    keys = [(orientation, strategy) for orientation in paths for strategy in cfg.strategies]

    def cells():
        for orientation, strategy in keys:
            for n in lengths:
                path = paths[orientation][: n + 1]
                yield Cell((n, strategy), partial(builders.cnot_chain, path, strategy), path,
                           (cfg.seed, _TAGS["chain"], orientation,
                            builders.RESET_STRATEGIES.index(strategy), n), "11")

    reports = run_cells(cells(), cfg.calibration, cfg.shots)
    tables: dict[tuple[int, str], ResultTable] = {}
    for i, (orientation, strategy) in enumerate(keys):
        part = reports[i * len(lengths):(i + 1) * len(lengths)]
        tables[(orientation, strategy)] = ResultTable(
            [_row(n, rep) for n, rep in zip(lengths, part)],
            metadata=_metadata(cfg, "cnot-chain", "chain_length", "fidelity",
                               orientation=orientation, strategy=strategy),
        )
    averages: dict[str, ResultTable] = {}
    for strategy in cfg.strategies:
        per = [tables[(o, strategy)] for o in cfg.orientations]
        averages[strategy] = ResultTable(
            [_mean_row(n, [t.rows[n - 1] for t in per], cfg.shots) for n in lengths],
            metadata=_metadata(cfg, "cnot-chain-average", "chain_length", "fidelity",
                               strategy=strategy, orientations=list(cfg.orientations)),
        )
    return ChainSweepResult(tables, averages)


# ---------------------------------------------------------------------------
# CCNOT survey
# ---------------------------------------------------------------------------

@dataclass
class SurveyCell:
    label: str
    variant: str
    placement: GeometryPlacement
    f1: float
    f2: float
    shots: int


@dataclass
class SurveyResult:
    cells: list[SurveyCell]
    metadata: dict = field(default_factory=dict)

    def table(self) -> ResultTable:
        rows = [ResultRow(x=c.label, f1=c.f1, f2=c.f2, shots=c.shots) for c in self.cells]
        return ResultTable(rows, metadata=dict(self.metadata))

    def family(self, variant_prefix: str) -> list[SurveyCell]:
        return [c for c in self.cells if c.variant.startswith(variant_prefix)]

    def family_stats(self, variant_prefix: str) -> dict[str, float]:
        cells = self.family(variant_prefix)
        if not cells:
            return {}
        return {
            "mean_f1": float(np.mean([c.f1 for c in cells])),
            "max_f1": float(np.max([c.f1 for c in cells])),
            "mean_f2": float(np.mean([c.f2 for c in cells])),
            "max_f2": float(np.max([c.f2 for c in cells])),
            "cells": float(len(cells)),
        }

    def top_placements(self, variant_prefix: str, k: int) -> list[GeometryPlacement]:
        """Best-k placements by max f1 across each placement's target cells."""
        best: dict[tuple, tuple[float, GeometryPlacement]] = {}
        for c in self.family(variant_prefix):
            key = (tuple(sorted(c.placement.computational)), tuple(sorted(c.placement.ancilla)))
            if key not in best or c.f1 > best[key][0]:
                best[key] = (c.f1, c.placement)
        ranked = sorted(best.values(), key=lambda it: (-it[0], it[1].computational))
        return [p for _, p in ranked[:k]]


def _survey_placements(g: CouplingGraph) -> list[tuple[str, GeometryPlacement]]:
    """Every (variant, placement) of the full survey; a cell's index here is
    its seed coordinate."""
    out = [(var.kind, var) for triple in topology.enumerate_linear_triples(g)
           for var in topology.linear3_variants(triple)]
    out += [(variant, var) for star in topology.enumerate_stars(g)
            for var in topology.star_variants(star)
            for variant in ("star4-x-reset", "star4-cnot-reset")]
    for kind in ("ring6-3chain", "ring6-1chains"):
        out += [(kind, p) for p in topology.ring_placements(g, kind)]
    return out


def _cell_label(variant: str, placement: GeometryPlacement) -> str:
    qubits = "-".join(str(q) for q in placement.qubits)
    return f"{variant}:{qubits}:t{placement.target}"


def run_ccnot_survey(cfg: ExperimentConfig,
                     families: tuple[str, ...] = SURVEY_FAMILIES) -> SurveyResult:
    """Every geometry placement runs the CCNOT with controls prepared |1>.

    f1 scores the three computational qubits against |111>; f2 additionally
    requires all ancillas back in |0>. An unknown or repeated family raises
    ValueError; CellRangeError when none of the families has a placement.
    """
    _check_names("families", families, SURVEY_FAMILIES)
    g = cfg.graph or topology.shipped_poughkeepsie()
    placements = [(idx, variant, placement)
                  for idx, (variant, placement) in enumerate(_survey_placements(g))
                  if variant.startswith(tuple(families))]
    if families and not placements:
        raise CellRangeError(f"the topology has no {' or '.join(families)} placement")

    def cells():
        for idx, variant, placement in placements:
            layout = placement.qubits
            target = layout.index(placement.target)
            # placement.qubits lists the computational qubits first
            controls = tuple(q for q in range(len(placement.computational)) if q != target)
            yield Cell((variant, target), partial(builders.ccnot_on_geometry, placement, variant),
                       layout, (cfg.seed, _TAGS["ccnot"], idx), "111", prep_x=controls)

    reports = run_cells(cells(), cfg.calibration, cfg.shots)
    return SurveyResult(
        [SurveyCell(_cell_label(variant, placement), variant, placement, rep.f1, rep.f2,
                    cfg.shots) for (_, variant, placement), rep in zip(placements, reports)],
        _metadata(cfg, "ccnot-survey", "placement", "fidelity"),
    )


# ---------------------------------------------------------------------------
# QFT / QPE experiments
# ---------------------------------------------------------------------------

def _ranked_placements(cfg: ExperimentConfig, geometries,
                       k: int) -> dict[str, list[GeometryPlacement]]:
    """The best-k placements per geometry, ranked by a CCNOT survey of those
    geometries. Raises CellRangeError for a geometry with no placement."""
    survey = run_ccnot_survey(cfg, families=tuple(geometries))
    picks = {geometry: survey.top_placements(geometry, k) for geometry in geometries}
    for geometry, chosen in picks.items():
        if not chosen:
            raise CellRangeError(f"the topology has no {geometry} placement")
    return picks


def run_qft_perfect_phases(cfg: ExperimentConfig) -> dict[str, ResultTable]:
    """All eight perfect phases k*pi/4 per geometry, averaged over the top-k
    placements of the CCNOT survey. Ancillas always reset by CNOT: the
    register holds superposition. A geometry with no QFT builder raises
    ValueError before any cell runs."""
    for geometry in cfg.geometries:
        if geometry not in builders.QFT_GEOMETRIES:
            raise ValueError(f"unsupported QFT geometry {geometry!r}")
    tables: dict[str, ResultTable] = {}
    for geometry, chosen in _ranked_placements(cfg, cfg.geometries, cfg.top_k).items():
        gid = SURVEY_FAMILIES.index(geometry)
        qft = builders.qft_dagger_3(chosen[0])
        cells = (Cell(geometry, partial(builders.qpe_on_geometry, placement, k * math.pi / 4.0),
                      placement.qubits, (cfg.seed, _TAGS["qft"], gid, p_idx, k),
                      builders.qpe_expected_label(k),
                      values=builders.qpe_angles(qft, k * math.pi / 4.0))
                 for k in range(8) for p_idx, placement in enumerate(chosen))
        reports = run_cells(cells, cfg.calibration, cfg.shots)
        tables[geometry] = ResultTable(
            [_mean_row(k, reports[k * len(chosen):(k + 1) * len(chosen)], cfg.shots)
             for k in range(8)],
            metadata=_metadata(cfg, "qft-perfect", "phase_index", "fidelity", geometry=geometry,
                               placements=[list(p.qubits) for p in chosen],
                               cnot_count=qft.circuit.cnot_count()),
        )
    return tables


def default_phi_grid() -> tuple[float, ...]:
    return tuple(np.arange(0.0, 33.0) * (math.pi / 16.0))


def nearest_perfect_phase(phi: float) -> int:
    return int(round(phi / (math.pi / 4.0))) % 8


def run_qpe_phase_sweep(cfg: ExperimentConfig) -> dict[str, ResultTable]:
    """Continuous phase sweep on the best survey placement of linear3 and
    star4; other entries of cfg.geometries are ignored, and CellRangeError
    is raised before any cell runs when it holds neither. f1 counts shots on
    the nearest perfect-phase outcome and rows carry the matching noiseless
    probability and ratio."""
    grid = default_phi_grid()
    ks = [nearest_perfect_phase(phi) for phi in grid]
    geometries = [g for g in cfg.geometries if g in QPE_GEOMETRIES]
    if not geometries:
        raise CellRangeError(f"qpe-sweep runs on {' or '.join(QPE_GEOMETRIES)}; geometries "
                             f"{tuple(cfg.geometries)} hold neither")
    tables: dict[str, ResultTable] = {}
    for geometry, (placement,) in _ranked_placements(cfg, geometries, 1).items():
        gid = SURVEY_FAMILIES.index(geometry)
        qft = builders.qft_dagger_3(placement)
        cells = (Cell(geometry, partial(builders.qpe_on_geometry, placement, phi),
                      placement.qubits, (cfg.seed, _TAGS["qpe"], gid, i),
                      builders.qpe_expected_label(k), values=builders.qpe_angles(qft, phi))
                 for i, (phi, k) in enumerate(zip(grid, ks)))
        rows = []
        for phi, k, rep in zip(grid, ks, run_cells(cells, cfg.calibration, cfg.shots)):
            theory = float(theoretical_qpe_distribution(phi)[k])
            rows.append(_row(float(phi), rep, theoretical=theory,
                             ratio=rep.f1 / theory if theory > 0 else float("nan")))
        tables[geometry] = ResultTable(
            rows,
            metadata=_metadata(cfg, "qpe-sweep", "phi_rad", "fidelity", geometry=geometry,
                               placement=list(placement.qubits)),
        )
    return tables
