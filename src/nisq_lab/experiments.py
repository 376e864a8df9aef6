"""End-to-end experiment drivers: build, schedule, run noisy shots, score.

Every experiment derives one RNG seed per (placement, parameter) cell from
the master seed and the cell's coordinates, so reruns with the same config
are bit-identical and cells could be farmed out in any order. Tables carry
time in microseconds and phases in radians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .noise import DeviceCalibration, run_shots, schedule
from .simulator import Circuit
from .topology import CouplingGraph, GeometryPlacement

US = 1e-6

PROVENANCE = f"nisq-lab {__version__}"


# experiment tags keep per-cell seed streams disjoint across experiments
_TAGS = {"t1": 11, "ramsey": 12, "echo": 13, "chain": 21, "ccnot": 31, "qft": 41, "qpe": 42}

_GEOMETRY_IDS = {"linear3": 0, "star4": 1, "ring6-3chain": 2, "ring6-1chains": 3}


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
    phi_grid: tuple[float, ...] | None = None
    strategies: tuple[str, ...] = ("none", "x-reset", "cnot-reset")
    orientations: tuple[int, ...] = (1, 2, 3, 4)
    max_length: int = 19
    geometries: tuple[str, ...] = ("linear3", "star4", "ring6-3chain")
    top_k: int = 3

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.max_length < 1:
            raise CellRangeError(f"max_length must be >= 1, got {self.max_length}")
        if self.top_k < 1:
            raise CellRangeError(f"top_k must be >= 1, got {self.top_k}")
        n = self.calibration.n_qubits
        if not (0 <= self.qubit < n):
            raise ValueError(f"qubit {self.qubit} is outside the calibration's {n} qubits "
                             f"(0..{n - 1})")
        for grid in (self.dt_grid_us, self.phi_grid):
            if grid is not None:
                if len(grid) == 0:
                    raise ValueError("parameter grid must be non-empty")
                if list(grid) != sorted(grid):
                    raise ValueError("parameter grid must be sorted")


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

    def column(self, name: str) -> np.ndarray:
        if name in ("x", "f1", "f2"):
            return np.array([getattr(r, name) for r in self.rows])
        return np.array([r.extras[name] for r in self.rows])


def _run_built(built: BuiltCircuit, cal: DeviceCalibration, shots: int, seed_key,
               prep_ops: list | None = None) -> dict[str, int]:
    """Simulate a built circuit compactly on its own qubits."""
    circuit = Circuit(built.circuit.n_qubits, roles=built.circuit.roles)
    if prep_ops:
        circuit.extend(prep_ops)
    circuit.extend(built.circuit.ops)
    circuit.measure_all()
    sub = cal.subset(built.layout)
    return run_shots(schedule(circuit, sub.durations), sub, shots, seed_key)


def _score(built: BuiltCircuit, counts: dict[str, int], desired_computational: str) -> FidelityReport:
    return fidelity(counts, built.circuit.roles, desired_computational, built.desired_ancilla)


# ---------------------------------------------------------------------------
# Coherence experiments
# ---------------------------------------------------------------------------

def _coherence_counts(cfg: ExperimentConfig, ops_builder, dt_us: float, tag: int,
                      cell: int) -> dict[str, int]:
    circuit = Circuit(1, roles=("computational",))
    ops_builder(circuit, dt_us * US)
    circuit.measure(0)
    sub = cfg.calibration.subset((cfg.qubit,))
    return run_shots(schedule(circuit, sub.durations), sub, cfg.shots,
                     [cfg.seed, tag, cell])


def _default_dt_grid(cfg: ExperimentConfig, scale_us: float, points: int) -> tuple[float, ...]:
    if cfg.dt_grid_us is not None:
        return cfg.dt_grid_us
    if not math.isfinite(scale_us):
        scale_us = 100.0
    return tuple(np.linspace(0.0, 2.0 * scale_us, points))


def run_t1(cfg: ExperimentConfig) -> ResultTable:
    """Excite, idle for dt, measure; fit the survival curve exponentially."""
    params = cfg.calibration.params_for(cfg.qubit)
    t1_us = params.t1 / US
    grid = _default_dt_grid(cfg, t1_us, 8)
    rows = []
    for i, dt in enumerate(grid):
        def build(c: Circuit, dt_s: float) -> None:
            c.x(0)
            if dt_s > 0:
                c.delay(dt_s, 0)
        counts = _coherence_counts(cfg, build, dt, _TAGS["t1"], i)
        survival = counts.get("1", 0) / cfg.shots
        rows.append(ResultRow(x=float(dt), f1=survival, f2=survival, shots=cfg.shots))
    fit = fit_exponential([r.x for r in rows], [r.f1 for r in rows], cfg.shots)
    meta = {
        "experiment": "t1",
        "qubit": cfg.qubit,
        "configured_t1_us": t1_us,
        "seed": cfg.seed,
        "x_label": "dt_us",
        "y_label": "P(|1>)",
        "calibration_hash": cfg.calibration.content_hash(),
        "provenance": PROVENANCE,
    }
    if math.isfinite(t1_us) and max(grid) < 2.0 * t1_us * 0.999:
        meta["grid_warning"] = f"grid spans {max(grid):.3g} us, below 2*t1 = {2 * t1_us:.3g} us"
    return ResultTable(rows, fit, meta)


def run_t2_ramsey(cfg: ExperimentConfig) -> ResultTable:
    """H, idle, H; fit P(|0>) with the damped cosine model."""
    params = cfg.calibration.params_for(cfg.qubit)
    grid = _default_dt_grid(cfg, params.t2 / US, 40)
    rows = []
    for i, dt in enumerate(grid):
        def build(c: Circuit, dt_s: float) -> None:
            c.h(0)
            if dt_s > 0:
                c.delay(dt_s, 0)
            c.h(0)
        counts = _coherence_counts(cfg, build, dt, _TAGS["ramsey"], i)
        p0 = counts.get("0", 0) / cfg.shots
        rows.append(ResultRow(x=float(dt), f1=p0, f2=p0, shots=cfg.shots))
    fit = fit_damped_cosine([r.x for r in rows], [r.f1 for r in rows], cfg.shots)
    meta = {
        "experiment": "t2-ramsey",
        "qubit": cfg.qubit,
        "configured_t2_us": params.t2 / US,
        "configured_tphi_us": params.tphi / US,
        "configured_omega_rad_per_us": params.omega * US,
        "seed": cfg.seed,
        "x_label": "dt_us",
        "y_label": "P(|0>)",
        "calibration_hash": cfg.calibration.content_hash(),
        "provenance": PROVENANCE,
    }
    return ResultTable(rows, fit, meta)


def run_t2_echo(cfg: ExperimentConfig) -> ResultTable:
    """H, idle dt/2, X, idle dt/2, H; exponential fit of 2 P(|0>) - 1."""
    params = cfg.calibration.params_for(cfg.qubit)
    grid = _default_dt_grid(cfg, params.t2 / US, 8)
    rows = []
    for i, dt in enumerate(grid):
        def build(c: Circuit, dt_s: float) -> None:
            c.h(0)
            if dt_s > 0:
                c.delay(dt_s / 2.0, 0)
            c.x(0)
            if dt_s > 0:
                c.delay(dt_s / 2.0, 0)
            c.h(0)
        counts = _coherence_counts(cfg, build, dt, _TAGS["echo"], i)
        p0 = counts.get("0", 0) / cfg.shots
        rows.append(ResultRow(x=float(dt), f1=p0, f2=p0, shots=cfg.shots))
    coherence = np.clip(2.0 * np.array([r.f1 for r in rows]) - 1.0, 0.0, 1.0)
    fit = fit_exponential([r.x for r in rows], coherence, cfg.shots)
    meta = {
        "experiment": "t2-echo",
        "qubit": cfg.qubit,
        "configured_t2_us": params.t2 / US,
        "seed": cfg.seed,
        "x_label": "dt_us",
        "y_label": "P(|0>)",
        "fit_input": "2*P(|0>) - 1",
        "calibration_hash": cfg.calibration.content_hash(),
        "provenance": PROVENANCE,
    }
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
    tables: dict[tuple[int, str], ResultTable] = {}
    for orientation, path in paths.items():
        for s_idx, strategy in enumerate(cfg.strategies):
            rows = []
            for length in range(1, cfg.max_length + 1):
                built = builders.cnot_chain(path[: length + 1], strategy)
                counts = _run_built(built, cfg.calibration, cfg.shots,
                                    [cfg.seed, _TAGS["chain"], orientation, s_idx, length])
                rep = _score(built, counts, "11")
                rows.append(ResultRow(x=length, f1=rep.f1, f2=rep.f2, shots=cfg.shots))
            tables[(orientation, strategy)] = ResultTable(
                rows,
                metadata={
                    "experiment": "cnot-chain",
                    "orientation": orientation,
                    "strategy": strategy,
                    "seed": cfg.seed,
                    "x_label": "chain_length",
                    "y_label": "fidelity",
                    "calibration_hash": cfg.calibration.content_hash(),
                    "provenance": PROVENANCE,
                },
            )
    averages: dict[str, ResultTable] = {}
    for strategy in cfg.strategies:
        per = [tables[(o, strategy)] for o in cfg.orientations]
        rows = []
        for i in range(cfg.max_length):
            f1 = float(np.mean([t.rows[i].f1 for t in per]))
            f2 = float(np.mean([t.rows[i].f2 for t in per]))
            rows.append(ResultRow(x=i + 1, f1=f1, f2=f2, shots=cfg.shots * len(per)))
        averages[strategy] = ResultTable(
            rows,
            metadata={
                "experiment": "cnot-chain-average",
                "strategy": strategy,
                "orientations": list(cfg.orientations),
                "seed": cfg.seed,
                "x_label": "chain_length",
                "y_label": "fidelity",
                "calibration_hash": cfg.calibration.content_hash(),
                "provenance": PROVENANCE,
            },
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

    def table(self) -> ResultTable:
        rows = [ResultRow(x=c.label, f1=c.f1, f2=c.f2, shots=c.shots) for c in self.cells]
        return ResultTable(rows, metadata={"experiment": "ccnot-survey",
                                           "x_label": "placement", "y_label": "fidelity"})

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


def _survey_placements(g: CouplingGraph, families) -> list[tuple[str, GeometryPlacement]]:
    out: list[tuple[str, GeometryPlacement]] = []
    if "linear3" in families:
        for triple in topology.enumerate_linear_triples(g):
            for var in topology.linear3_variants(triple):
                out.append((var.kind, var))
    if "star4" in families:
        for star in topology.enumerate_stars(g):
            for var in topology.star_variants(star):
                out.append(("star4-x-reset", var))
                out.append(("star4-cnot-reset", var))
    if "ring6-3chain" in families:
        for p in topology.ring_placements(g, "ring6-3chain"):
            out.append(("ring6-3chain", p))
    if "ring6-1chains" in families:
        for p in topology.ring_placements(g, "ring6-1chains"):
            out.append(("ring6-1chains", p))
    return out


def _cell_label(variant: str, placement: GeometryPlacement) -> str:
    qubits = "-".join(str(q) for q in placement.qubits)
    return f"{variant}:{qubits}:t{placement.target}"


def run_ccnot_survey(cfg: ExperimentConfig,
                     families: tuple[str, ...] = ("linear3", "star4", "ring6-3chain", "ring6-1chains"),
                     ) -> SurveyResult:
    """Every geometry placement runs the CCNOT with controls prepared |1>.

    f1 scores the three computational qubits against |111>; f2 additionally
    requires all ancillas back in |0>.
    """
    g = cfg.graph or topology.shipped_poughkeepsie()
    cells = []
    for idx, (variant, placement) in enumerate(_survey_placements(g, families)):
        built = builders.ccnot_on_geometry(placement, variant)
        target_local = built.layout.index(placement.target)
        prep = Circuit(built.circuit.n_qubits)
        for q in built.computational_locals:
            if q != target_local:
                prep.x(q)
        counts = _run_built(built, cfg.calibration, cfg.shots,
                            [cfg.seed, _TAGS["ccnot"], idx], prep_ops=list(prep.ops))
        rep = _score(built, counts, "111")
        cells.append(SurveyCell(_cell_label(variant, placement), variant, placement,
                                rep.f1, rep.f2, cfg.shots))
    return SurveyResult(cells)


# ---------------------------------------------------------------------------
# QFT / QPE experiments
# ---------------------------------------------------------------------------

def _qft_placements_for(geometry: str, g: CouplingGraph, survey: SurveyResult | None,
                        top_k: int) -> list[GeometryPlacement]:
    if survey is not None:
        prefix = {"linear3": "linear3", "star4": "star4", "ring6-3chain": "ring6-3chain"}[geometry]
        picks = survey.top_placements(prefix, top_k)
        if picks:
            return picks
    if geometry == "linear3":
        return topology.enumerate_linear_triples(g)[:top_k]
    if geometry == "star4":
        return topology.enumerate_stars(g)[:top_k]
    if geometry == "ring6-3chain":
        return topology.ring_placements(g, "ring6-3chain")[:top_k]
    raise ValueError(f"unsupported QFT geometry {geometry!r}")


@dataclass
class QftPerfectResult:
    tables: dict[str, ResultTable]
    cnot_counts: dict[str, int]
    placements: dict[str, list[GeometryPlacement]]


def run_qft_perfect_phases(cfg: ExperimentConfig, survey: SurveyResult | None = None,
                           placements: dict[str, list[GeometryPlacement]] | None = None,
                           ) -> QftPerfectResult:
    """All eight perfect phases k*pi/4 per geometry, averaged over the
    selected placements (top-k of the CCNOT survey when one is supplied).
    Ancillas always reset by CNOT: the register holds superposition."""
    g = cfg.graph or topology.shipped_poughkeepsie()
    tables: dict[str, ResultTable] = {}
    cnot_counts: dict[str, int] = {}
    used: dict[str, list[GeometryPlacement]] = {}
    for geometry in cfg.geometries:
        if placements and geometry in placements:
            chosen = placements[geometry]
        else:
            chosen = _qft_placements_for(geometry, g, survey, cfg.top_k)
        used[geometry] = chosen
        gid = _GEOMETRY_IDS[geometry]
        rows = []
        for k in range(8):
            f1s, f2s = [], []
            for p_idx, placement in enumerate(chosen):
                built = builders.qpe_on_geometry(placement, k * math.pi / 4.0)
                counts = _run_built(built, cfg.calibration, cfg.shots,
                                    [cfg.seed, _TAGS["qft"], gid, p_idx, k])
                rep = _score(built, counts, builders.qpe_expected_label(k))
                f1s.append(rep.f1)
                f2s.append(rep.f2)
            rows.append(ResultRow(x=k, f1=float(np.mean(f1s)), f2=float(np.mean(f2s)),
                                  shots=cfg.shots * len(chosen)))
        cnot_counts[geometry] = builders.qft_dagger_3(chosen[0]).circuit.cnot_count()
        tables[geometry] = ResultTable(
            rows,
            metadata={
                "experiment": "qft-perfect",
                "geometry": geometry,
                "placements": [list(p.qubits) for p in chosen],
                "cnot_count": cnot_counts[geometry],
                "seed": cfg.seed,
                "x_label": "phase_index",
                "y_label": "fidelity",
                "calibration_hash": cfg.calibration.content_hash(),
                "provenance": PROVENANCE,
            },
        )
    return QftPerfectResult(tables, cnot_counts, used)


@dataclass
class QpeSweepResult:
    tables: dict[str, ResultTable]
    placements: dict[str, GeometryPlacement]


def default_phi_grid() -> tuple[float, ...]:
    return tuple(np.arange(0.0, 33.0) * (math.pi / 16.0))


def nearest_perfect_phase(phi: float) -> int:
    return int(round(phi / (math.pi / 4.0))) % 8


def run_qpe_phase_sweep(cfg: ExperimentConfig, survey: SurveyResult | None = None,
                        placements: dict[str, GeometryPlacement] | None = None,
                        ) -> QpeSweepResult:
    """Continuous phase sweep; f1 counts shots on the nearest perfect-phase
    outcome and rows carry the matching noiseless probability and ratio."""
    g = cfg.graph or topology.shipped_poughkeepsie()
    grid = cfg.phi_grid or default_phi_grid()
    geometries = tuple(g_ for g_ in cfg.geometries if g_ in ("linear3", "star4"))
    tables: dict[str, ResultTable] = {}
    used: dict[str, GeometryPlacement] = {}
    for geometry in geometries:
        if placements and geometry in placements:
            placement = placements[geometry]
        else:
            placement = _qft_placements_for(geometry, g, survey, 1)[0]
        used[geometry] = placement
        gid = _GEOMETRY_IDS[geometry]
        rows = []
        for i, phi in enumerate(grid):
            k = nearest_perfect_phase(phi)
            built = builders.qpe_on_geometry(placement, phi)
            counts = _run_built(built, cfg.calibration, cfg.shots,
                                [cfg.seed, _TAGS["qpe"], gid, i])
            rep = _score(built, counts, builders.qpe_expected_label(k))
            theory = float(theoretical_qpe_distribution(phi)[k])
            rows.append(ResultRow(
                x=float(phi), f1=rep.f1, f2=rep.f2, shots=cfg.shots,
                extras={"theoretical": theory,
                        "ratio": rep.f1 / theory if theory > 0 else float("nan")},
            ))
        tables[geometry] = ResultTable(
            rows,
            metadata={
                "experiment": "qpe-sweep",
                "geometry": geometry,
                "placement": list(placement.qubits),
                "seed": cfg.seed,
                "x_label": "phi_rad",
                "y_label": "fidelity",
                "calibration_hash": cfg.calibration.content_hash(),
                "provenance": PROVENANCE,
            },
        )
    return QpeSweepResult(tables, used)
