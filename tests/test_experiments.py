"""Experiment drivers: closed-loop recovery, noiseless limits, trends."""
import gc
import math
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from nisq_lab import builders, experiments, noise, topology
from nisq_lab.experiments import (
    _FULL_LAW_QUBITS,
    Cell,
    ExperimentConfig,
    default_phi_grid,
    nearest_perfect_phase,
    run_ccnot_survey,
    run_cells,
    run_cnot_chain_sweep,
    run_qft_perfect_phases,
    run_qpe_phase_sweep,
    run_t1,
    run_t2_echo,
    run_t2_ramsey,
)
from nisq_lab.fitting import fidelity, score_masks
from nisq_lab.noise import DeviceCalibration, DurationModel, QubitNoiseParams, run_shots, schedule
from nisq_lab.simulator import Circuit, GateOp

from calibrations import flat_cal

INF = math.inf


def cal_for_qubit(t1=INF, t2=INF, omega=0.0, p2=0.0):
    return DeviceCalibration(
        qubits=(QubitNoiseParams(t1=t1, t2=t2, omega=omega),),
        durations=DurationModel(),
        two_qubit_error=p2,
    )


def test_t1_recovery_within_ten_percent():
    cfg = ExperimentConfig(calibration=cal_for_qubit(t1=70e-6, t2=100e-6), shots=8000, seed=5)
    table = run_t1(cfg)
    assert table.fit.ok
    assert abs(table.fit.params["t_decay"] - 70.0) / 70.0 < 0.10
    # the dt = 0 point only decays during the 1 us readout window
    assert table.rows[0].f1 == pytest.approx(math.exp(-1.0 / 70.0), abs=0.01)


def test_t1_zero_measurement_duration_starts_at_one():
    cal = DeviceCalibration(
        qubits=(QubitNoiseParams(t1=70e-6, t2=100e-6),),
        durations=DurationModel(measurement=0.0),
    )
    cfg = ExperimentConfig(calibration=cal, shots=4000, seed=5)
    table = run_t1(cfg)
    assert table.rows[0].f1 == 1.0  # dt = 0, no readout window decay


def test_t1_zero_noise_fit_failure_flagged():
    cfg = ExperimentConfig(calibration=cal_for_qubit(), shots=500, seed=1,
                           dt_grid_us=(0.0, 10.0, 20.0, 40.0))
    table = run_t1(cfg)
    assert all(r.f1 == 1.0 for r in table.rows)
    assert not table.fit.ok


def test_t1_grid_warning():
    cfg = ExperimentConfig(calibration=cal_for_qubit(t1=70e-6, t2=100e-6), shots=200, seed=1,
                           dt_grid_us=(0.0, 10.0, 20.0, 30.0))
    table = run_t1(cfg)
    assert "grid_warning" in table.metadata


def test_ramsey_recovers_omega_within_one_percent():
    omega = 2 * math.pi * 0.1e6
    cfg = ExperimentConfig(calibration=cal_for_qubit(t1=120e-6, t2=45e-6, omega=omega),
                           shots=8000, seed=5)
    table = run_t2_ramsey(cfg)
    assert table.fit.ok and not table.fit.fallback
    fitted = table.fit.params["omega"]  # rad/us
    assert abs(fitted - omega * 1e-6) / (omega * 1e-6) < 0.01


def test_echo_pure_drift_stays_at_one():
    cfg = ExperimentConfig(calibration=cal_for_qubit(omega=2 * math.pi * 0.2e6),
                           shots=2000, seed=3, dt_grid_us=(0.0, 5.0, 11.0, 17.0, 23.0, 40.0))
    table = run_t2_echo(cfg)
    assert all(r.f1 == 1.0 for r in table.rows)
    assert not table.fit.ok  # no decay to fit


def test_echo_decay_at_least_ramsey_decay():
    cal = cal_for_qubit(t1=60e-6, t2=45e-6, omega=2 * math.pi * 0.15e6)
    cfg = ExperimentConfig(calibration=cal, shots=8000, seed=11)
    ramsey = run_t2_ramsey(cfg)
    echo = run_t2_echo(cfg)
    assert ramsey.fit.ok and echo.fit.ok
    assert echo.fit.params["t_decay"] >= 0.9 * ramsey.fit.params["t_phi"]


def test_chain_sweep_noiseless_all_ones(graph):
    cfg = ExperimentConfig(calibration=flat_cal(20), graph=graph, shots=64, seed=0,
                           orientations=(1, 3), max_length=6)
    result = run_cnot_chain_sweep(cfg)
    for table in result.tables.values():
        assert all(r.f1 == 1.0 and r.f2 == 1.0 for r in table.rows)
    for table in result.averages.values():
        assert all(r.f1 == 1.0 and r.f2 == 1.0 for r in table.rows)


def test_chain_sweep_reproducible(graph, default_cal):
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=300, seed=9,
                           orientations=(2,), strategies=("x-reset",), max_length=5)
    a = run_cnot_chain_sweep(cfg)
    b = run_cnot_chain_sweep(cfg)
    ta = a.tables[(2, "x-reset")]
    tb = b.tables[(2, "x-reset")]
    assert [(r.x, r.f1, r.f2) for r in ta.rows] == [(r.x, r.f1, r.f2) for r in tb.rows]


def test_chain_weak_qubit_dip(graph):
    """A mid-path qubit with t1 cut to a third of its neighbors' produces a
    visible f1 drop at the length where it joins the chain."""
    qubits = []
    for q in range(20):
        t1 = 20e-6 if q == 7 else 60e-6
        qubits.append(QubitNoiseParams(t1=t1, t2=t1, omega=0.0))
    cal = DeviceCalibration(tuple(qubits), DurationModel(), two_qubit_error=0.0)
    # orientation 1 reaches qubit 7 at chain length 7
    cfg = ExperimentConfig(calibration=cal, graph=graph, shots=8000, seed=13,
                           orientations=(1,), strategies=("x-reset",), max_length=9)
    table = run_cnot_chain_sweep(cfg).tables[(1, "x-reset")]
    f1 = [r.f1 for r in table.rows]
    drop = f1[5] - f1[6]
    sigma = math.sqrt(f1[5] * (1 - f1[5]) / 8000 + f1[6] * (1 - f1[6]) / 8000)
    assert drop > 3 * sigma


def test_ccnot_survey_noiseless_all_ones(graph):
    cfg = ExperimentConfig(calibration=flat_cal(20), graph=graph, shots=16, seed=0)
    result = run_ccnot_survey(cfg, families=("linear3",))
    assert len(result.cells) == 96  # 32 triples x 3 target placements
    assert all(c.f1 == 1.0 and c.f2 == 1.0 for c in result.cells)


def test_ccnot_survey_star_and_ring_noiseless(graph):
    cfg = ExperimentConfig(calibration=flat_cal(20), graph=graph, shots=16, seed=0)
    result = run_ccnot_survey(cfg, families=("star4", "ring6-3chain", "ring6-1chains"))
    assert len(result.family("star4-x-reset")) == 18  # 6 stars x 3 targets
    assert len(result.family("star4-cnot-reset")) == 18
    assert len(result.family("ring6-3chain")) == 12
    assert len(result.family("ring6-1chains")) == 12
    assert all(c.f1 == 1.0 and c.f2 == 1.0 for c in result.cells)


def test_ccnot_survey_runs_the_families_that_have_placements():
    """A 3-qubit path has a linear triple but no star: a survey of both
    families runs the triple's cells alone."""
    path = topology.CouplingGraph.from_edge_list(3, [(0, 1), (1, 2)])
    cfg = ExperimentConfig(calibration=flat_cal(20), graph=path, shots=16, seed=0)
    result = run_ccnot_survey(cfg, families=("linear3", "star4"))
    assert [c.variant for c in result.cells] == ["linear3-cct", "linear3-cct", "linear3-ctc"]


def test_survey_top_placements_ranking(graph):
    cfg = ExperimentConfig(calibration=flat_cal(20), graph=graph, shots=16, seed=0)
    result = run_ccnot_survey(cfg, families=("star4",))
    top = result.top_placements("star4", 3)
    assert len(top) == 3
    assert all(p.kind == "star4" for p in top)


def test_qft_perfect_noiseless_all_ones(graph):
    cfg = ExperimentConfig(calibration=flat_cal(20), graph=graph, shots=32, seed=0, top_k=1)
    tables = run_qft_perfect_phases(cfg)
    assert list(tables) == list(cfg.geometries)
    for geometry, table in tables.items():
        assert [r.x for r in table.rows] == list(range(8))
        assert all(r.f1 == 1.0 for r in table.rows), geometry
        assert all(r.f2 == 1.0 for r in table.rows), geometry
    assert tables["star4"].metadata["cnot_count"] == tables["linear3"].metadata["cnot_count"] - 2


def test_qft_rejects_unsupported_geometry_before_any_cell(graph, default_cal, monkeypatch):
    calls = []
    real = experiments.run_shots

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_shots", counting)
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1,
                           geometries=("linear3", "ring6-1chains"))
    with pytest.raises(ValueError, match="unsupported QFT geometry 'ring6-1chains'"):
        run_qft_perfect_phases(cfg)
    assert calls == []


def test_qpe_sweep_noiseless_matches_theory(graph):
    cfg = ExperimentConfig(calibration=flat_cal(20), graph=graph, shots=4000, seed=21,
                           geometries=("linear3",))
    tables = run_qpe_phase_sweep(cfg)
    assert list(tables) == ["linear3"]
    table = tables["linear3"]
    assert [row.x for row in table.rows] == list(default_phi_grid())
    for row in table.rows:
        theory = row.extras["theoretical"]
        sigma = math.sqrt(max(theory * (1 - theory), 1e-9) / 4000)
        assert abs(row.f1 - theory) <= 5 * sigma


def test_qpe_sweep_grid_and_nearest_phase():
    grid = default_phi_grid()
    assert len(grid) == 33
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(2 * math.pi)
    assert nearest_perfect_phase(0.0) == 0
    assert nearest_perfect_phase(math.pi / 4 + 0.01) == 1
    assert nearest_perfect_phase(2 * math.pi) == 0


def test_qpe_theoretical_dips_to_041():
    from nisq_lab.fitting import theoretical_qpe_distribution

    grid = default_phi_grid()
    halfway = [g for g in grid if abs((g / (math.pi / 8)) % 2 - 1) < 1e-9]
    assert halfway
    for phi in halfway:
        assert max(theoretical_qpe_distribution(phi)) == pytest.approx(0.4105, abs=1e-3)


def test_experiment_config_validation(default_cal):
    with pytest.raises(ValueError):
        ExperimentConfig(calibration=default_cal, shots=0)
    with pytest.raises(ValueError):
        ExperimentConfig(calibration=default_cal, dt_grid_us=())
    with pytest.raises(ValueError):
        ExperimentConfig(calibration=default_cal, dt_grid_us=(5.0, 1.0))


@pytest.mark.parametrize("field, grid, message", [
    ("dt_grid_us", (-5.0, 0.0, 5.0), "dt_grid_us entry -5.0 is negative"),
    ("dt_grid_us", (0.0, math.nan), "dt_grid_us entry nan is not finite"),
])
def test_experiment_config_rejects_bad_grid_entries(default_cal, field, grid, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(calibration=default_cal, **{field: grid})



@pytest.mark.parametrize("field, names, message", [
    ("strategies", ("none", "none"), "strategies must list distinct entries from none, "
                                     "x-reset, cnot-reset"),
    ("strategies", ("bogus",), "strategies must list distinct entries from none, "
                               "x-reset, cnot-reset"),
    ("orientations", (1, 1), "orientations must list distinct entries"),
    ("geometries", ("star4", "star4"), "geometries must list distinct entries from linear3"),
    ("geometries", ("bogus",), "geometries must list distinct entries from linear3"),
])
def test_experiment_config_rejects_repeated_or_unknown_names(default_cal, field, names, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(calibration=default_cal, **{field: names})


@pytest.mark.parametrize("families", [("bogus",), ("star4", "star4"), ("linear3", "ring6")])
def test_ccnot_survey_rejects_repeated_or_unknown_families(default_cal, families):
    cfg = ExperimentConfig(calibration=default_cal, shots=10, seed=1)
    with pytest.raises(ValueError, match="families must list distinct entries from linear3, "
                                         "star4, ring6-3chain, ring6-1chains"):
        run_ccnot_survey(cfg, families=families)


# ---------------------------------------------------------------------------
# Seed keys: a subset run draws the full run's counts
# ---------------------------------------------------------------------------

SUBSET_SHOTS = 200


def _rows(table):
    return [(r.x, r.f1, r.f2, r.shots) for r in table.rows]


def test_survey_family_subset_draws_the_full_survey_counts(graph, default_cal):
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=SUBSET_SHOTS, seed=3)
    full = {c.label: (c.f1, c.f2) for c in run_ccnot_survey(cfg).cells}
    assert len(full) == 156
    star = {c.label: (c.f1, c.f2) for c in run_ccnot_survey(cfg, families=("star4",)).cells}
    assert len(star) == 36
    assert star == {label: full[label] for label in star}


def test_chain_strategy_subset_draws_the_full_sweep_counts(graph, default_cal):
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=SUBSET_SHOTS, seed=3)
    full = run_cnot_chain_sweep(cfg)
    sub = run_cnot_chain_sweep(replace(cfg, strategies=("cnot-reset",)))
    assert set(sub.tables) == {(o, "cnot-reset") for o in cfg.orientations}
    for key, table in sub.tables.items():
        assert _rows(table) == _rows(full.tables[key]), key
    assert _rows(sub.averages["cnot-reset"]) == _rows(full.averages["cnot-reset"])


def test_qft_geometry_subset_matches_the_default_run(graph, default_cal):
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=SUBSET_SHOTS, seed=3)
    full = run_qft_perfect_phases(cfg)["star4"]
    star = run_qft_perfect_phases(replace(cfg, geometries=("star4",)))["star4"]
    assert star.metadata["placements"] == full.metadata["placements"]
    assert _rows(star) == _rows(full)


def test_shared_schedules_report_what_a_fresh_schedule_per_cell_reports(graph, default_cal):
    """run_cells builds and schedules each shape once; its reports equal
    those of building and scheduling every cell afresh."""
    cells = []
    for idx, (variant, placement) in enumerate(experiments._survey_placements(graph)):
        if variant.startswith("star4"):
            layout = placement.qubits
            target = layout.index(placement.target)
            controls = tuple(q for q in range(3) if q != target)
            cells.append(Cell((variant, target),
                              partial(builders.ccnot_on_geometry, placement, variant), layout,
                              (3, experiments._TAGS["ccnot"], idx), "111", prep_x=controls))
    assert len({c.shape for c in cells}) < len(cells)
    fresh = []
    for cell in cells:
        built = cell.build()
        circuit = Circuit(built.circuit.n_qubits,
                          [GateOp("X", (q,)) for q in cell.prep_x] + built.circuit.ops,
                          built.circuit.roles).measure_all()
        sub = default_cal.subset(built.layout)
        counts = run_shots(schedule(circuit, sub.durations), sub, SUBSET_SHOTS,
                           list(cell.seed_key))
        fresh.append(fidelity(counts, built.circuit.roles, cell.desired, built.desired_ancilla))
    assert run_cells(cells, default_cal, SUBSET_SHOTS) == fresh


def _recorded_cells(monkeypatch, run, cfg) -> list[Cell]:
    """Every cell ``run(cfg)`` sends to run_cells, after run_cells ran it."""
    cells = []
    real = experiments.run_cells

    def recording(cell_iter, cal, shots):
        batch = list(cell_iter)
        reports = real(batch, cal, shots)
        cells.extend(batch)
        return reports

    monkeypatch.setattr(experiments, "run_cells", recording)
    run(cfg)
    return cells


def _assert_cell_builds(cell, shared, fresh, *, bound=False):
    """The cell's own build, its shape's shared build (from the first cell
    of the shape) and a fresh builder call on the cell's placement hold one
    circuit, and the cell runs it on the fresh build's layout. With
    ``bound``, the shared build's ops may differ from the fresh build's in
    the DELAY durations and RPHI angles that the cell binds."""
    own = cell.build()
    for built in (own, shared):
        assert built.circuit.n_qubits == fresh.circuit.n_qubits
        assert built.roles == fresh.roles
        assert built.desired_ancilla == fresh.desired_ancilla
    assert own.circuit.ops == fresh.circuit.ops
    if bound:
        assert [(op.kind, op.qubits) for op in shared.circuit.ops] == [
            (op.kind, op.qubits) for op in fresh.circuit.ops]
    else:
        assert shared.circuit.ops == fresh.circuit.ops
    assert own.layout == fresh.layout
    assert cell.layout == fresh.layout


def _measured_schedule(cell, built, durations):
    """The schedule run_cells makes of ``built`` for ``cell``: its X prep,
    the circuit and a measurement of every qubit."""
    circuit = Circuit(built.circuit.n_qubits,
                      [GateOp("X", (q,)) for q in cell.prep_x] + built.circuit.ops,
                      built.circuit.roles).measure_all()
    return schedule(circuit, durations)


def _assert_cell_binds(cell, shared, fresh, durations):
    """The cell's own build holds what a fresh builder call on its placement
    returns, and its values bound onto the schedule of its shape's shared
    build (from the first cell of the shape) give the fresh build's layers,
    timing and angles."""
    _assert_cell_builds(cell, shared, fresh, bound=True)
    want = _measured_schedule(cell, fresh, durations)
    sched = _measured_schedule(cell, shared, durations)
    bound = sched if cell.values is None else noise.bind(sched, cell.values)
    assert [[(op.kind, op.qubits) for op in layer.ops] for layer in bound.layers] == [
        [(op.kind, op.qubits) for op in layer.ops] for layer in want.layers]
    assert (bound.ends, bound.angles) == (want.ends, want.angles)


def _shared_builds(cells) -> dict:
    """Each shape's build, as run_cells makes it: from its first cell."""
    shared = {}
    for cell in cells:
        if cell.shape not in shared:
            shared[cell.shape] = cell.build()
    return shared


def test_every_cell_holds_what_a_fresh_builder_call_returns(graph, default_cal, monkeypatch):
    """Cells of one shape share one build, yet every cell of the full
    survey, the chain sweep and qft-perfect, as its experiment emits it, builds
    and runs what a fresh builder call on its own placement returns."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    survey = experiments._survey_placements(graph)
    cells = _recorded_cells(monkeypatch, run_ccnot_survey, cfg)
    assert len(cells) == 156
    shared = _shared_builds(cells)
    assert len(shared) == 12
    for cell in cells:
        variant, placement = survey[cell.seed_key[2]]
        fresh = builders.ccnot_on_geometry(placement, variant)
        _assert_cell_builds(cell, shared[cell.shape], fresh)
        target = fresh.layout.index(placement.target)
        assert cell.prep_x == tuple(i for i, role in enumerate(fresh.roles)
                                    if role != "ancilla" and i != target)

    cells = _recorded_cells(monkeypatch, run_cnot_chain_sweep, cfg)
    assert len(cells) == 228
    shared = _shared_builds(cells)
    assert len(shared) == 57
    for cell in cells:
        _, _, orientation, strategy, n = cell.seed_key
        path = topology.chain_paths(graph, orientation)[: n + 1]
        _assert_cell_builds(cell, shared[cell.shape],
                            builders.cnot_chain(path, builders.RESET_STRATEGIES[strategy]))
        assert cell.prep_x == ()

    cells = [c for c in _recorded_cells(monkeypatch, run_qft_perfect_phases, cfg)
             if c.seed_key[1] == experiments._TAGS["qft"]]
    assert len(cells) == 8 * len(cfg.geometries) * cfg.top_k
    monkeypatch.undo()
    for geometry, chosen in experiments._ranked_placements(cfg, cfg.geometries,
                                                           cfg.top_k).items():
        ours = [c for c in cells if c.seed_key[2] == experiments.SURVEY_FAMILIES.index(geometry)]
        shared = _shared_builds(ours)
        assert len(shared) == 1
        for cell in ours:
            _, _, _, p_idx, k = cell.seed_key
            _assert_cell_binds(cell, shared[cell.shape],
                               builders.qpe_on_geometry(chosen[p_idx], k * math.pi / 4.0),
                               default_cal.durations)
            assert cell.prep_x == ()


def test_cell_order_does_not_change_any_report(graph, default_cal, monkeypatch):
    """Each survey and chain cell, as its experiment emits it, reports the same
    counts when run_cells runs the cells in reverse; each shape is then
    built from another placement, so this also checks sharing by shape."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=SUBSET_SHOTS, seed=4)
    for run, count in ((run_ccnot_survey, 156), (run_cnot_chain_sweep, 228)):
        cells = _recorded_cells(monkeypatch, run, cfg)
        monkeypatch.undo()
        assert len(cells) == count
        forward = run_cells(cells, default_cal, cfg.shots)
        backward = run_cells(cells[::-1], default_cal, cfg.shots)
        assert forward == backward[::-1]


def test_each_cell_shape_is_built_once_per_driver_call(graph, default_cal, monkeypatch):
    """12 survey shapes (variant, target local), 57 chain shapes (length,
    strategy), and one QFT circuit per geometry, whose phases its cells
    bind."""
    calls = dict.fromkeys(("ccnot_on_geometry", "cnot_chain", "qpe_on_geometry"), 0)
    for name in calls:
        def counting(*args, _real=getattr(builders, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(builders, name, counting)
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    run_ccnot_survey(cfg)
    run_cnot_chain_sweep(cfg)
    assert calls == {"ccnot_on_geometry": 12, "cnot_chain": 57, "qpe_on_geometry": 0}
    run_qft_perfect_phases(cfg)
    # its ranking survey has 2 linear3, 6 star4 and 1 ring6-3chain shapes
    assert calls["ccnot_on_geometry"] == 12 + 9
    assert calls["qpe_on_geometry"] == len(cfg.geometries)


def test_a_second_survey_in_one_process_reports_what_the_first_did(graph, default_cal):
    """Shared circuits live for one driver call, and nothing mutates them."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=SUBSET_SHOTS, seed=5)
    assert run_ccnot_survey(cfg) == run_ccnot_survey(cfg)


def test_qpe_sweep_without_linear3_or_star4_raises_before_any_cell(default_cal, monkeypatch):
    def no_cells(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiments, "run_cells", no_cells)
    cfg = ExperimentConfig(calibration=default_cal, shots=8, geometries=("ring6-3chain",))
    with pytest.raises(experiments.CellRangeError, match="linear3 or star4"):
        run_qpe_phase_sweep(cfg)


@pytest.mark.parametrize("run", [run_t1, run_t2_ramsey, run_t2_echo, run_cnot_chain_sweep,
                                 run_ccnot_survey, run_qft_perfect_phases, run_qpe_phase_sweep])
def test_seed_keys_are_distinct_and_one_length_per_tag(graph, default_cal, monkeypatch, run):
    """numpy's SeedSequence flattens nested keys and ignores trailing zeros
    ([1, 2] and [1, 2, 0] seed one stream), so keys stay distinct streams
    only if all keys under one experiment tag have one length."""
    keys = []
    real = experiments.run_shots

    def recording(scheduled, cal, shots, seed):
        keys.append(tuple(seed))
        return real(scheduled, cal, shots, seed)

    monkeypatch.setattr(experiments, "run_shots", recording)
    run(ExperimentConfig(calibration=default_cal, graph=graph, shots=16, seed=7))
    assert keys
    assert len(set(keys)) == len(keys)
    lengths: dict[int, set[int]] = {}
    for key in keys:
        lengths.setdefault(key[1], set()).add(len(key))
    assert all(len(ls) == 1 for ls in lengths.values()), lengths


# ---------------------------------------------------------------------------
# Stacked exact distributions
# ---------------------------------------------------------------------------

_STACKED_RUNS = {"ccnot-survey": run_ccnot_survey, "qft-perfect": run_qft_perfect_phases,
                 "qpe-sweep": run_qpe_phase_sweep}


def _exact_shapes(monkeypatch, run, cfg) -> list[list[tuple]]:
    """The (schedule, calibration subset) rows of every shape that
    run_cells hands to ``keep_distributions`` while ``run(cfg)`` runs."""
    shapes = []
    real = experiments.keep_distributions

    def recording(rows):
        shapes.append(list(rows))
        real(rows)

    monkeypatch.setattr(experiments, "keep_distributions", recording)
    run(cfg)
    monkeypatch.undo()
    return shapes


def _alone(scheduled, cal):
    """The distribution of ``scheduled`` on ``cal`` alone, on a new copy of
    the schedule, which plans afresh."""
    return noise._exact_probabilities([(replace(scheduled), cal)])[0]


@pytest.mark.parametrize("name", sorted(_STACKED_RUNS))
def test_stacked_distributions_equal_single_calibration_runs(graph, default_cal, monkeypatch,
                                                              name):
    """Every exact shape of the survey, qft-perfect on its three geometries
    and qpe-sweep, its own rows stacked with its first schedule on the
    calibration subsets of every cell of its width in the run, forward and
    reversed, gives each row, bit for bit, the distribution it gets alone.
    A QFT or QPE shape's rows are schedules bound with their phases'
    angles, and the other subsets stack each shape over calibrations too."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    shapes = _exact_shapes(monkeypatch, _STACKED_RUNS[name], cfg)
    assert cfg.geometries == builders.QFT_GEOMETRIES
    by_width: dict[int, dict] = {}
    for rows in shapes:
        by_width.setdefault(rows[0][0].n_qubits, {}).update(dict.fromkeys(c for _, c in rows))
    for rows in shapes:
        scheduled = rows[0][0]
        rows = rows + [(scheduled, cal) for cal in by_width[scheduled.n_qubits]]
        alone = [_alone(s, cal) for s, cal in rows]
        for order in (slice(None), slice(None, None, -1)):
            stacked = noise._exact_probabilities([(replace(s), c) for s, c in rows[order]])
            assert stacked.shape == (len(rows), 2**scheduled.n_qubits)
            for row, want in zip(stacked, alone[order]):
                assert np.array_equal(row, want)


@pytest.mark.parametrize("run", [run_cnot_chain_sweep, run_t1])
def test_wide_cells_draw_score_classes_and_narrow_cells_keep_distributions(
        graph, default_cal, monkeypatch, run):
    """Every shape of up to 12 qubits, t1's and the chains' of 2 to 12,
    keeps its distributions in a stacked pass and calls run_shots once per
    cell. Each of the chain sweep's 96 cells of 13 to 20 qubits calls
    neither: it reports f1 = (k0 + k1) / shots and f2 = k0 / shots of one
    multinomial draw, on stream 3 of its seed key, from its exact (P(f1 and
    f2), P(f1 and not f2), P(not f1)), which a fresh schedule of its own
    build gives alone."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=300, seed=1, qubit=7)
    kept, drawn, reports = [], [], []
    real_keep, real_run, real_cells = (experiments.keep_distributions, experiments.run_shots,
                                       experiments.run_cells)

    def keeping(rows):
        real_keep(rows)
        kept.append(rows[0][0].n_qubits)

    def running(scheduled, cal, shots, seed):
        drawn.append(scheduled.n_qubits)
        return real_run(scheduled, cal, shots, seed)

    def cells_run(cell_iter, cal, shots):
        batch = list(cell_iter)
        out = real_cells(batch, cal, shots)
        reports.extend(zip(batch, out))
        return out

    monkeypatch.setattr(experiments, "keep_distributions", keeping)
    monkeypatch.setattr(experiments, "run_shots", running)
    monkeypatch.setattr(experiments, "run_cells", cells_run)
    run(cfg)
    monkeypatch.undo()
    chain = run is run_cnot_chain_sweep
    wide = [(cell, rep) for cell, rep in reports if len(cell.layout) > _FULL_LAW_QUBITS]
    assert set(kept) == set(drawn) == (set(range(2, 13)) if chain else {1})
    assert len(drawn) == len(reports) - len(wide)
    assert len(wide) == (96 if chain else 0)
    for cell, rep in wide:
        built = cell.build()
        fresh = _measured_schedule(cell, built, default_cal.durations)
        scores = score_masks(built.roles, cell.desired, built.desired_ancilla)
        [[f1, f12]] = noise.score_probabilities([(fresh, default_cal.subset(cell.layout))],
                                                [scores])
        p = np.maximum([f12, f1 - f12, 1.0 - f1], 0.0)
        rng = np.random.default_rng([list(cell.seed_key), 3])
        k0, k1, _ = rng.multinomial(300, p / p.sum()).tolist()
        assert (rep.f1, rep.f2, rep.shots) == ((k0 + k1) / 300, k0 / 300, 300), cell.seed_key


@pytest.mark.parametrize("chunk", [1, 2])
def test_kept_distributions_are_stacked_in_chunks_within_the_budget(graph, default_cal,
                                                                    monkeypatch, chunk):
    """With the memory budget cut to ``chunk`` stacked rows of a shape, and
    never below the shape's floor, which is checked before planning,
    ``keep_distributions`` runs each survey shape in stacks of at most that
    many, in order, and keeps for each distinct subset what it gets alone."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    shapes = _exact_shapes(monkeypatch, run_ccnot_survey, cfg)
    assert len(shapes) == 12
    sizes = []
    real = noise._exact_probabilities
    monkeypatch.setattr(noise, "_exact_probabilities",
                        lambda rows: sizes.append(len(rows)) or real(rows))
    for rows in shapes:
        scheduled, cals = rows[0][0], [cal for _, cal in rows]
        budget = max(noise._stacked_need(scheduled) * chunk, noise._outcome_floor(scheduled))
        monkeypatch.setattr(noise, "_MEMORY_BUDGET", budget)
        fresh = replace(scheduled)
        sizes.clear()
        noise.keep_distributions([(fresh, cal) for cal in cals])
        distinct = list(dict.fromkeys(cals))
        assert len(distinct) > chunk
        assert sizes == [len(distinct[i:i + chunk]) for i in range(0, len(distinct), chunk)]
        kept = fresh.__dict__["distributions"]
        assert list(kept) == distinct
        for cal in distinct:
            assert np.array_equal(kept[cal], real([(replace(scheduled), cal)])[0])


def test_run_shots_counts_are_the_same_with_or_without_a_kept_distribution(
        graph, default_cal, monkeypatch):
    """A stacked schedule draws every survey cell's counts from its kept row,
    without computing it again, and they equal those of a schedule that
    computes each calibration alone."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=SUBSET_SHOTS, seed=2)
    shapes = _exact_shapes(monkeypatch, run_ccnot_survey, cfg)
    for rows in shapes:
        scheduled, cals = rows[0][0], [cal for _, cal in rows]
        stacked, alone = replace(scheduled), replace(scheduled)
        noise.keep_distributions([(stacked, cal) for cal in cals])
        want = [run_shots(alone, cal, SUBSET_SHOTS, [2, i]) for i, cal in enumerate(cals)]
        with monkeypatch.context() as m:
            m.setattr(noise, "_exact_probabilities", None)  # any call would fail
            got = [run_shots(stacked, cal, SUBSET_SHOTS, [2, i]) for i, cal in enumerate(cals)]
        assert got == want
        assert "distributions" not in alone.__dict__


def test_an_exact_shape_over_the_budget_is_refused_before_any_allocation(
        graph, default_cal, monkeypatch):
    """With room for no 3-qubit cell, the first shape's stacked pass raises
    the pre-flight's SimulationError before computing anything."""
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", noise._DENSE_PEAK_COPIES * 8 * 4**3 - 1)
    monkeypatch.setattr(noise, "_exact_probabilities", None)  # any call would fail
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    with pytest.raises(noise.SimulationError, match="exact engine would need about"):
        run_ccnot_survey(cfg, families=("linear3",))


def test_nothing_is_kept_once_run_cells_returns(graph, default_cal, monkeypatch):
    """Kept distributions live on the call's schedules, which die with it."""
    refs = []
    real = experiments.keep_distributions

    def recording(rows):
        real(rows)
        if "distributions" in rows[0][0].__dict__:
            refs.append(weakref.ref(rows[0][0]))

    monkeypatch.setattr(experiments, "keep_distributions", recording)
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    run_ccnot_survey(cfg)
    assert len(refs) == 12
    gc.collect()
    assert [ref() for ref in refs] == [None] * 12


# ---------------------------------------------------------------------------
# Cells that bind their delays and angles
# ---------------------------------------------------------------------------

def _bound_runs(monkeypatch, run, cfg) -> list[tuple]:
    """(cell, schedule, calibration subset) of every run_shots call that
    ``run(cfg)`` makes, in cell order, after run_cells ran them: each
    schedule is the cell's own, bound from its shape's, with what
    ``keep_distributions`` kept on it."""
    calls = {}  # by seed key: run_cells runs the cells shape by shape
    real = experiments.run_shots

    def recording(scheduled, cal, shots, seed):
        calls[tuple(seed)] = (scheduled, cal)
        return real(scheduled, cal, shots, seed)

    monkeypatch.setattr(experiments, "run_shots", recording)
    cells = _recorded_cells(monkeypatch, run, cfg)
    monkeypatch.undo()
    assert len(cells) == len(calls)
    return [(cell, *calls[cell.seed_key]) for cell in cells]


def _assert_bound_runs_equal_fresh_runs(runs, cal, seeds=(1,)) -> int:
    """Each cell's kept distribution equals, bit for bit, that of a fresh
    schedule of its own build run alone, and its run_shots counts equal the
    fresh schedule's at each seed. Returns how many distributions were
    kept, that is, stacked."""
    kept = 0
    for cell, bound, sub in runs:
        fresh = _measured_schedule(cell, cell.build(), cal.durations)
        want = noise._exact_probabilities([(fresh, sub)])[0]
        got = bound.__dict__.get("distributions", {}).get(sub)
        if got is not None:
            kept += 1
            assert np.array_equal(got, want), cell.seed_key
        assert np.array_equal(_alone(bound, sub), want), cell.seed_key
        for seed in seeds:
            key = [seed, *cell.seed_key]
            assert run_shots(bound, sub, 64, key) == run_shots(fresh, sub, 64, key), cell.seed_key
    return kept


def _shapes_of(runs) -> int:
    """How many layerings, so schedule calls, the runs share."""
    return len({id(bound.layers) for _, bound, _ in runs})


@pytest.mark.parametrize("run, classical", [(run_t1, True), (run_t2_ramsey, False),
                                            (run_t2_echo, False)])
def test_bound_coherence_cells_run_as_fresh_schedules_on_every_qubit(default_cal, monkeypatch,
                                                                      run, classical):
    """On each of the 20 qubits, with its default grid, a coherence table is
    one shape, whose cells, the zero delay's among them, are all stacked on
    the exact engine; t1, whose X and delay keep it on (r_I, r_Z) legs, is
    compared at several seeds. The zero-delay cell, a DELAY of 0 s, keeps,
    bit for bit, the distribution of a fresh schedule of its circuit
    without its DELAY ops."""
    for qubit in range(20):
        cfg = ExperimentConfig(calibration=default_cal, shots=8, seed=1, qubit=qubit)
        runs = _bound_runs(monkeypatch, run, cfg)
        assert _shapes_of(runs) == 1
        kept = _assert_bound_runs_equal_fresh_runs(runs, default_cal,
                                                   seeds=(1, 2, 3, 5, 8) if classical else (1,))
        assert kept == len(runs)
        legs = {noise._kept(bound, 2).leg for _, bound, _ in runs}
        assert legs == ({2} if classical else {4})
        cell, bound, sub = runs[0]  # the zero delay's
        built = cell.build()
        delays = {op.duration for op in built.circuit.ops if op.kind == "DELAY"}
        undelayed = replace(built, circuit=Circuit(1, [op for op in built.circuit.ops
                                                       if op.kind != "DELAY"],
                                                   built.circuit.roles))
        fresh = _measured_schedule(cell, undelayed, default_cal.durations)
        assert delays == {0.0} and sorted(set(bound.ends)) == list(fresh.ends)
        assert np.array_equal(bound.__dict__["distributions"][sub],
                              noise._exact_probabilities([(fresh, sub)])[0]), qubit


@pytest.mark.parametrize("run", [run_t1, run_t2_ramsey, run_t2_echo])
def test_bound_cells_with_repeated_and_zero_delays_run_as_fresh_schedules(default_cal,
                                                                          monkeypatch, run):
    """Repeated delays bind equal values and zero delays bind DELAYs of 0 s
    onto the table's one shape; both still run as fresh schedules of their
    circuits."""
    cfg = ExperimentConfig(calibration=default_cal, shots=8, seed=3, qubit=7,
                           dt_grid_us=(0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0))
    runs = _bound_runs(monkeypatch, run, cfg)
    assert _shapes_of(runs) == 1
    _assert_bound_runs_equal_fresh_runs(runs, default_cal, seeds=(1, 2))


@pytest.mark.parametrize("run, cells, shapes", [(run_qpe_phase_sweep, 2 * 33, 2),
                                                (run_qft_perfect_phases, 3 * 8 * 3, 3)])
def test_bound_qft_and_qpe_cells_run_as_fresh_schedules(graph, default_cal, monkeypatch, run,
                                                        cells, shapes):
    """qpe-sweep's 2 x 33 phases and qft-perfect's 8 phases on the 3 top
    placements of each of its 3 geometries bind their angles onto one
    shape per geometry and are stacked, and the ranking survey's cells run
    as before."""
    cfg = ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=4)
    runs = _bound_runs(monkeypatch, run, cfg)
    ours = [r for r in runs if r[0].seed_key[1] in (experiments._TAGS["qft"],
                                                     experiments._TAGS["qpe"])]
    assert len(ours) == cells
    assert _shapes_of(ours) == shapes
    assert _assert_bound_runs_equal_fresh_runs(ours, default_cal) == cells
    _assert_bound_runs_equal_fresh_runs(runs[:len(runs) - cells], default_cal)


@pytest.mark.parametrize("run", [run_t2_ramsey, run_t2_echo, run_qpe_phase_sweep])
def test_zero_length_windows_run_as_fresh_schedules(graph, default_cal, monkeypatch, run):
    """With 0 ns single-qubit gates, consecutive single-qubit gates close
    idle windows of zero length, which a fresh schedule's plan shares with
    every bound one; each applies the exact identity, and the bound cells
    still run as fresh schedules."""
    cal = replace(default_cal, durations=DurationModel(single_qubit=0.0))
    cfg = ExperimentConfig(calibration=cal, graph=graph, shots=8, seed=6)
    runs = _bound_runs(monkeypatch, run, cfg)
    zero = 0
    for _, bound, _ in runs:
        index = noise._kept(bound, 2).index
        ends = np.array([0.0, *bound.ends])  # layer -1 ends at the start
        end, start = index[4:] - 4 * bound.n_qubits
        zero += int(np.count_nonzero(ends[end] == ends[start]))
    assert zero > 0
    params = cal.qubits[0]
    rates = noise._channel_rates(np.array([params.t1]), np.array([params.tphi]),
                                 np.array([params.omega]), np.zeros(1))
    assert np.array_equal(noise._idle_ptms(*rates), np.eye(4)[None])
    _assert_bound_runs_equal_fresh_runs(runs, cal)
