"""The benchmark in ``perfbench/`` traces the program by wrapping module
attributes (``experiments.run_t1``, ``experiments.run_shots``, ...) and looks
them up at call time. If a call site binds one of them at import, the traced
run sees no calls for its layer and the benchmark guard fails; these tests
catch that in the ordinary suite."""
import collections
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from nisq_lab import cli, experiments, noise  # noqa: E402

# which engine a run reaches depends on its circuits; every other layer of
# its workload must show up in each run on its own
ENGINE_LAYERS = {"noise.dense", "noise.classical"}

SMALL_RUNS = {
    "survey-dense": [["ccnot-survey", "--families", "linear3", "--shots", "8"]],
    "chain-classical": [["cnot-chain", "--orientations", "1", "--strategies", "none",
                         "--max-length", "2", "--shots", "8"]],
    "coherence-cli": [["t1", "--grid-us", "0,5,10,20", "--shots", "50", "--plot"],
                      ["t2-ramsey", "--grid-us", "0,1,2,3,4,5", "--shots", "50", "--plot"]],
}


@pytest.mark.parametrize("workload", sorted(SMALL_RUNS))
def test_every_benchmark_layer_records_calls(workload, tmp_path):
    layers = set(workloads.WORKLOADS[workload].layers)
    seen = set()
    for i, argv in enumerate(SMALL_RUNS[workload]):
        with spans.Tracer() as tracer:
            assert cli.main(argv + ["--seed", "1", "--out", str(tmp_path / str(i))]) == 0
        metrics, _ = spans.layer_metrics(tracer.spans)
        called = {layer for layer in layers if metrics.get(f"{layer}.calls", 0) > 0}
        assert layers - ENGINE_LAYERS <= called, (argv, sorted(layers - called))
        seen |= called
    assert seen == layers, sorted(layers - seen)


def test_wide_dense_pass_records_calls_in_every_layer(tmp_path, graph, default_cal):
    """wide-dense calls builders and noise through the API, not the CLI."""
    workload = workloads.WORKLOADS["wide-dense"]
    ctx = workloads.Context(tmp_path, graph, default_cal)
    with spans.Tracer() as tracer:
        result = workload.run(ctx, 1)
    metrics, _ = spans.layer_metrics(tracer.spans)
    assert [layer for layer in workload.layers if metrics.get(f"{layer}.calls", 0) == 0] == []
    tables = workload.collect(ctx, result)
    assert [len(rows) for rows, _ in tables.values()] == [5]


def test_every_cell_calls_run_shots_and_each_distinct_circuit_is_scheduled_once(
        monkeypatch, graph, default_cal):
    """The benchmark cuts its passes at each ``experiments.run_shots`` call
    and checks that ``noise.schedule`` records calls: every cell of up to
    12 qubits must still reach run_shots on its own, while cells of one
    shape share one schedule (12 shapes among the 156 survey cells, 57
    among the 228 chain cells; the three strategies at length 1 are three
    shapes that build the same two ops). The chain sweep's 96 cells of 13
    to 20 qubits draw their score classes in ``run_cells`` and call
    run_shots no more, so a chain pass makes 132 run_shots calls."""
    calls = collections.Counter()
    widths = []
    for name in ("run_shots", "schedule"):
        def counting(*args, _real=getattr(experiments, name), _name=name):
            calls[_name] += 1
            if _name == "run_shots":
                widths.append(args[0].n_qubits)
            return _real(*args)
        monkeypatch.setattr(experiments, name, counting)
    cfg = experiments.ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    experiments.run_ccnot_survey(cfg)
    assert calls == {"run_shots": 156, "schedule": 12}
    calls.clear()
    widths.clear()
    experiments.run_cnot_chain_sweep(cfg)
    assert calls == {"run_shots": 132, "schedule": 57}
    assert collections.Counter(widths) == {n: 12 for n in range(2, 13)}


def test_coherence_and_qpe_cells_bind_onto_one_schedule_per_structure(
        monkeypatch, graph, default_cal):
    """Cells that differ only in a delay or in phase angles bind them onto
    their shape's one schedule, and each still calls run_shots: a 40-point
    t2-ramsey schedules once (its zero delay binds a DELAY of 0 s), and
    qpe-sweep schedules once per geometry beyond its ranking survey."""
    calls = collections.Counter()
    for name in ("run_shots", "schedule"):
        def counting(*args, _real=getattr(experiments, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(experiments, name, counting)
    cfg = experiments.ExperimentConfig(calibration=default_cal, graph=graph, shots=8, seed=1)
    for run, points in ((experiments.run_t1, 8), (experiments.run_t2_ramsey, 40),
                        (experiments.run_t2_echo, 8)):
        calls.clear()
        assert len(run(cfg).rows) == points
        assert calls == {"run_shots": points, "schedule": 1}
    calls.clear()
    experiments.run_ccnot_survey(cfg, families=experiments.QPE_GEOMETRIES)
    survey = dict(calls)
    calls.clear()
    experiments.run_qpe_phase_sweep(cfg)
    assert calls == {"run_shots": survey["run_shots"] + 2 * 33,
                     "schedule": survey["schedule"] + 2}


def test_each_layering_is_planned_once_per_closing_size(monkeypatch, tmp_path):
    """A wrapper of ``noise._exact_plan``, set by attribute as the benchmark
    sets its wrappers, sees every plan the engine builds: a small
    cnot-chain, whose cells of 2 to 12 qubits take outcome plans and whose
    cells of 13 and 14 take score plans, plans each (layering, closing
    size) exactly once."""
    planned = []
    real = noise._exact_plan

    def counting(scheduled, close):
        planned.append((scheduled.layers, close))  # held, so that no id is reused
        return real(scheduled, close)

    monkeypatch.setattr(noise, "_exact_plan", counting)
    assert cli.main(["cnot-chain", "--orientations", "1", "--strategies", "none",
                     "--max-length", "13", "--shots", "8", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
    keys = collections.Counter((id(layers), close) for layers, close in planned)
    assert set(keys.values()) == {1}
    widths = {close: sorted(len(layers[-1].ops) for layers, c in planned if c == close)
              for close in (1, 2)}
    assert widths == {2: list(range(2, 13)), 1: [13, 14]}
