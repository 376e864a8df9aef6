"""CLI subcommands, file outputs, and plot structure."""
import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_lab import __version__, builders, experiments, noise, topology
from nisq_lab.cli import main
from nisq_lab.experiments import ResultRow, ResultTable
from nisq_lab.fitting import FitResult
from nisq_lab.noise import (
    DurationModel,
    SimulationError,
    calibration_from_dict,
    default_calibration,
    schedule,
)
from nisq_lab.report import (
    CSV_HEADER,
    RunManifest,
    emit_plot,
    table_to_dict,
    write_manifest,
    write_results,
)
from nisq_lab.simulator import Circuit, is_json_number

NOISELESS_CAL = {
    "qubits": [
        {"t1_us": None, "t2_us": None, "omega_mhz": 0.0, "readout_error": 0.0}
        for _ in range(20)
    ],
    "durations_ns": {"single": 100, "two_qubit": 300, "measure": 1000},
    "two_qubit_error": 0.0,
}


@pytest.fixture()
def noiseless_cal_file(tmp_path):
    p = tmp_path / "noiseless.json"
    p.write_text(json.dumps(NOISELESS_CAL))
    return p


# ---------------------------------------------------------------------------
# write_results / manifests
# ---------------------------------------------------------------------------

def sample_table():
    rows = [ResultRow(x=0.0, f1=0.8, f2=0.7, shots=8000),
            ResultRow(x=5.0, f1=0.6, f2=0.5, shots=8000)]
    return ResultTable(rows, metadata={"x_label": "dt_us", "y_label": "P"})


def test_csv_schema_and_stderr_value(tmp_path):
    table = ResultTable([ResultRow(x=1, f1=0.8, f2=0.8, shots=8000)])
    path = write_results(table, "csv", tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert fields[1] == "0.800000"
    assert fields[2] == "0.004472"
    assert fields[5] == "8000"


def test_csv_lf_endings(tmp_path):
    path = write_results(sample_table(), "csv", tmp_path / "t.csv")
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_json_round_trip(tmp_path):
    table = sample_table()
    table.fit = FitResult(model="exponential", params={"t_decay": 33.0}, r_squared=0.99)
    path = write_results(table, "json", tmp_path / "t.json")
    raw = json.loads(path.read_text())
    assert [(r["independent_var"], r["f1"], r["f2"], r["shots"]) for r in raw["rows"]] == \
        [(r.x, r.f1, r.f2, r.shots) for r in table.rows]
    assert raw["fit"]["params"] == table.fit.params
    assert raw["metadata"] == table.metadata


def test_json_carries_extras(tmp_path):
    rows = [ResultRow(x=0.1, f1=0.5, f2=0.5, shots=100, extras={"theoretical": 0.9})]
    path = write_results(ResultTable(rows), "json", tmp_path / "t.json")
    raw = json.loads(path.read_text())
    assert raw["rows"][0]["extras"]["theoretical"] == 0.9


def test_manifest_written(tmp_path):
    m = RunManifest(subcommand="t1", seed=1, shots=100, calibration_hash="abc",
                    outputs=["t1.csv"])
    path = write_manifest(tmp_path, m)
    raw = json.loads(path.read_text())
    assert raw["subcommand"] == "t1"
    assert raw["outputs"] == ["t1.csv"]
    assert raw["tool_version"]


# ---------------------------------------------------------------------------
# emit_plot
# ---------------------------------------------------------------------------

def test_plot_scatter_and_dashed_fit(tmp_path):
    table = sample_table()
    table.fit = FitResult(model="exponential", params={"t_decay": 10.0}, r_squared=1.0)
    path = emit_plot(table, tmp_path / "t.svg")
    svg = path.read_text()
    assert "<circle" in svg
    assert svg.count("stroke-dasharray") == 1
    assert "dt_us" in svg


def test_plot_qpe_two_series(tmp_path):
    rows = [ResultRow(x=i * 0.2, f1=0.5 + 0.01 * i, f2=0.5, shots=1000,
                      extras={"theoretical": 0.9 - 0.02 * i}) for i in range(10)]
    path = emit_plot(ResultTable(rows, metadata={"x_label": "phi_rad"}), tmp_path / "q.svg")
    svg = path.read_text()
    assert svg.count("<circle") == 10
    assert "stroke-dasharray" in svg


def test_plot_overlay_follows_the_table(tmp_path):
    """An ok fit draws its curve, else any row's theoretical value, else nothing."""
    table = sample_table()
    assert "stroke-dasharray" not in emit_plot(table, tmp_path / "a.svg").read_text()
    table.fit = FitResult.failed("exponential", "no convergence")
    assert "stroke-dasharray" not in emit_plot(table, tmp_path / "b.svg").read_text()
    table.rows[1].extras["theoretical"] = 0.5
    svg = emit_plot(table, tmp_path / "c.svg").read_text()
    assert svg.count("stroke-dasharray") == 1 and " L " not in svg
    table.fit = FitResult(model="exponential", params={"t_decay": 10.0}, r_squared=1.0)
    assert emit_plot(table, tmp_path / "d.svg").read_text().count(" L ") == 119


def test_plot_deterministic(tmp_path):
    t = sample_table()
    a = emit_plot(t, tmp_path / "a.svg").read_bytes()
    b = emit_plot(t, tmp_path / "b.svg").read_bytes()
    assert a == b


def test_plot_empty_table_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_plot(ResultTable([]), tmp_path / "x.svg")


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def test_enumerate_prints_counts(capsys):
    assert main(["enumerate"]) == 0
    out = capsys.readouterr().out
    assert "triples: 32, stars: 6, six_rings: 2" in out


def test_unknown_subcommand_usage_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exit_1(capsys):
    assert main([]) == 1


def test_t1_byte_identical_reruns(tmp_path, noiseless_cal_file):
    cal = dict(NOISELESS_CAL)
    cal["qubits"] = [dict(q) for q in cal["qubits"]]
    cal["qubits"][0]["t1_us"] = 50.0
    cal["qubits"][0]["t2_us"] = 60.0
    cal_file = tmp_path / "cal.json"
    cal_file.write_text(json.dumps(cal))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["t1", "--calibration", str(cal_file), "--shots", "400", "--seed", "7"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "t1.csv").read_bytes() == (out_b / "t1.csv").read_bytes()
    assert (out_a / "manifest.json").exists()


def test_t1_json_format_and_plot(tmp_path, noiseless_cal_file):
    out = tmp_path / "out"
    code = main(["t1", "--calibration", str(noiseless_cal_file), "--shots", "50",
                 "--seed", "1", "--out", str(out), "--format", "json", "--plot",
                 "--grid-us", "0,5,10,20"])
    assert code == 0
    assert (out / "t1.json").exists()
    assert (out / "t1.svg").exists()
    raw = json.loads((out / "t1.json").read_text())
    assert len(raw["rows"]) == 4


def test_validate_ok(tmp_path):
    circ = {"n_qubits": 20, "ops": [{"kind": "CNOT", "qubits": [0, 1]}]}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(circ))
    assert main(["validate", "--circuit", str(p)]) == 0


def test_validate_violation_exit_2(tmp_path, capsys):
    circ = {"n_qubits": 20, "ops": [{"kind": "CNOT", "qubits": [0, 2]}]}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(circ))
    assert main(["validate", "--circuit", str(p)]) == 2
    assert "violation" in capsys.readouterr().out


def test_validate_flags_qubits_the_device_lacks_exit_2(tmp_path, capsys):
    circ = {"n_qubits": 30, "ops": [{"kind": "X", "qubits": [25]},
                                    {"kind": "CNOT", "qubits": [0, 1]},
                                    {"kind": "CNOT", "qubits": [0, 2]}]}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(circ))
    assert main(["validate", "--circuit", str(p)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "violation: X on qubits (25,) (outside the device's 20 qubits)",
        "violation: CNOT on qubits (0, 2) (not an edge)",
    ]


def test_missing_calibration_file_exit_1(tmp_path):
    assert main(["t1", "--calibration", str(tmp_path / "nope.json"),
                 "--shots", "10", "--out", str(tmp_path)]) == 1


def test_seed_env_override(tmp_path, noiseless_cal_file, monkeypatch):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    monkeypatch.setenv("NISQ_LAB_SEED", "99")
    assert main(["t1", "--calibration", str(noiseless_cal_file), "--shots", "50",
                 "--out", str(out1), "--grid-us", "0,5,10"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 99
    # explicit --seed beats the environment
    assert main(["t1", "--calibration", str(noiseless_cal_file), "--shots", "50",
                 "--seed", "3", "--out", str(out2), "--grid-us", "0,5,10"]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["seed"] == 3


@pytest.mark.parametrize("flag, env", [("-1", None), (None, "-4")])
def test_negative_seed_exit_1(tmp_path, noiseless_cal_file, capsys, monkeypatch, flag, env):
    """A negative --seed or NISQ_LAB_SEED is refused with a message naming it."""
    monkeypatch.delenv("NISQ_LAB_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("NISQ_LAB_SEED", env)
    out = tmp_path / "out"
    argv = ["t1", "--calibration", str(noiseless_cal_file), "--shots", "50", "--out", str(out),
            "--grid-us", "0,5"] + (["--seed", flag] if flag is not None else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: seed must be a non-negative integer, got {flag or env}" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("subcommand", ["t1", "t2-ramsey", "t2-echo"])
def test_json_outputs_are_strict_json_with_infinite_coherence(tmp_path, subcommand):
    """A null t1/t2 (infinite) is written as null, never as Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    cal = default_calibration().to_dict()
    cal["qubits"][0].update(t1_us=None, t2_us=None)
    cal_file = tmp_path / "cal.json"
    cal_file.write_text(json.dumps(cal))
    out = tmp_path / "out"
    assert main([subcommand, "--calibration", str(cal_file), "--shots", "200", "--seed", "1",
                 "--out", str(out), "--format", "json"]) == 0
    paths = sorted(out.glob("*.json"))
    assert len(paths) == 3  # results, fit and manifest
    docs = {p.name: json.loads(p.read_text(), parse_constant=reject) for p in paths}
    stem = subcommand.replace("-", "_")
    configured = "configured_t1_us" if subcommand == "t1" else "configured_t2_us"
    assert docs[f"{stem}.json"]["metadata"][configured] is None
    if subcommand == "t2-ramsey":  # the fitted dephasing time is infinite too
        assert docs["t2_ramsey_fit.json"]["params"]["t_phi"] is None


def test_cnot_chain_cli_writes_tables(tmp_path, noiseless_cal_file):
    out = tmp_path / "chains"
    code = main(["cnot-chain", "--calibration", str(noiseless_cal_file),
                 "--shots", "20", "--seed", "2", "--out", str(out),
                 "--orientations", "1", "--strategies", "none,x-reset",
                 "--max-length", "3"])
    assert code == 0
    assert (out / "chain_o1_none.csv").exists()
    assert (out / "chain_avg_x-reset.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "chain_o1_none.csv" in manifest["outputs"]


def test_ccnot_survey_cli(tmp_path, noiseless_cal_file, capsys):
    out = tmp_path / "survey"
    code = main(["ccnot-survey", "--calibration", str(noiseless_cal_file),
                 "--shots", "8", "--seed", "2", "--out", str(out),
                 "--families", "star4"])
    assert code == 0
    lines = (out / "ccnot_survey.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 36
    assert "star4: mean_f1=" in capsys.readouterr().out


def test_qpe_sweep_cli(tmp_path, noiseless_cal_file):
    out = tmp_path / "qpe"
    code = main(["qpe-sweep", "--calibration", str(noiseless_cal_file),
                 "--shots", "16", "--seed", "2", "--out", str(out),
                 "--geometries", "linear3", "--format", "json", "--plot"])
    assert code == 0
    raw = json.loads((out / "qpe_linear3.json").read_text())
    assert len(raw["rows"]) == 33
    assert "theoretical" in raw["rows"][1]["extras"]
    assert (out / "qpe_linear3.svg").exists()


@pytest.mark.parametrize("length", ["0", "20", "40"])
def test_cnot_chain_length_out_of_range_exit_2(tmp_path, noiseless_cal_file, capsys, length):
    """The shipped orientations have 19 links; longer chains do not exist
    and must not be written as relabelled copies of the 19-link chain."""
    out = tmp_path / "chains"
    code = main(["cnot-chain", "--calibration", str(noiseless_cal_file),
                 "--shots", "20", "--seed", "2", "--out", str(out),
                 "--orientations", "1", "--strategies", "none",
                 "--max-length", length])
    assert code == 2
    assert "max_length" in capsys.readouterr().err
    assert not (out / "chain_o1_none.csv").exists()
    assert not (out / "manifest.json").exists()


def test_qft_top_k_below_one_exit_2(tmp_path, noiseless_cal_file, capsys):
    out = tmp_path / "qft"
    code = main(["qft-perfect", "--calibration", str(noiseless_cal_file),
                 "--shots", "8", "--seed", "2", "--out", str(out),
                 "--geometries", "linear3", "--top-k", "0"])
    assert code == 2
    assert "top_k" in capsys.readouterr().err
    assert not (out / "qft_linear3.csv").exists()
    assert not (out / "manifest.json").exists()


def test_qubit_outside_calibration_exit_1(tmp_path, noiseless_cal_file, capsys):
    out = tmp_path / "t1"
    code = main(["t1", "--calibration", str(noiseless_cal_file), "--shots", "10",
                 "--seed", "1", "--qubit", "25", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "qubit 25" in err and "20 qubits" in err
    assert not (out / "manifest.json").exists()
    assert not (out / "t1.csv").exists()


@pytest.mark.parametrize("shots", ["9223372036854775808", "99999999999999999999"])
def test_shots_above_the_int64_maximum_exit_1(tmp_path, noiseless_cal_file, capsys, shots):
    """A shot count that the multinomial draw cannot take used to die with
    an OverflowError traceback; the int64 maximum itself still runs."""
    out = tmp_path / "t1"
    code = main(["t1", "--calibration", str(noiseless_cal_file), "--shots", shots,
                 "--seed", "1", "--grid-us", "0,5", "--out", str(out)])
    assert code == 1
    assert f"shots must be at most 9223372036854775807, got {shots}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["t1", "--calibration", str(noiseless_cal_file), "--shots",
                 "9223372036854775807", "--seed", "1", "--grid-us", "0,5",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("argv, allowed", [
    (["qft-perfect", "--geometries", "ring6-1chains"], "linear3,star4,ring6-3chain"),
    (["qft-perfect", "--geometries", "bogus"], "linear3,star4,ring6-3chain"),
    (["qpe-sweep", "--geometries", "ring6-3chain"], "linear3,star4"),
    (["qpe-sweep", "--geometries", "linear3,linear3"], "linear3,star4"),
    (["ccnot-survey", "--families", "bogus"], "linear3,star4,ring6-3chain,ring6-1chains"),
    (["ccnot-survey", "--families", "star4,"], "linear3,star4,ring6-3chain,ring6-1chains"),
    (["cnot-chain", "--orientations", "1,1"], "1,2,3,4"),
    (["cnot-chain", "--orientations", "5"], "1,2,3,4"),
    (["cnot-chain", "--strategies", "none,none"], "none,x-reset,cnot-reset"),
    (["cnot-chain", "--strategies", "bogus"], "none,x-reset,cnot-reset"),
])
def test_unknown_or_repeated_list_entry_exit_1(tmp_path, noiseless_cal_file, capsys, argv,
                                               allowed):
    """Each entry of a comma-list flag must be a distinct allowed name; an
    unknown one used to raise KeyError or run an empty table, a repeated one
    to run or list a table twice."""
    out = tmp_path / "out"
    code = main(argv + ["--calibration", str(noiseless_cal_file), "--shots", "8",
                        "--seed", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and allowed in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("grid, value", [("-5,0,5", "-5.0"), ("nan,1,2,3", "nan"),
                                         ("0,1,inf", "inf")])
def test_negative_or_non_finite_delay_grid_exit_1(tmp_path, noiseless_cal_file, capsys,
                                                  grid, value):
    out = tmp_path / "out"
    code = main(["t1", "--calibration", str(noiseless_cal_file), "--shots", "8",
                 "--seed", "2", "--out", str(out), f"--grid-us={grid}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"dt_grid_us entry {value}" in err
    assert not (out / "manifest.json").exists()
    assert not (out / "t1.csv").exists()


@pytest.mark.parametrize("subcommand, grid", [("t1", "0,1e-300,2e-300"),
                                             ("t2-ramsey", ",".join(f"{k}e-300"
                                                                    for k in range(1, 7))),
                                             ("t2-ramsey", "0,1,2,3,4,1e308")])
def test_fit_on_a_vanishing_delay_grid_fails_without_a_traceback(tmp_path, capfd, subcommand,
                                                                 grid):
    """A valid grid of delays so short that the fit's normal equations
    underflow, or with one so long that the model's products overflow
    (which used to write an ok fit of null omega, t_phi and R^2), writes its
    tables and a failed fit, and exits 0; nothing from LAPACK or numpy
    reaches stderr."""
    out = tmp_path / "out"
    code = main([subcommand, "--shots", "100", "--seed", "7", "--out", str(out),
                 f"--grid-us={grid}"])
    captured = capfd.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert "fit failed" in captured.out
    stem = subcommand.replace("-", "_")
    assert (out / f"{stem}.csv").exists() and (out / "manifest.json").exists()
    assert json.loads((out / f"{stem}_fit.json").read_text())["ok"] is False


@pytest.mark.parametrize("subcommand", ["qft-perfect", "qpe-sweep"])
def test_geometry_without_placements_exit_2(tmp_path, noiseless_cal_file, capsys, subcommand):
    """A path graph has no star; the run used to die with an IndexError."""
    topo = tmp_path / "line.json"
    topo.write_text(json.dumps({"n_qubits": 20, "edges": [[i, i + 1] for i in range(19)]}))
    out = tmp_path / "out"
    code = main([subcommand, "--topology", str(topo), "--calibration", str(noiseless_cal_file),
                 "--shots", "8", "--seed", "2", "--out", str(out), "--geometries", "star4"])
    assert code == 2
    assert "no star4 placement" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("plot", [[], ["--plot"]], ids=["table", "plot"])
@pytest.mark.parametrize("topo, families, missing", [
    ({"n_qubits": 2, "edges": [[0, 1]]}, [], "linear3 or star4 or ring6-3chain or ring6-1chains"),
    ({"n_qubits": 3, "edges": [[0, 1], [1, 2]]}, ["--families", "star4"], "star4"),
], ids=["one-edge", "path-star4"])
def test_survey_without_placements_exit_2(tmp_path, noiseless_cal_file, capsys, topo, families,
                                          missing, plot):
    """A survey with no cell used to exit 0 with a header-only table, or,
    with --plot, exit 1 and leave that table without a manifest."""
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(topo))
    out = tmp_path / "out"
    code = main(["ccnot-survey", "--topology", str(path), "--calibration", str(noiseless_cal_file),
                 "--shots", "8", "--seed", "2", "--out", str(out)] + families + plot)
    assert code == 2
    assert f"error: the topology has no {missing} placement" in capsys.readouterr().err
    assert not out.exists()


def test_dense_run_over_memory_budget_exit_2(tmp_path, noiseless_cal_file, capsys, monkeypatch):
    """The pre-flight refuses the first CCNOT cell before allocating its state."""
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", 1024)
    out = tmp_path / "out"
    code = main(["ccnot-survey", "--calibration", str(noiseless_cal_file), "--shots", "8",
                 "--seed", "2", "--out", str(out), "--families", "linear3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: the exact engine would need about") and "budget" in err
    assert not (out / "manifest.json").exists()


def test_score_pass_over_memory_budget_exit_2(tmp_path, noiseless_cal_file, capsys,
                                             monkeypatch):
    """A wide cell's score pass is refused when one of its rows would not
    fit the budget: the cnot-reset chain of 12 links (13 qubits), after the
    shorter chains drew from their full law within it."""
    narrow, wide = (schedule(Circuit(len(path), builders.cnot_chain(path, "cnot-reset")
                                     .circuit.ops).measure_all(), DurationModel())
                    for path in (topology.chain_paths(topology.shipped_poughkeepsie(), 1)[:k]
                                 for k in (12, 13)))
    monkeypatch.setattr(noise, "_MEMORY_BUDGET", noise._stacked_need(wide, 1, 1) - 1)
    assert noise._stacked_need(narrow) < noise._MEMORY_BUDGET
    out = tmp_path / "out"
    code = main(["cnot-chain", "--calibration", str(noiseless_cal_file), "--shots", "4000",
                 "--seed", "2", "--out", str(out), "--orientations", "1", "--strategies",
                 "cnot-reset", "--max-length", "12"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: the exact engine would need about")
    assert "budget" in err
    assert not (out / "manifest.json").exists()


_SMALL_RUNS = {
    "t1": ["--grid-us", "0,5"],
    "cnot-chain": ["--orientations", "1", "--strategies", "none", "--max-length", "3"],
    "ccnot-survey": ["--families", "linear3"],
    "qft-perfect": ["--geometries", "linear3", "--top-k", "1"],
    "qpe-sweep": ["--geometries", "linear3"],
}


@pytest.mark.parametrize("subcommand", sorted(_SMALL_RUNS))
def test_run_failing_mid_way_leaves_no_manifest(tmp_path, noiseless_cal_file, monkeypatch,
                                                subcommand):
    calls = []
    real_run_shots = experiments.run_shots

    def failing_second_call(*args):
        calls.append(args)
        if len(calls) > 1:
            raise SimulationError("injected failure")
        return real_run_shots(*args)

    monkeypatch.setattr(experiments, "run_shots", failing_second_call)
    out = tmp_path / "out"
    code = main([subcommand, "--calibration", str(noiseless_cal_file), "--shots", "8",
                 "--seed", "2", "--out", str(out)] + _SMALL_RUNS[subcommand])
    assert code == 2
    assert len(calls) == 2
    assert not (out / "manifest.json").exists()


def test_good_run_manifest_lists_written_outputs(tmp_path, noiseless_cal_file):
    out = tmp_path / "t1"
    assert main(["t1", "--calibration", str(noiseless_cal_file), "--shots", "10",
                 "--seed", "4", "--out", str(out), "--grid-us", "0,5"]) == 0
    graph = topology.shipped_poughkeepsie()
    expected = {
        "subcommand": "t1",
        "seed": 4,
        "shots": 10,
        "calibration_hash": calibration_from_dict(NOISELESS_CAL).content_hash(),
        "topology_hash": hashlib.sha256(
            json.dumps(graph.to_dict(), sort_keys=True).encode()).hexdigest(),
        "config": {"format": "csv", "out_dir": str(out), "topology": "shipped",
                   "calibration": str(noiseless_cal_file)},
        "tool_version": __version__,
        "outputs": ["t1.csv", "t1_fit.json"],
    }
    text = json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert (out / "manifest.json").read_bytes() == text.encode("utf-8")
    assert all((out / name).exists() for name in expected["outputs"])


def _tree(out: Path) -> dict:
    """Every file under ``out`` by relative path: manifests parsed with
    their out_dir removed, other files as bytes."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            assert manifest["config"].pop("out_dir") == str(path.parent)
            files[str(path.relative_to(out))] = manifest
        else:
            files[str(path.relative_to(out))] = path.read_bytes()
    return files


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    """main builds its parser and loads the shipped topology and calibration
    once per process; runs that fail in between must not change what a
    later run writes."""
    t1 = ["t1", "--qubit", "3", "--shots", "200", "--seed", "5", "--plot"]
    assert main(t1 + ["--out", str(tmp_path / "a")]) == 0
    assert main(["ccnot-survey", "--families", "star4,bogus", "--shots", "8",
                 "--out", str(tmp_path / "bad1")]) == 1
    assert main(["cnot-chain", "--max-length", "40", "--shots", "8",
                 "--out", str(tmp_path / "bad2")]) == 2
    assert main(t1 + ["--out", str(tmp_path / "b")]) == 0
    assert not (tmp_path / "bad1").exists() and not (tmp_path / "bad2").exists()
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert set(_tree(tmp_path / "a")) == {"t1.csv", "t1_fit.json", "t1.svg", "manifest.json"}

    survey = ["ccnot-survey", "--shots", "8", "--seed", "2"]
    assert main(survey + ["--out", str(tmp_path / "full")]) == 0
    assert main(survey + ["--families", "star4", "--out", str(tmp_path / "star4")]) == 0
    capsys.readouterr()
    full = (tmp_path / "full" / "ccnot_survey.csv").read_text().splitlines()
    star4 = (tmp_path / "star4" / "ccnot_survey.csv").read_text().splitlines()
    assert len(star4) == 1 + 36
    assert star4 == [full[0]] + [row for row in full[1:] if row.startswith("star4-")]


def test_shipped_objects_are_shared_and_frozen():
    """Every caller in a process shares the shipped calibration and
    topology, which is safe only while nobody can change them."""
    cal, graph = default_calibration(), topology.shipped_poughkeepsie()
    assert cal is default_calibration()
    assert graph is topology.shipped_poughkeepsie()
    for obj, attr in ((cal, "two_qubit_error"), (cal.qubits[0], "t1"),
                      (cal.durations, "single_qubit"), (graph, "n_qubits")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, 0)
    assert isinstance(cal.qubits, tuple) and isinstance(graph.edges, frozenset)
    orientations = topology.shipped_orientations()
    assert isinstance(orientations, tuple)
    assert all(isinstance(path, tuple) for path in orientations)


# ---------------------------------------------------------------------------
# Malformed input files
# ---------------------------------------------------------------------------

VALID_INPUTS = {
    "calibration": {
        "qubits": [
            {"t1_us": 50.0, "t2_us": 60.0, "omega_mhz": 0.1, "readout_error": 0.01},
            {"t1_us": 80, "t2_us": 100, "omega_mhz": 0, "readout_error": 0.0},
        ],
        "durations_ns": {"single": 100, "two_qubit": 300, "measure": 1000},
        "two_qubit_error": 0.02,
    },
    "topology": {"n_qubits": 3, "edges": [[0, 1], [1, 2]]},
    "circuit": {
        "n_qubits": 3,
        "ops": [{"kind": "X", "qubits": [0]}, {"kind": "CNOT", "qubits": [0, 1]},
                {"kind": "RPHI", "qubits": [2], "angle": 0.5},
                {"kind": "DELAY", "qubits": [1], "duration": 1e-6}],
        "roles": ["control", "target", "ancilla"],
    },
}
# null is valid here; VALID_INPUTS holds no null, so any other type is invalid
NULLABLE_KEYS = {"t1_us", "t2_us", "roles"}
OPTIONAL_KEYS = {"roles", "angle"}  # leaving these out is valid


def _read_input_file(kind: str, path: str, out: str) -> int:
    """Run the subcommand that reads a ``kind`` file from ``path``."""
    argv = {
        "calibration": ["t1", "--calibration", path, "--shots", "8", "--grid-us", "0,5",
                        "--out", out],
        "topology": ["enumerate", "--topology", path],
        "circuit": ["validate", "--circuit", path],
    }[kind]
    return main(argv)


def _json_kind(value) -> str:
    return "number" if is_json_number(value) else type(value).__name__


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _slots(container, key):
    """(container, key) for the value at container[key] and every value in it."""
    yield container, key
    value = container[key]
    if isinstance(value, (dict, list)):
        for k in (value if isinstance(value, dict) else range(len(value))):
            yield from _slots(value, k)


@st.composite
def broken_documents(draw, doc):
    """``doc`` with one mutation that makes it invalid: a value replaced by
    one of another JSON type, a dict replaced by the list of its values, or
    a required key deleted."""
    holder = [copy.deepcopy(doc)]
    parent, key = draw(st.sampled_from(list(_slots(holder, 0))))
    old = parent[key]
    action = draw(st.sampled_from(("retype", "listify", "delete")))
    if action == "delete" and isinstance(parent, dict) and key not in OPTIONAL_KEYS:
        del parent[key]
    elif action == "listify" and isinstance(old, dict):
        parent[key] = list(old.values())
    else:
        nullable = key in NULLABLE_KEYS
        parent[key] = draw(JSON_VALUES.filter(
            lambda v: _json_kind(v) != _json_kind(old) and not (v is None and nullable)))
    return holder[0]


@pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
def test_valid_input_files_run(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(VALID_INPUTS[kind]))
    assert _read_input_file(kind, str(path), str(tmp_path / "out")) == 0


@pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_malformed_input_files_exit_with_a_message(kind, data):
    """Wrong types, nulls, missing keys and lists for dicts in any of the
    three JSON inputs exit 1 or 2 with a message, never a traceback."""
    doc = data.draw(broken_documents(VALID_INPUTS[kind]) | JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = _read_input_file(kind, str(path), str(Path(tmp) / "out"))
    assert code in (1, 2), doc
    assert stderr.getvalue().startswith(("error: ", "runtime failure: ")), doc


def _edited(kind, **changes):
    return {**VALID_INPUTS[kind], **changes}


@pytest.mark.parametrize("kind, doc, message", [
    ("calibration", _edited("calibration", qubits=5), "'qubits'"),
    ("calibration", _edited("calibration", two_qubit_error=None), "'two_qubit_error'"),
    ("circuit", _edited("circuit", ops=5), "'ops'"),
    ("circuit", _edited("circuit", ops=["X"]), "op 0"),
    ("circuit", _edited("circuit", ops=[{"kind": "X", "qubits": 0}]), "op 0"),
    ("circuit", _edited("circuit", roles=3), "'roles'"),
    ("circuit", [VALID_INPUTS["circuit"]], "JSON object"),
    ("circuit", _edited("circuit", ops=[{"kind": "DELAY", "qubits": [0], "duration": math.nan}]),
     "DELAY"),
    ("topology", _edited("topology", n_qubits=10**12), None),
], ids=["cal-qubits-int", "cal-two-qubit-error-null", "circuit-ops-int", "circuit-op-string",
        "circuit-qubits-int", "circuit-roles-int", "circuit-list", "circuit-nan-delay",
        "topology-huge-isolated"])
def test_malformed_input_regressions(kind, doc, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = _read_input_file(kind, str(path), str(tmp_path / "out"))
    if message is None:  # a valid file that once hung: enumeration skips isolated qubits
        assert code == 0
        assert capsys.readouterr().out == "triples: 1, stars: 0, six_rings: 0\n"
    else:
        assert code == 1
        assert message in capsys.readouterr().err


def test_compare_outputs_ignores_only_the_out_dir(tmp_path, noiseless_cal_file, capsys):
    """scripts/compare_outputs.py: two runs of one command into different
    directories compare equal; any other change to a file, or a file in
    only one tree, is listed and exits 1."""
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", Path(__file__).parents[1] / "scripts" / "compare_outputs.py")
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["t1", "--calibration", str(noiseless_cal_file), "--shots", "50",
                     "--seed", "3", "--grid-us", "0,5", "--out", str(out)]) == 0
    assert compare_outputs.main([str(a), str(b)]) == 0
    manifest = b / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"seed": 3', '"seed": 4'))
    (b / "t1.csv").unlink()
    (b / "extra.txt").write_text("")
    capsys.readouterr()
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: t1.csv", f"only in {b}: extra.txt", "differs: manifest.json"]
