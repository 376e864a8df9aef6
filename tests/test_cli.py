"""CLI subcommands, file outputs, and plot structure."""
import json
import math
from pathlib import Path

import pytest

from nisq_lab.cli import main
from nisq_lab.experiments import ResultRow, ResultTable
from nisq_lab.fitting import FitResult
from nisq_lab.report import (
    CSV_HEADER,
    RunManifest,
    emit_plot,
    table_from_dict,
    table_to_dict,
    write_manifest,
    write_results,
)

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
    back = table_from_dict(raw)
    assert [(r.x, r.f1, r.f2, r.shots) for r in back.rows] == \
        [(r.x, r.f1, r.f2, r.shots) for r in table.rows]
    assert back.fit.params == table.fit.params
    assert back.metadata == table.metadata


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
    path = emit_plot(table, "fit", tmp_path / "t.svg")
    svg = path.read_text()
    assert "<circle" in svg
    assert svg.count("stroke-dasharray") == 1
    assert "dt_us" in svg


def test_plot_qpe_two_series(tmp_path):
    rows = [ResultRow(x=i * 0.2, f1=0.5 + 0.01 * i, f2=0.5, shots=1000,
                      extras={"theoretical": 0.9 - 0.02 * i}) for i in range(10)]
    path = emit_plot(ResultTable(rows, metadata={"x_label": "phi_rad"}), "qpe",
                     tmp_path / "q.svg")
    svg = path.read_text()
    assert svg.count("<circle") == 10
    assert "stroke-dasharray" in svg


def test_plot_deterministic(tmp_path):
    t = sample_table()
    a = emit_plot(t, "scatter", tmp_path / "a.svg").read_bytes()
    b = emit_plot(t, "scatter", tmp_path / "b.svg").read_bytes()
    assert a == b


def test_plot_empty_table_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_plot(ResultTable([]), "scatter", tmp_path / "x.svg")


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
