"""Tests of the benchmark harness itself (not of nisq_lab).

    python3 -m pytest perfbench/test_harness.py

They show that the output check catches wrong output, and that the
per-layer bookkeeping and BENCHMARK.json agree with the code.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _as_measured(reference: dict) -> dict:
    """Output tables that agree exactly with the reference fractions."""
    m = reference["ref_shots"]
    return {name: ([(x, j1 / m, j2 / m) for x, j1, j2 in rows], None)
            for name, rows in reference["tables"].items()}


def _sigma(p: float, reference: dict) -> float:
    return math.sqrt(p * (1.0 - p) * (1.0 / reference["shots"] + 1.0 / reference["ref_shots"]))


@pytest.fixture(scope="module")
def chain_reference():
    return refcheck.load_reference("chain-classical")


def test_agreeing_tables_pass(chain_reference):
    failed, notes = refcheck.count_failed(chain_reference, _as_measured(chain_reference))
    assert (failed, notes) == (0, [])


@pytest.mark.parametrize("shift_sigma, failures", [(refcheck.Z_BOUND + 1.0, 1), (3.0, 0)])
def test_f1_shifted_by_sigma(chain_reference, shift_sigma, failures):
    tables = _as_measured(chain_reference)
    rows, fit_ok = tables["chain_o2_x-reset"]
    x, f1, f2 = rows[9]
    rows[9] = (x, f1 - shift_sigma * _sigma(f1, chain_reference), f2)
    failed, _ = refcheck.count_failed(chain_reference, tables)
    assert failed == failures


def test_swapped_rows_fail_both_cells(chain_reference):
    tables = _as_measured(chain_reference)
    rows, _ = tables["chain_o1_none"]
    rows[0], rows[18] = rows[18], rows[0]
    assert refcheck.count_failed(chain_reference, tables)[0] == 2


def test_swapped_values_fail_both_cells(chain_reference):
    tables = _as_measured(chain_reference)
    rows, _ = tables["chain_o3_cnot-reset"]
    (x0, *v0), (x18, *v18) = rows[0], rows[18]
    rows[0], rows[18] = (x0, *v18), (x18, *v0)
    assert refcheck.count_failed(chain_reference, tables)[0] == 2


def test_missing_and_short_tables_fail_their_cells(chain_reference):
    tables = _as_measured(chain_reference)
    tables["chain_o4_none"] = None
    tables["chain_o4_x-reset"][0].pop()
    assert refcheck.count_failed(chain_reference, tables)[0] == 19 + 1


def test_fit_not_ok_fails_table_unless_known():
    reference = refcheck.load_reference("coherence-cli")
    tables = _as_measured(reference)
    tables["t1_q3"] = (tables["t1_q3"][0], False)
    for name in reference["known_fit_failures"]:
        tables[name] = (tables[name][0], False)
    failed, notes = refcheck.count_failed(reference, tables)
    assert failed == len(reference["tables"]["t1_q3"])
    assert any("known failure" in note for note in notes)

    strict = copy.deepcopy(reference)
    strict["known_fit_failures"] = []
    assert refcheck.count_failed(strict, tables)[0] > failed


def test_z_equivalent_matches_normal_away_from_the_edges():
    n, m = 4000, 32000
    sigma = math.sqrt(0.25 * (1 / n + 1 / m)) * n
    assert refcheck.z_equivalent(round(n / 2 + 3 * sigma), n, m // 2, m) == pytest.approx(3.0, abs=0.1)
    assert refcheck.z_equivalent(0, n, 0, m) == 0.0


def test_layer_metrics_self_time_and_nesting():
    note = {"engine": "dense", "shots": 10, "n": 3, "layers": 4, "distinct": 5}
    recorded = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["experiments.run_t1", 1.0, 8.0, 0, None],
        ["noise.run_shots", 2.0, 5.0, 1, note],
        ["builders.cnot_chain", 5.0, 6.0, 1, None],
        ["builders.qft_dagger_3", 5.2, 5.8, 3, None],  # nested in its own layer
        ["report.write_results", 8.5, 9.0, 0, {"bytes": 100}],
    ]
    m, durations = spans.layer_metrics(recorded)
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 7.0 - 0.5)
    assert m["experiments.run.self_s"] == pytest.approx(7.0 - 3.0 - 1.0)
    assert (m["builders.calls"], m["builders.s"]) == (1, pytest.approx(1.0))
    assert m["noise.dense.amp_updates"] == 10 * 8 * 3 * 4
    assert m["report.bytes"] == 100
    assert durations == [pytest.approx(3000.0)]


def test_tail_needs_ten_samples_beyond_it():
    assert spans.tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0)
    assert spans.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert spans.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_pass_wall_takes_each_segments_median_cost():
    costs = [[1.0, 10.0, 4.0], [3.0, 30.0, 5.0], [2.0, 20.0, 100.0]]
    assert pace.pass_wall(costs) == pytest.approx(pace.CAL_REF_S * (2.0 + 20.0 + 5.0))
    with pytest.raises(ValueError):
        pace.pass_wall([[1.0, 2.0], [1.0]])


def test_cell_marks_cut_at_every_run_shots_call(monkeypatch):
    from nisq_lab import experiments, noise

    calls = []

    def fake_noise(*args, **kwargs):
        calls.append("noise")

    def fake_experiments(*args, **kwargs):
        calls.append("experiments")

    monkeypatch.setattr(noise, "run_shots", fake_noise)
    monkeypatch.setattr(experiments, "run_shots", fake_experiments)
    with pace.CellMarks() as marks:
        noise.run_shots(None)
        experiments.run_shots(None)
        experiments.run_shots(None)
    assert calls == ["noise", "experiments", "experiments"]
    segments, costs = marks.segments(), marks.costs()
    assert len(segments) == len(costs) == 4
    assert all(s >= 0.0 for s in segments) and all(c >= 0.0 for c in costs)
    assert (noise.run_shots, experiments.run_shots) == (fake_noise, fake_experiments)


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        spans.LAYER_METRICS


def test_references_match_workload_shots():
    for name, workload in workloads.WORKLOADS.items():
        assert refcheck.load_reference(name)["shots"] == workload.shots
