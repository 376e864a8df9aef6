"""The benchmark's workloads: what one pass runs and how its outputs are read.

A pass is a fixed amount of the program's work; a run repeats passes for
its measuring time. Each workload's cells are its operations: one
``run_shots`` call plus its scoring. The seed reaches the program only as
``--seed`` and, for wide-dense, as the run_shots seed keys.

Shot counts are scaled down from the CLI default of 8000 so that several
passes fit in one run; the same values apply to every commit measured.
"""
from __future__ import annotations

import csv
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nisq_lab import builders, cli, fitting, noise, topology
from nisq_lab.report import CSV_HEADER
from nisq_lab.simulator import Circuit

COHERENCE_COMMANDS = ("t1", "t2-ramsey", "t2-echo")
COHERENCE_QUBITS = range(20)
CHAIN_ORIENTATIONS = (1, 2, 3, 4)
CHAIN_STRATEGIES = ("none", "x-reset", "cnot-reset")
WIDE_WIDTHS = range(6, 11)
WIDE_ORIENTATION = 1


@dataclass
class Context:
    """What set-up loaded, and where a pass writes its output files."""

    out: Path
    graph: object
    calibration: object


@dataclass(frozen=True)
class Workload:
    name: str
    shots: int
    # run(ctx, seed) does one pass and returns in-memory results, if any
    run: Callable[[Context, int], dict | None]
    # collect(ctx, result) -> {table: (rows, fit_ok) or None}; rows are (x, f1, f2)
    collect: Callable[[Context, dict | None], dict]
    # layers whose calls must be nonzero in a traced pass
    layers: tuple[str, ...]


def _nisq_lab(*argv) -> None:
    """One CLI invocation; a failure leaves its outputs missing, which the
    output check counts as failed cells."""
    argv = [str(a) for a in argv]
    try:
        code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    if code != 0:
        print(f"nisq-lab {' '.join(argv)} exited with {code}", file=sys.stderr)


def _read_table(path: Path):
    """(x, f1, f2) rows of a result CSV, or None when it was not written."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if ",".join(next(reader)) != CSV_HEADER:
                return None
            return [(row[0], float(row[1]), float(row[3])) for row in reader]
    except (OSError, StopIteration, IndexError, ValueError):
        return None


def _fit_ok(path: Path) -> bool:
    try:
        return json.loads(path.read_text(encoding="utf-8")).get("ok") is True
    except (OSError, ValueError):
        return False


def _tables(named_rows: dict) -> dict:
    return {name: None if rows is None else (rows, None) for name, rows in named_rows.items()}


# survey-dense: the paper's CCNOT geometry survey, all four families

SURVEY_SHOTS = 250


def _survey_run(ctx: Context, seed: int):
    _nisq_lab("ccnot-survey", "--shots", SURVEY_SHOTS, "--seed", seed, "--out", ctx.out)


def _survey_collect(ctx: Context, _):
    return _tables({"ccnot_survey": _read_table(ctx.out / "ccnot_survey.csv")})


# chain-classical: CNOT chains of 1..19 links, bit-vector engine only

CHAIN_SHOTS = 4000


def _chain_run(ctx: Context, seed: int):
    _nisq_lab("cnot-chain", "--shots", CHAIN_SHOTS, "--seed", seed, "--out", ctx.out)


def _chain_collect(ctx: Context, _):
    return _tables({f"chain_o{o}_{s}": _read_table(ctx.out / f"chain_o{o}_{s}.csv")
                    for o in CHAIN_ORIENTATIONS for s in CHAIN_STRATEGIES})


# coherence-cli: 60 small CLI calls with fits and plots

COHERENCE_SHOTS = 1000


def _coherence_stem(command: str, qubit: int) -> str:
    return f"{command.replace('-', '_')}_q{qubit}"


def _coherence_run(ctx: Context, seed: int):
    for q in COHERENCE_QUBITS:
        for command in COHERENCE_COMMANDS:
            _nisq_lab(command, "--qubit", q, "--shots", COHERENCE_SHOTS, "--seed", seed,
                      "--out", ctx.out / _coherence_stem(command, q), "--plot")


def _coherence_collect(ctx: Context, _):
    tables = {}
    for q in COHERENCE_QUBITS:
        for command in COHERENCE_COMMANDS:
            stem = command.replace("-", "_")
            out = ctx.out / _coherence_stem(command, q)
            rows = _read_table(out / f"{stem}.csv")
            tables[_coherence_stem(command, q)] = (
                None if rows is None else (rows, _fit_ok(out / f"{stem}_fit.json")))
    return tables


# wide-dense: superposed-control chains of 6..10 qubits through the API

WIDE_SHOTS = 500


def _wide_run(ctx: Context, seed: int):
    path = topology.chain_paths(ctx.graph, WIDE_ORIENTATION)
    rows = []
    for width in WIDE_WIDTHS:
        built = builders.cnot_chain(path[:width], "cnot-reset", control_in_superposition=True)
        circuit = Circuit(width, roles=built.roles)
        circuit.h(0)
        circuit.extend(built.circuit.ops)
        circuit.measure_all()
        cal = ctx.calibration.subset(built.layout)
        counts = noise.run_shots(noise.schedule(circuit, cal.durations), cal, WIDE_SHOTS,
                                 [seed, width])
        # the control is |+>: ideal outcomes have control == target, ancillas 0
        reports = [fitting.fidelity(counts, built.roles, want, built.desired_ancilla)
                   for want in ("00", "11")]
        rows.append((str(width), sum(r.f1 for r in reports), sum(r.f2 for r in reports)))
    return {"wide_chain": rows}


def _wide_collect(ctx: Context, result):
    return _tables(result or {"wide_chain": None})


_CLI_LAYERS = ("cli.main", "experiments.run", "topology", "noise.schedule", "noise.run_shots",
               "report")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("survey-dense", SURVEY_SHOTS, _survey_run, _survey_collect,
                 _CLI_LAYERS + ("builders", "noise.dense", "fitting.fidelity")),
        Workload("chain-classical", CHAIN_SHOTS, _chain_run, _chain_collect,
                 _CLI_LAYERS + ("builders", "noise.classical", "fitting.fidelity")),
        Workload("coherence-cli", COHERENCE_SHOTS, _coherence_run, _coherence_collect,
                 _CLI_LAYERS + ("noise.dense", "noise.classical", "fitting.fit")),
        Workload("wide-dense", WIDE_SHOTS, _wide_run, _wide_collect,
                 ("topology", "builders", "noise.schedule", "noise.run_shots", "noise.dense",
                  "fitting.fidelity")),
    )
}
