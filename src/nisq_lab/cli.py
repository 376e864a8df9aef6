"""Command-line entry point.

Subcommands: t1, t2-ramsey, t2-echo, cnot-chain, ccnot-survey, qft-perfect,
qpe-sweep, enumerate, validate. Exit codes: 0 success, 1 configuration
error, 2 runtime failure or a request for cells that do not exist (a chain
longer than its orientation, --max-length or --top-k below 1). The
environment variable NISQ_LAB_SEED overrides the default seed when --seed is
not given.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, builders, experiments, report, topology
from .experiments import CellRangeError, ExperimentConfig
from .noise import CalibrationError, SimulationError, default_calibration, load_calibration
from .simulator import Circuit
from .topology import TopologyError


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="nisq-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nisq-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(p, shots=True):
        p.add_argument("--topology", type=Path, help="topology JSON (default: shipped map)")
        p.add_argument("--calibration", type=Path, help="calibration JSON (default: shipped)")
        if shots:
            p.add_argument("--shots", type=int, default=8000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--plot", action="store_true", help="also emit SVG plots")

    for name in ("t1", "t2-ramsey", "t2-echo"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        add_common(p)
        p.add_argument("--qubit", type=int, default=0)
        p.add_argument("--grid-us", type=str, default=None,
                       help="comma-separated delay grid in microseconds")

    p = sub.add_parser("cnot-chain", help="chain-length sweep per orientation and strategy")
    add_common(p)
    p.add_argument("--strategies", type=str, default="none,x-reset,cnot-reset")
    p.add_argument("--orientations", type=str, default="1,2,3,4")
    p.add_argument("--max-length", type=int, default=19)

    p = sub.add_parser("ccnot-survey", help="CCNOT fidelity over every geometry placement")
    add_common(p)
    p.add_argument("--families", type=str,
                   default="linear3,star4,ring6-3chain,ring6-1chains")

    p = sub.add_parser("qft-perfect", help="inverse-QFT perfect-phase fidelities")
    add_common(p)
    p.add_argument("--geometries", type=str, default="linear3,star4,ring6-3chain")
    p.add_argument("--top-k", type=int, default=3)

    p = sub.add_parser("qpe-sweep", help="continuous phase-estimation sweep")
    add_common(p)
    p.add_argument("--geometries", type=str, default="linear3,star4")

    p = sub.add_parser("enumerate", help="count geometry placements on a topology")
    p.add_argument("--topology", type=Path)

    p = sub.add_parser("validate", help="check a circuit file against a topology")
    p.add_argument("--topology", type=Path)
    p.add_argument("--circuit", type=Path, required=True)

    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("NISQ_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"NISQ_LAB_SEED must be an integer, got {env!r}") from exc
    return 0


def _load_inputs(args):
    graph = topology.load_graph(args.topology) if args.topology else topology.shipped_poughkeepsie()
    cal_path = getattr(args, "calibration", None)
    cal = load_calibration(cal_path) if cal_path else default_calibration()
    return graph, cal


def _config(args, graph, cal) -> ExperimentConfig:
    kwargs = dict(calibration=cal, graph=graph, shots=args.shots, seed=_resolve_seed(args))
    if getattr(args, "qubit", None) is not None:
        kwargs["qubit"] = args.qubit
    if getattr(args, "grid_us", None):
        kwargs["dt_grid_us"] = tuple(float(v) for v in args.grid_us.split(","))
    if getattr(args, "max_length", None) is not None:
        kwargs["max_length"] = args.max_length
    if getattr(args, "strategies", None):
        kwargs["strategies"] = tuple(args.strategies.split(","))
    if getattr(args, "orientations", None):
        kwargs["orientations"] = tuple(int(v) for v in args.orientations.split(","))
    if getattr(args, "geometries", None):
        kwargs["geometries"] = tuple(args.geometries.split(","))
    if getattr(args, "top_k", None) is not None:
        kwargs["top_k"] = args.top_k
    return ExperimentConfig(**kwargs)


def _manifest(args, cfg, graph, outputs) -> report.RunManifest:
    import hashlib

    topo_hash = hashlib.sha256(
        json.dumps(graph.to_dict(), sort_keys=True).encode()).hexdigest()
    return report.RunManifest(
        subcommand=args.subcommand,
        seed=cfg.seed,
        shots=cfg.shots,
        calibration_hash=cfg.calibration.content_hash(),
        topology_hash=topo_hash,
        config={
            "format": args.format,
            "out_dir": str(args.out),
            "topology": str(args.topology) if args.topology else "shipped",
            "calibration": str(args.calibration) if args.calibration else "shipped",
        },
        outputs=outputs,
    )


def _emit(table, args, stem, plot_style="scatter"):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.metadata.setdefault("manifest", "manifest.json")
    path = report.write_results(table, args.format, out / f"{stem}.{args.format}")
    print(f"wrote {path}")
    if table.fit is not None:
        report.write_fit(table.fit, out / f"{stem}_fit.json")
    if args.plot:
        report.emit_plot(table, plot_style, out / f"{stem}.svg")


def _run_coherence(args) -> int:
    graph, cal = _load_inputs(args)
    cfg = _config(args, graph, cal)
    name = args.subcommand
    runner = {"t1": experiments.run_t1, "t2-ramsey": experiments.run_t2_ramsey,
              "t2-echo": experiments.run_t2_echo}[name]
    stem = name.replace("-", "_")
    outputs = [f"{stem}.{args.format}", f"{stem}_fit.json"]
    report.write_manifest(args.out, _manifest(args, cfg, graph, outputs))
    table = runner(cfg)
    _emit(table, args, stem, plot_style="fit")
    fit = table.fit
    if fit is not None and fit.ok:
        params = " ".join(f"{k}={v:.6g}" for k, v in fit.params.items())
        print(f"{name}: fit {params} r_squared={fit.r_squared:.6f}")
    else:
        print(f"{name}: fit failed ({fit.message if fit else 'no fit'})")
    return 0


def _run_chain(args) -> int:
    graph, cal = _load_inputs(args)
    cfg = _config(args, graph, cal)
    experiments.chain_sweep_paths(cfg)  # reject unknown cells before the manifest is written
    stems = [f"chain_o{o}_{s}" for o in cfg.orientations for s in cfg.strategies]
    stems += [f"chain_avg_{s}" for s in cfg.strategies]
    outputs = [f"{s}.{args.format}" for s in stems]
    report.write_manifest(args.out, _manifest(args, cfg, graph, outputs))
    result = experiments.run_cnot_chain_sweep(cfg)
    for (o, s), table in result.tables.items():
        _emit(table, args, f"chain_o{o}_{s}")
    for s, table in result.averages.items():
        _emit(table, args, f"chain_avg_{s}")
    return 0


def _run_survey(args) -> int:
    graph, cal = _load_inputs(args)
    cfg = _config(args, graph, cal)
    families = tuple(args.families.split(","))
    outputs = [f"ccnot_survey.{args.format}"]
    report.write_manifest(args.out, _manifest(args, cfg, graph, outputs))
    result = experiments.run_ccnot_survey(cfg, families=families)
    _emit(result.table(), args, "ccnot_survey")
    for fam in families:
        stats = result.family_stats(fam)
        if stats:
            print(f"{fam}: mean_f1={stats['mean_f1']:.4f} max_f1={stats['max_f1']:.4f} "
                  f"mean_f2={stats['mean_f2']:.4f}")
    return 0


def _run_qft(args) -> int:
    graph, cal = _load_inputs(args)
    cfg = _config(args, graph, cal)
    stems = [f"qft_{g.replace('-', '_')}" for g in cfg.geometries]
    outputs = [f"{s}.{args.format}" for s in stems]
    report.write_manifest(args.out, _manifest(args, cfg, graph, outputs))
    survey = experiments.run_ccnot_survey(cfg, families=tuple(dict.fromkeys(cfg.geometries)))
    result = experiments.run_qft_perfect_phases(cfg, survey=survey)
    for g, table in result.tables.items():
        _emit(table, args, f"qft_{g.replace('-', '_')}")
        print(f"{g}: cnot_count={result.cnot_counts[g]}")
    return 0


def _run_qpe(args) -> int:
    graph, cal = _load_inputs(args)
    cfg = _config(args, graph, cal)
    stems = [f"qpe_{g}" for g in cfg.geometries if g in ("linear3", "star4")]
    outputs = [f"{s}.{args.format}" for s in stems]
    report.write_manifest(args.out, _manifest(args, cfg, graph, outputs))
    survey = experiments.run_ccnot_survey(
        cfg, families=tuple(g for g in cfg.geometries if g in ("linear3", "star4")))
    result = experiments.run_qpe_phase_sweep(cfg, survey=survey)
    for g, table in result.tables.items():
        _emit(table, args, f"qpe_{g}", plot_style="qpe")
    return 0


def _run_enumerate(args) -> int:
    graph = topology.load_graph(args.topology) if args.topology else topology.shipped_poughkeepsie()
    triples = len(topology.enumerate_linear_triples(graph))
    stars = len(topology.enumerate_stars(graph))
    rings = len(topology.enumerate_six_rings(graph))
    print(f"triples: {triples}, stars: {stars}, six_rings: {rings}")
    return 0


def _run_validate(args) -> int:
    graph = topology.load_graph(args.topology) if args.topology else topology.shipped_poughkeepsie()
    try:
        raw = json.loads(Path(args.circuit).read_text(encoding="utf-8"))
        circuit = Circuit.from_dict(raw)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read circuit file {args.circuit}: {exc}") from exc
    violations = topology.validate_circuit(graph, circuit)
    if violations:
        for op in violations:
            print(f"violation: {op.kind} on qubits {op.qubits} (not an edge)")
        return 2
    print("ok")
    return 0


_HANDLERS = {
    "t1": _run_coherence,
    "t2-ramsey": _run_coherence,
    "t2-echo": _run_coherence,
    "cnot-chain": _run_chain,
    "ccnot-survey": _run_survey,
    "qft-perfect": _run_qft,
    "qpe-sweep": _run_qpe,
    "enumerate": _run_enumerate,
    "validate": _run_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage()
            return 1
        return _HANDLERS[args.subcommand](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except CellRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CalibrationError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
