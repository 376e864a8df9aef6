"""Command-line entry point.

Subcommands: t1, t2-ramsey, t2-echo, cnot-chain, ccnot-survey, qft-perfect,
qpe-sweep, enumerate, validate. The seven experiment subcommands share one
handler: load the topology and calibration, build the config, run, write
each result table (plus its fit, and its SVG with --plot), then write
manifest.json listing the result and fit files, and print a summary.
``main`` may be called repeatedly in one process; it builds its parser and
loads the shipped topology and calibration once per process.

Exit codes: 0 success, 1 configuration error, 2 runtime failure (such as
a circuit whose simulation would exceed the memory budget) or a request for
cells that do not exist (a chain longer than its orientation,
--max-length or --top-k below 1, a geometry the topology has no placement
for, a survey of families none of which has one). Configuration errors
include an unknown or repeated entry in --families, --geometries,
--strategies or --orientations, a --grid-us entry that is negative or not
finite, and a negative seed. A failed run writes no manifest. The
environment variable NISQ_LAB_SEED overrides the default seed when --seed
is not given.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__, builders, experiments, report, topology
from .experiments import CellRangeError, ExperimentConfig
from .noise import CalibrationError, SimulationError, default_calibration, load_calibration
from .simulator import Circuit
from .topology import TopologyError

# ExperimentConfig fields that some subcommands set from flags of the same name
_CONFIG_FIELDS = ("qubit", "dt_grid_us", "strategies", "orientations", "max_length",
                  "geometries", "top_k")


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _name_list(*allowed):
    """argparse type: a comma-separated list of distinct entries of ``allowed``."""
    by_name = {str(a): a for a in allowed}

    def names(text: str) -> tuple:
        got = text.split(",")
        if any(n not in by_name for n in got) or len(set(got)) < len(got):
            raise argparse.ArgumentTypeError(
                f"{text!r} must list distinct entries from {','.join(by_name)}")
        return tuple(by_name[n] for n in got)

    return names


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


@functools.cache
def _build_parser() -> _CliParser:
    parser = _CliParser(prog="nisq-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nisq-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def add_experiment(name, tables, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=_run_experiment, tables=tables)
        p.add_argument("--topology", type=Path, help="topology JSON (default: shipped map)")
        p.add_argument("--calibration", type=Path, help="calibration JSON (default: shipped)")
        p.add_argument("--shots", type=int, default=8000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--plot", action="store_true", help="also emit SVG plots")
        return p

    def add_names(p, flag, allowed):
        p.add_argument(flag, type=_name_list(*allowed), default=allowed,
                       help=f"comma-separated, from {','.join(map(str, allowed))} (default: all)")

    for name in ("t1", "t2-ramsey", "t2-echo"):
        p = add_experiment(name, _coherence_tables, f"run the {name} experiment")
        p.add_argument("--qubit", type=int, default=0)
        p.add_argument("--grid-us", dest="dt_grid_us", type=_float_list, default=None,
                       help="comma-separated delay grid in microseconds")

    p = add_experiment("cnot-chain", _chain_tables,
                       "chain-length sweep per orientation and strategy")
    add_names(p, "--strategies", builders.RESET_STRATEGIES)
    add_names(p, "--orientations", (1, 2, 3, 4))
    p.add_argument("--max-length", type=int, default=19)

    p = add_experiment("ccnot-survey", _survey_tables,
                       "CCNOT fidelity over every geometry placement")
    add_names(p, "--families", experiments.SURVEY_FAMILIES)

    p = add_experiment("qft-perfect", _qft_tables, "inverse-QFT perfect-phase fidelities")
    add_names(p, "--geometries", builders.QFT_GEOMETRIES)
    p.add_argument("--top-k", type=int, default=3)

    p = add_experiment("qpe-sweep", _qpe_tables, "continuous phase-estimation sweep")
    add_names(p, "--geometries", experiments.QPE_GEOMETRIES)

    p = sub.add_parser("enumerate", help="count geometry placements on a topology")
    p.set_defaults(handler=_run_enumerate)
    p.add_argument("--topology", type=Path)

    p = sub.add_parser("validate", help="check a circuit file against a topology")
    p.set_defaults(handler=_run_validate)
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


def _load_graph(args):
    return topology.load_graph(args.topology) if args.topology else topology.shipped_poughkeepsie()


def _config(args, graph, cal) -> ExperimentConfig:
    fields = {name: getattr(args, name) for name in _CONFIG_FIELDS
              if getattr(args, name, None) is not None}
    return ExperimentConfig(calibration=cal, graph=graph, shots=args.shots,
                            seed=_resolve_seed(args), **fields)


def _manifest(args, cfg, graph, outputs) -> report.RunManifest:
    return report.RunManifest(
        subcommand=args.subcommand,
        seed=cfg.seed,
        shots=cfg.shots,
        calibration_hash=cfg.calibration.content_hash(),
        topology_hash=graph.content_hash(),
        config={
            "format": args.format,
            "out_dir": str(args.out),
            "topology": str(args.topology) if args.topology else "shipped",
            "calibration": str(args.calibration) if args.calibration else "shipped",
        },
        outputs=outputs,
    )


def _emit(table, args, stem) -> list[str]:
    """Write one table, its fit and, with --plot, its SVG; returns the
    names the manifest lists (the results file and the fit file)."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.metadata.setdefault("manifest", "manifest.json")
    path = report.write_results(table, args.format, out / f"{stem}.{args.format}")
    print(f"wrote {path}")
    names = [path.name]
    if table.fit is not None:
        names.append(report.write_fit(table.fit, out / f"{stem}_fit.json").name)
    if args.plot:
        report.emit_plot(table, out / f"{stem}.svg")
    return names


def _run_experiment(args) -> int:
    graph = _load_graph(args)
    cal = load_calibration(args.calibration) if args.calibration else default_calibration()
    cfg = _config(args, graph, cal)
    tables, summary = args.tables(args, cfg)
    outputs = [name for stem, table in tables for name in _emit(table, args, stem)]
    report.write_manifest(args.out, _manifest(args, cfg, graph, outputs))
    for line in summary:
        print(line)
    return 0


# Each experiment subcommand runs its experiment and returns
# ([(file stem, table)], summary lines).

def _coherence_tables(args, cfg):
    stem = args.subcommand.replace("-", "_")
    table = getattr(experiments, f"run_{stem}")(cfg)
    fit = table.fit
    if fit is not None and fit.ok:
        params = " ".join(f"{k}={v:.6g}" for k, v in fit.params.items())
        line = f"{args.subcommand}: fit {params} r_squared={fit.r_squared:.6f}"
    else:
        line = f"{args.subcommand}: fit failed ({fit.message if fit else 'no fit'})"
    return [(stem, table)], [line]


def _chain_tables(args, cfg):
    result = experiments.run_cnot_chain_sweep(cfg)
    tables = [(f"chain_o{o}_{s}", t) for (o, s), t in result.tables.items()]
    tables += [(f"chain_avg_{s}", t) for s, t in result.averages.items()]
    return tables, []


def _survey_tables(args, cfg):
    result = experiments.run_ccnot_survey(cfg, families=args.families)
    summary = []
    for fam in args.families:
        stats = result.family_stats(fam)
        if stats:
            summary.append(f"{fam}: mean_f1={stats['mean_f1']:.4f} "
                           f"max_f1={stats['max_f1']:.4f} mean_f2={stats['mean_f2']:.4f}")
    return [("ccnot_survey", result.table())], summary


def _qft_tables(args, cfg):
    tables = experiments.run_qft_perfect_phases(cfg)
    return ([(f"qft_{g.replace('-', '_')}", t) for g, t in tables.items()],
            [f"{g}: cnot_count={t.metadata['cnot_count']}" for g, t in tables.items()])


def _qpe_tables(args, cfg):
    tables = experiments.run_qpe_phase_sweep(cfg)
    return [(f"qpe_{g}", t) for g, t in tables.items()], []


def _run_enumerate(args) -> int:
    graph = _load_graph(args)
    triples = len(topology.enumerate_linear_triples(graph))
    stars = len(topology.enumerate_stars(graph))
    rings = len(topology.enumerate_six_rings(graph))
    print(f"triples: {triples}, stars: {stars}, six_rings: {rings}")
    return 0


def _run_validate(args) -> int:
    graph = _load_graph(args)
    try:
        raw = json.loads(Path(args.circuit).read_text(encoding="utf-8"))
        circuit = Circuit.from_dict(raw)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise UsageError(f"cannot read circuit file {args.circuit}: {exc}") from exc
    violations = topology.validate_circuit(graph, circuit)
    if violations:
        for op in violations:
            where = (f"outside the device's {graph.n_qubits} qubits"
                     if max(op.qubits) >= graph.n_qubits else "not an edge")
            print(f"violation: {op.kind} on qubits {op.qubits} ({where})")
        return 2
    print("ok")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage()
            return 1
        return args.handler(args)
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
