"""One fresh benchmark process: set up, signal ready, measure, report.

Started by run.py, never by hand. Set-up is importing nisq_lab (its CLI
included) and loading the shipped topology and calibration; the process
then prints ``ready`` so the parent can time it, and a ``pace`` line with
the machine's speed factor right after (pace.py). With ``--setup-only`` it
exits there. Otherwise it repeats passes of one workload until the
measuring time is spent, times the untraced ones in speed-corrected
segments, checks every pass's outputs against the reference, and prints
one JSON record as its last line.

With ``--trace 1`` passes alternate between untraced and traced, so both
run in the same process on the same inputs; their wall-time difference is
the tracing overhead. Spans are written to the output directory at exit.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"


class GuardError(RuntimeError):
    pass


def _set_up():
    sys.path.insert(0, str(SRC))
    import nisq_lab
    import nisq_lab.cli  # noqa: F401  (the entry point users run)
    from nisq_lab import noise, topology

    if not Path(nisq_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"nisq_lab imported from {nisq_lab.__file__}, not from {SRC}")
    return topology.shipped_poughkeepsie(), noise.default_calibration()


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration, ValueError):
        return None


def _measure(workload, ctx, seed: int, seconds: float, trace: bool, reference: dict):
    import pace
    import refcheck
    import spans

    cells = refcheck.reference_cells(reference)
    passes, costs, layer_runs, run_shots_ms, all_spans = [], [], [], [], []
    seen_notes: set[str] = set()
    begin = perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        while True:
            # pass 0 warms up and is not timed; then untraced and traced alternate
            warmup = not passes
            traced = trace and len(passes) % 2 == 0 and not warmup
            shutil.rmtree(ctx.out, ignore_errors=True)
            gc.collect()  # every pass starts from the same collector state
            tracer = spans.Tracer() if traced else pace.CellMarks()
            with redirect_stdout(devnull), tracer:
                start = perf_counter()
                result = workload.run(ctx, seed)
                wall = perf_counter() - start
            failed, notes = refcheck.count_failed(reference, workload.collect(ctx, result))
            for note in notes[:10]:
                if note not in seen_notes:
                    seen_notes.add(note)
                    print(f"{workload.name}: {note}", file=sys.stderr)
            passes.append({"warmup": warmup, "traced": traced, "wall_s": wall, "failed": failed})
            if not traced:
                # kernel time left out; the raw time and kernel reading are kept for reference
                passes[-1].update(wall_s=sum(tracer.segments()), kernel_s=tracer.kernel_s())
                if not warmup:
                    costs.append(tracer.costs())
            else:
                metrics, durations = spans.layer_metrics(tracer.spans)
                layer_runs.append(metrics)
                run_shots_ms += durations
                all_spans.append(tracer.spans)

            timed = [p for p in passes if not p["warmup"]]
            next_traced = trace and len(passes) % 2 == 0
            same_kind = [p["wall_s"] for p in timed if p["traced"] == next_traced] or [wall]
            have_both = any(not p["traced"] for p in timed) and (
                not trace or any(p["traced"] for p in timed))
            if have_both and perf_counter() - begin + statistics.median(same_kind) > seconds:
                break
    return {
        "passes": passes,
        "pace_wall_s": pace.pass_wall(costs),
        "segments_per_pass": len(costs[0]),
        "cells_per_pass": cells,
        "layers": layer_runs,
        "run_shots_ms": run_shots_ms,
        "spans": all_spans,
    }


def _layer_report(workload, measured: dict) -> dict[str, dict]:
    """Median over traced passes of every per-layer metric, with its unit
    (0 for a layer that did not run). Raises GuardError when a layer
    expected on this workload made no calls."""
    import spans

    runs = measured["layers"]
    names = set().union(*runs)
    out = {name: statistics.median(r.get(name, 0.0) for r in runs) for name in names}
    for layer in workload.layers:
        if any(r.get(f"{layer}.calls", 0) == 0 for r in runs):
            raise GuardError(f"traced run of {workload.name}: layer {layer} recorded zero calls;"
                             " a call site moved and the benchmark no longer sees it")
    if measured["run_shots_ms"]:
        ordered = sorted(measured["run_shots_ms"])
        out["noise.run_shots.ms_p50"] = spans.percentile(ordered, 50.0)
        out["noise.run_shots.ms_tail"], out["noise.run_shots.ms_tail_pct"] = spans.tail(ordered)
    timed = [p for p in measured["passes"] if not p["warmup"]]
    plain = [p["wall_s"] for p in timed if not p["traced"]]
    traced = [p["wall_s"] for p in timed if p["traced"]]
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["cells.attempted"] = measured["cells_per_pass"] * len(measured["passes"])
    out["cells.failed"] = sum(p["failed"] for p in measured["passes"])
    return {name: {"value": float(out.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in spans.LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    graph, calibration = _set_up()
    print("ready", flush=True)
    import pace

    print(f"pace {pace.speed()}", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import refcheck
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = refcheck.load_reference(workload.name)
    if reference["shots"] != workload.shots:
        print(f"error: reference for {workload.name} is at {reference['shots']} shots, the "
              f"workload runs {workload.shots}; regenerate it with perfbench/reference.py",
              file=sys.stderr)
        return 2
    ctx = workloads.Context(OUT / f"work-{workload.name}", graph, calibration)
    measured = _measure(workload, ctx, args.seed, args.seconds, bool(args.trace), reference)
    shutil.rmtree(ctx.out, ignore_errors=True)

    record = {
        "passes": measured["passes"],
        "pace_wall_s": measured["pace_wall_s"],
        "segments_per_pass": measured["segments_per_pass"],
        "shots_per_pass": measured["cells_per_pass"] * workload.shots,
        "cells_per_pass": measured["cells_per_pass"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "os_threads": _os_threads(),
    }
    if args.trace:
        try:
            record["layers"] = _layer_report(workload, measured)
        except GuardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({"passes": measured["passes"],
                                          "spans": measured["spans"]}) + "\n",
                              encoding="utf-8")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
