"""Spans around the calls into each nisq_lab module, recorded from outside.

The tracer replaces a function in the namespace its callers look it up in
(``nisq_lab.experiments.run_shots``, ``nisq_lab.report.write_results``,
...) with a wrapper that records name, start, end and parent span, and
restores the original afterwards. Nothing inside ``src/`` changes. Spans
stay in memory; the worker writes them out when the run ends.

A span's layer is the first component of its name (``noise.run_shots`` is
in ``noise``). A layer's calls and time count only its outermost spans,
those whose parent is in another layer, so an internal call between two
wrapped functions of one module is not counted twice. Self time is a
span's duration minus the time its direct children cover.
"""
from __future__ import annotations

import math
from pathlib import Path
from time import perf_counter

from nisq_lab import builders, cli, experiments, fitting, noise, report, topology

# a scheduled circuit made only of these runs on the bit-vector engine
CLASSICAL_KINDS = frozenset({"X", "CNOT", "DELAY", "MEASURE"})

# percentiles tried for the tail, highest first; a level counts only with
# at least TAIL_MIN_BEYOND samples above it
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

MIB = float(1 << 20)

# every per-layer metric the traced run reports: name -> (unit, better)
LAYER_METRICS = {
    "noise.dense.calls": ("count", "lower"),
    "noise.dense.s": ("s", "lower"),
    "noise.dense.amp_updates": ("count", "lower"),
    "noise.dense.ns_per_amp_update": ("ns", "lower"),
    "noise.dense.state_mb": ("MiB", "lower"),
    "noise.classical.calls": ("count", "lower"),
    "noise.classical.s": ("s", "lower"),
    "noise.classical.ns_per_shot_qubit_layer": ("ns", "lower"),
    "noise.run_shots.calls": ("count", "lower"),
    "noise.run_shots.s": ("s", "lower"),
    "noise.run_shots.ms_p50": ("ms", "lower"),
    "noise.run_shots.ms_tail": ("ms", "lower"),
    "noise.run_shots.ms_tail_pct": ("%", "higher"),
    "noise.outcomes.distinct": ("count", "lower"),
    "noise.schedule.calls": ("count", "lower"),
    "noise.schedule.s": ("s", "lower"),
    "noise.schedule.layers": ("count", "lower"),
    "fitting.fidelity.calls": ("count", "lower"),
    "fitting.fidelity.s": ("s", "lower"),
    "fitting.fidelity.us_per_outcome": ("us", "lower"),
    "fitting.fit.calls": ("count", "lower"),
    "fitting.fit.s": ("s", "lower"),
    "fitting.fit.iterations": ("count", "lower"),
    "fitting.fit.fallbacks": ("count", "lower"),
    "fitting.fit.not_ok": ("count", "lower"),
    "builders.calls": ("count", "lower"),
    "builders.s": ("s", "lower"),
    "topology.calls": ("count", "lower"),
    "topology.s": ("s", "lower"),
    "experiments.run.calls": ("count", "lower"),
    "experiments.run.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "report.calls": ("count", "lower"),
    "report.s": ("s", "lower"),
    "report.bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "cells.attempted": ("count", "higher"),
    "cells.failed": ("count", "lower"),
}


def _run_shots_note(scheduled, cal, shots, seed, *, result):
    classical = all(op.kind in CLASSICAL_KINDS for layer in scheduled.layers for op in layer.ops)
    return {"engine": "classical" if classical else "dense", "shots": shots,
            "n": scheduled.n_qubits, "layers": len(scheduled.layers), "distinct": len(result)}


def _schedule_note(circuit, durations, *, result):
    return {"layers": len(result.layers)}


def _fidelity_note(counts, roles, desired_computational, desired_ancilla="", *, result):
    return {"outcomes": len(counts)}


def _fit_note(t, p, shots, *, result):
    return {"iterations": result.iterations, "fallback": result.fallback, "ok": result.ok}


def _bytes_note(*args, result, **kwargs):
    return {"bytes": Path(result).stat().st_size}


def boundaries():
    """(owner, attribute, span name, note) for every wrapped call site."""
    out = [(cli, "main", "cli.main", None)]
    out += [(experiments, f, f"experiments.{f}", None)
            for f in ("run_t1", "run_t2_ramsey", "run_t2_echo", "run_cnot_chain_sweep",
                      "run_ccnot_survey", "run_qft_perfect_phases", "run_qpe_phase_sweep")]
    out += [(builders, f, f"builders.{f}", None)
            for f in ("cnot_chain", "ccnot_on_geometry", "qpe_on_geometry", "qft_dagger_3",
                      "qpe_expected_label")]
    out += [(topology, f, f"topology.{f}", None)
            for f in ("shipped_poughkeepsie", "load_graph", "chain_paths",
                      "enumerate_linear_triples", "linear3_variants", "enumerate_stars",
                      "star_variants", "ring_placements", "enumerate_six_rings")]
    out.append((builders, "chain_placement", "topology.chain_placement", None))
    # experiments imports these names from noise and fitting; the wide-dense
    # workload calls them through their own modules
    for owner in (experiments, noise):
        out.append((owner, "schedule", "noise.schedule", _schedule_note))
        out.append((owner, "run_shots", "noise.run_shots", _run_shots_note))
    for owner in (experiments, fitting):
        out.append((owner, "fidelity", "fitting.fidelity", _fidelity_note))
    out += [(experiments, f, f"fitting.{f}", _fit_note)
            for f in ("fit_exponential", "fit_damped_cosine")]
    out += [(report, f, f"report.{f}", _bytes_note)
            for f in ("write_manifest", "write_results", "write_fit", "emit_plot")]
    return out


class Tracer:
    """Records spans while installed; ``spans`` rows are
    [name, start, end, parent index or -1, note dict or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, owner, attr, name, note):
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(*args, result=result, **kwargs)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def __enter__(self):
        for owner, attr, name, note in boundaries():
            self._wrap(owner, attr, name, note)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        self._stack.clear()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def tail(ordered: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest TAIL_LEVELS percentile with at
    least TAIL_MIN_BEYOND of the sorted samples above it; the median when
    none has."""
    n = len(ordered)
    level = next((lv for lv in TAIL_LEVELS if n - _rank(lv, n) >= TAIL_MIN_BEYOND), 50.0)
    return percentile(ordered, level), level


def percentile(ordered: list[float], level: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[_rank(level, len(ordered)) - 1]


def _rank(level: float, n: int) -> int:
    return max(math.ceil(round(level * n / 100.0, 9)), 1)


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], list[float]]:
    """Per-layer counts and times of one traced pass, and the duration of
    each of its run_shots calls in ms. Layers that did not run are absent;
    run_shots percentiles are left to the caller, which pools passes."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    run_shots_ms = []
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        layer = _layer(name)
        if parent >= 0 and _layer(spans[parent][0]) == layer:
            continue  # nested inside its own layer: already in the outer span
        if name == "cli.main":
            add("cli.main.calls", 1)
            add("cli.main.self_s", dur - child[i])
        elif name.startswith("experiments.run_"):
            add("experiments.run.calls", 1)
            add("experiments.run.self_s", dur - child[i])
        elif layer in ("builders", "topology", "report"):
            add(f"{layer}.calls", 1)
            add(f"{layer}.s", dur)
            if layer == "report":
                add("report.bytes", note["bytes"])
        elif name == "noise.schedule":
            add("noise.schedule.calls", 1)
            add("noise.schedule.s", dur)
            add("noise.schedule.layers", note["layers"])
        elif name == "noise.run_shots":
            run_shots_ms.append(dur * 1e3)
            add("noise.run_shots.calls", 1)
            add("noise.run_shots.s", dur)
            add("noise.outcomes.distinct", note["distinct"])
            engine = note["engine"]
            add(f"noise.{engine}.calls", 1)
            add(f"noise.{engine}.s", dur)
            work = note["shots"] * note["n"] * note["layers"]
            if engine == "dense":
                add("noise.dense.amp_updates", work * (1 << note["n"]))
                state = note["shots"] * (1 << note["n"]) * 16 / MIB
                m["noise.dense.state_mb"] = max(m.get("noise.dense.state_mb", 0.0), state)
            else:
                add("noise.classical.shot_qubit_layers", work)
        elif name == "fitting.fidelity":
            add("fitting.fidelity.calls", 1)
            add("fitting.fidelity.s", dur)
            add("fitting.fidelity.outcomes", note["outcomes"])
        elif name.startswith("fitting.fit_"):
            add("fitting.fit.calls", 1)
            add("fitting.fit.s", dur)
            add("fitting.fit.iterations", note["iterations"])
            add("fitting.fit.fallbacks", 1 if note["fallback"] else 0)
            add("fitting.fit.not_ok", 0 if note["ok"] else 1)
    m["noise.dense.ns_per_amp_update"] = _ratio(
        m.get("noise.dense.s", 0.0) * 1e9, m.get("noise.dense.amp_updates", 0.0))
    m["noise.classical.ns_per_shot_qubit_layer"] = _ratio(
        m.get("noise.classical.s", 0.0) * 1e9, m.pop("noise.classical.shot_qubit_layers", 0.0))
    m["fitting.fidelity.us_per_outcome"] = _ratio(
        m.get("fitting.fidelity.s", 0.0) * 1e6, m.pop("fitting.fidelity.outcomes", 0.0))
    return m, run_shots_ms


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work in this pass."""
    return num / den if den else 0.0
