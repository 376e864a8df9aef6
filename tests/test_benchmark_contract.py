"""The benchmark in ``perfbench/`` traces the program by wrapping module
attributes (``experiments.run_t1``, ``experiments.run_shots``, ...) and looks
them up at call time. If a call site binds one of them at import, the traced
run sees no calls for its layer and the benchmark guard fails; these tests
catch that in the ordinary suite."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from nisq_lab import cli  # noqa: E402

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
