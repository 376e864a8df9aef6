"""nisq-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Each workload runs in its own fresh
process (worker.py), which repeats passes of fixed work for S seconds and
checks every cell of every pass against the committed reference tables.
Set-up time is the median over several fresh processes, timed from start
to ready; it and the pass times are corrected for the machine's speed at
the moment they are taken (pace.py). With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of the
traced passes instead. A ``fingerprint`` line before it describes the
machine. ``--workload all`` runs every workload in turn and prints each
metric by name with its unit.

Tuning seeds are 1..10; confirm a claim on the held-out seed 8191 as well.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / ".out"

WORKLOADS = ("survey-dense", "chain-classical", "coherence-cli", "wide-dense")
SETUP_PROCESSES = 7  # set-up-only processes per run, besides the workload's own
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "shots_per_s": "1/s", "peak_rss_mb": "MiB"}
WORKER_SLACK_S = 120  # beyond --seconds before a worker is killed


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # one process, one thread: keep BLAS from starting a pool
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(args: list[str]) -> tuple[subprocess.Popen, tuple[float, float]]:
    """Start a fresh worker; return it and a set-up sample: its seconds from
    start to ready, and the speed factor from the calibration reading the
    worker takes right after (see pace.py)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    pace = proc.stdout.readline().split()
    if line.strip() != "ready" or len(pace) != 2 or pace[0] != "pace":
        _finish(proc, 10)
        raise BenchError(f"worker did not set up (exit code {proc.returncode})")
    return proc, (ready, float(pace[1]))


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker; return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {timeout} s; killed") from None
    return out


def _read_text(path) -> str | None:
    try:
        return Path(path).read_text(encoding="ascii").strip()
    except OSError:
        return None


def _commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        return _read_text(ROOT / ".git" / head[5:]) or head[5:]
    return head


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    cpu_max = _read_text("/sys/fs/cgroup/cpu.max")  # cgroup v2, read only
    if cpu_max is None:
        quota = _read_text("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")  # cgroup v1
        period = _read_text("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = f"{quota} {period}" if quota and period else "unavailable"
    env = _child_env()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": {name: env[name] for name in BLAS_THREAD_VARS},
        "commit": _commit(),
        "src_sha256": _source_hash(),
    }


def _setup_samples(count: int) -> list[tuple[float, float]]:
    samples = []
    for _ in range(count):
        proc, ready = _start_worker(["--setup-only"])
        _finish(proc, 60)
        samples.append(ready)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples plus one measuring worker; returns the run's record.
    Set-up samples are taken both before and after the worker, so that
    their median spans the run rather than one moment of machine load;
    each is corrected for machine speed like the passes are."""
    setup = _setup_samples(SETUP_PROCESSES // 2 + 1)
    proc, ready = _start_worker(["--workload", name, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(int(trace))])
    out = _finish(proc, seconds + WORKER_SLACK_S)
    setup.append(ready)
    setup += _setup_samples(SETUP_PROCESSES // 2)
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited with {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_samples_s"] = [ready for ready, _ in setup]
    record["setup_speed"] = [factor for _, factor in setup]
    attempted = record["cells_per_pass"] * len(record["passes"])
    failed = sum(p["failed"] for p in record["passes"])
    if trace:
        metrics = record.pop("layers")
    else:
        wall = record["pace_wall_s"]
        values = {
            "setup_s": statistics.median(ready * factor for ready, factor in setup),
            "wall_s": wall,
            "shots_per_s": record["shots_per_pass"] / wall,
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def _result_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def _save(result: dict, fp: dict, name: str, seed: int, trace: bool) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"fingerprint": fp, **result}, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "nisq_lab" / "__init__.py").is_file():
        print(f"error: no nisq_lab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    fp = fingerprint()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _save(results[name], fp, name, args.seed, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fp["numpy"] = results[names[0]]["record"]["numpy"]
    fp["worker_os_threads"] = results[names[0]]["record"]["os_threads"]
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if args.workload != "all":
        print(_result_line(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: {result['attempted']} cells, {result['failed']} failed")
        for metric, value in result["metrics"].items():
            print(f"  {metric:42s} {value['value']:14.6g} {value['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
