"""qsd benchmark: three workloads, end-to-end metrics and a traced per-layer run.

    python3 benchmarks/run.py --workload curve_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a qsd source tree; the program is imported from
./src and nothing is installed.  All load comes from one child process at a
time, each a fresh interpreter with BLAS pinned to one thread (see child.py).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
a separate traced run.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it ("# run
...") records the environment and the sample counts behind the metrics, and the
same record is written to .bench_out/result-<workload>.json.  `attempted`
counts distinct operations (verify checks, curve calls, requests, Gram-route
points); one fails when any repetition of it gave no answer or a wrong one.

Exit codes: 0 when every output was right, 1 when an output was wrong or the
harness could not finish, 2 when the current directory holds no qsd sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import layer_metric_units

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: Fresh interpreters timed per run for setup_s (after one untimed warm-up
#: that also fills the bytecode cache).
SETUP_SAMPLES = 11

#: A run ends within this many seconds, whatever --seconds asks for.
RUN_LIMIT_S = 170.0

#: Child process modes per workload.
CHILD_MODE = {"verify_all": "verify", "curve_sweep": "sweep",
              "curve_requests": "requests"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "points_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not complete a run."""


class Runner:
    """Starts child processes one at a time, within the run's time limit."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "QSD_TAIL_TOL")}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def child(self, *args: str) -> dict:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise HarnessError("run time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), *args], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise HarnessError(f"child {args} exceeded the run time limit") from None
        if proc.returncode != 0:
            raise HarnessError(f"child {args} exited {proc.returncode}:\n"
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup_phase(runner: Runner) -> tuple[list[float], dict]:
    warm = runner.child("setup", "--env")
    qsd_file = Path(warm["qsd_file"]).resolve()
    if runner.root / "src" not in qsd_file.parents:
        raise HarnessError(f"qsd was imported from {qsd_file}, not from ./src")
    times = [runner.child("setup")["import_s"] for _ in range(SETUP_SAMPLES)]
    return times, warm["env"]


def measure(runner: Runner, workload: str, seed: int, seconds: float,
            trace: bool, spans_dir: Path) -> list[dict]:
    """Child results of the measured phase.

    verify_all and curve_sweep start a fresh interpreter per repetition until
    `seconds` have passed; a traced run alternates untraced and traced
    repetitions.  curve_requests runs in one interpreter, like a client that
    stays up, and loops over its request list for `seconds`.
    """
    mode = CHILD_MODE[workload]
    if mode == "requests":
        args = ["requests", "--seed", str(seed), "--seconds", str(seconds)]
        if trace:
            args += ["--trace", "--spans", str(spans_dir / f"{workload}.jsonl.gz")]
        return [runner.child(*args)]
    results: list[dict] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(results) < (2 if trace else 1):
        args = [mode]
        if trace and len(results) % 2 == 1:
            args += ["--trace", "--spans",
                     str(spans_dir / f"{workload}-{len(results) // 2}.jsonl.gz")]
        if mode == "sweep" and not results:
            args += ["--gram-seed", str(seed)]
        results.append(runner.child(*args))
    return results


def merge_ops(results: list[dict]) -> dict[str, list | None]:
    """An operation fails when any repetition of it failed."""
    merged: dict[str, list | None] = {}
    for result in results:
        for key, outcome in result["ops"].items():
            if merged.get(key) is None:
                merged[key] = outcome
    return merged


def end_to_end(results: list[dict], setup_times: list[float],
               ops: dict[str, list | None]) -> tuple[dict, dict]:
    """Each CLI call counts with its best time over the run's repetitions.

    Every repetition makes the same calls.  On a shared machine a call runs
    at full speed or up to about twice as slow, in bursts of a fraction of a
    second to minutes; a call's best time over the repetitions tracks the
    code, its median tracks the neighbours.  A repetition's wall and CPU
    time are the sums over its calls; the latency percentiles are taken
    over the answered calls.
    """
    reps = [s for r in results for s in r["samples"]]
    calls = range(len(reps[0]["wall_s"]))
    wall = sum(min(rep["wall_s"][i] for rep in reps) for i in calls)
    cpu = sum(min(rep["cpu_s"][i] for rep in reps) for i in calls)
    points = sum(max(rep["points"][i] for rep in reps) for i in calls)
    latencies_ms = [1e3 * min(rep["wall_s"][i] for rep in reps if rep["answered"][i])
                    for i in calls if any(rep["answered"][i] for rep in reps)]
    if not latencies_ms:
        raise HarnessError("no call was answered, so no latency can be reported")
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": cpu,
        "points_per_s": points / wall,
        "req_p50_ms": statistics.median(latencies_ms),
        "req_p99_ms": nearest_rank(latencies_ms, 0.99),
        "ok_ratio": sum(v is None for v in ops.values()) / len(ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    counts = {"setup_s": len(setup_times), "repetitions": len(reps),
              "calls_per_repetition": len(calls), "latency_calls": len(latencies_ms),
              "ok_ratio": len(ops), "peak_rss_mb": len(results)}
    return values, counts


def per_layer(results: list[dict]) -> tuple[dict, dict]:
    """Per-layer means over traced units; overhead is traced minus untraced wall."""
    traced = [r["traced"] for r in results if "traced" in r]
    units = sum(t["units"] for t in traced)
    values = {name: 0.0 for name, _unit in layer_metric_units()}
    for t in traced:
        for name, value in t["layers"].items():
            if name.endswith((".dim_max", ".distinct")):
                values[name] = max(values[name], value)
            else:
                values[name] += value * t["units"] / units
    untraced = [sum(s["wall_s"]) for r in results for s in r["samples"]]
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(untraced)
    return values, {"traced_units": units, "untraced_units": len(untraced)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "qsd" / "cli.py").is_file():
        print(f"error: {root} holds no qsd sources (src/qsd/cli.py)", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    spans_dir = out_dir / "spans"  # the last traced run's spans
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True, exist_ok=True)

    runner = Runner(root, perf_counter() + RUN_LIMIT_S)
    try:
        setup_times, env = setup_phase(runner)
        results = measure(runner, args.workload, args.seed, args.seconds,
                          bool(args.trace), spans_dir)
        ops = merge_ops(results)
        failed = {k: v for k, v in ops.items() if v is not None}
        if args.trace:
            values, counts = per_layer(results)
            units = dict(layer_metric_units())
        else:
            values, counts = end_to_end(results, setup_times, ops)
            units = END_TO_END_UNITS
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wrong = {k: v[1] for k, v in failed.items() if v[0] == "wrong"}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(root),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), **env,
        "blas_threads": "1 (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS)",
        "samples": counts,
        "failures": dict(sorted(failed.items())[:20]),
        "failure_kinds": {kind: sum(v[0] == kind for v in failed.values())
                          for kind in ("error", "wrong")},
    }
    result = {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (out_dir / f"result-{args.workload}.json").write_text(
        json.dumps({**record, **result}, indent=1) + "\n")
    print("# run " + json.dumps(record))
    print(json.dumps(result))
    if wrong:
        print(f"error: {len(wrong)} wrong outputs, e.g. {next(iter(wrong.items()))}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
