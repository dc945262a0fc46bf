"""Compare two commits on the benchmark, in alternating pairs.

    python3 benchmarks/compare.py PARENT CHANGE [--workload curve_sweep ...]

Run from a git checkout.  The `src` tree of each commit is exported with
`git archive` into .bench_out/compare/<commit>/ and measured by this same
benchmark code, so both sides see identical benchmark settings.  It runs
10 pairs at the run_seconds of BENCHMARK.json.  Pair i runs both sides with
seed i + 1; even pairs run the parent first, odd pairs the change.  For
every end-to-end metric and workload the verdict is:

  better      the change won at least 9/10 of the pairs
              (ties count for neither side) and the medians differ by more
              than the parent's interquartile range; or the spread is wider than the
              bound but every change run beat every parent run
  unresolved  the parent's spread (IQR / median) is wider than the bound
  worse       the change's median is worse than the parent's by more than
              the bound BENCHMARK.json fixes
  same        none of the above

A "better" becomes "void (more failures)" when the change's runs failed more
operations in total than the parent's.

The table is printed and written to .bench_out/compare.json.  Exit code 1
when any verdict is "worse" or a run fails, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

WIN_SHARE = 0.9
PAIRS = 10


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Apply the pairwise rule to one (metric, workload)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _q2, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    spread = iqr / abs(p_med) if p_med else float("inf")
    worsening = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = (max(change) < min(parent)) if sign > 0 else (min(change) > max(parent))
    if wins >= WIN_SHARE * len(parent) and sign * (p_med - c_med) > iqr:
        outcome = "better"
    elif spread > bound:
        outcome = "better" if all_better else "unresolved"
    elif worsening > bound:
        outcome = "worse"
    else:
        outcome = "same"
    c_q1, _c_q2, c_q3 = statistics.quantiles(change, n=4)
    return {"verdict": outcome, "wins": wins, "pairs": len(parent),
            "parent": [q1, p_med, q3], "change": [c_q1, c_med, c_q3],
            "spread": spread, "bound": bound}


def export(commit: str) -> Path:
    """The commit's src tree under .bench_out/compare/<sha>/."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    dest = ROOT / ".bench_out" / "compare" / sha
    if not (dest / "src" / "qsd" / "cli.py").is_file():
        archive = subprocess.run(["git", "archive", "--format=tar", sha, "src"],
                                 cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name[:12]} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": export(args.parent), "change": export(args.change)}

    report = {}
    for workload in args.workload or WORKLOADS:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    runs[side].append(run_once(trees[side], workload, i + 1, seconds))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
        report[workload] = {
            m["name"]: verdict([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                               [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                               m["better"], m["bound"])
            for m in bench["end_to_end"]
        }
        failed = {side: [r["failed"] for r in runs[side]] for side in runs}
        if sum(failed["change"]) > sum(failed["parent"]):
            # a gain does not count when more operations fail
            for row in report[workload].values():
                if row["verdict"] == "better":
                    row["verdict"] = "void (more failures)"
        report[workload]["failed"] = failed

    print(f"{'workload':15s} {'metric':13s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    for workload, rows in report.items():
        for name, row in rows.items():
            if name == "failed":
                continue
            fmt = "/".join(f"{v:.4g}" for v in row["parent"])
            cfmt = "/".join(f"{v:.4g}" for v in row["change"])
            print(f"{workload:15s} {name:13s} {fmt:>32s} {cfmt:>32s} "
                  f"{row['wins']:>3d}/{row['pairs']:<2d}  {row['verdict']}")
    (ROOT / ".bench_out" / "compare.json").write_text(json.dumps(report, indent=1))
    worse = any(row["verdict"] == "worse" for rows in report.values()
                for name, row in rows.items() if name != "failed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
