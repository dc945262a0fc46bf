"""Smoke tests of the benchmark itself, at a run length of one second.

    python3 -m pytest benchmarks -q

They start run.py from the repository root like any other caller, so the
whole file takes about a minute.  The repository's own test run (`pytest`
with no arguments) does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import compare  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_tree(dest: Path, with_sources: bool = True) -> Path:
    """BENCHMARK.json and the benchmark, and optionally the program's src."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "benchmarks", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def run_bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    return result


def units_of(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: result_of(run_bench(w, trace=1)) for w in wl.WORKLOADS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = result_of(run_bench(workload))
    assert units_of(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1


def test_layer_metrics_printed_with_units(traced):
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for result in traced.values():
        assert units_of(result) == expected


def test_self_times_and_remainder_add_up_to_traced_wall(traced):
    for result in traced.values():
        m = {name: v["value"] for name, v in result["metrics"].items()}
        self_total = sum(v for name, v in m.items() if name.endswith(".self_s"))
        assert self_total + m["trace.outside_s"] == pytest.approx(m["trace.wall_s"],
                                                                  rel=1e-9)


def test_layers_split_by_workload(traced):
    metric = {w: {n: v["value"] for n, v in r["metrics"].items()}
              for w, r in traced.items()}
    for workload in ("curve_sweep", "curve_requests"):
        for name, value in metric[workload].items():
            if name.split(".")[0] in ("fock", "oracle", "symmetric") and name.endswith(".calls"):
                assert value == 0, (workload, name)
    assert metric["verify_all"]["fock.hermitian_eig.calls"] > 0
    share = {w: metric[w]["cli.main.self_s"] / metric[w]["trace.wall_s"]
             for w in ("curve_sweep", "curve_requests")}
    assert share["curve_requests"] > share["curve_sweep"]


def test_fixed_seed_reproduces_requests_and_failures():
    assert wl.make_requests(7) == wl.make_requests(7)
    assert wl.make_requests(7) != wl.make_requests(8)
    first, second = (result_of(run_bench("curve_requests", seed=7)) for _ in range(2))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["metrics"]["ok_ratio"]["value"] == second["metrics"]["ok_ratio"]["value"]
    # the 150-photon cap rejects part of the stream; that is reported, not hidden
    assert first["failed"] > 0


def test_refuses_a_tree_without_sources(tmp_path):
    proc = run_bench("verify_all", cwd=copy_tree(tmp_path, with_sources=False))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_failing_sweep_call_fails_the_run(tmp_path):
    tree = copy_tree(tmp_path)
    with open(tree / "src" / "qsd" / "discrimination.py", "a") as handle:
        handle.write("\n\ndef four_mode_unambiguous(alpha):\n"
                     "    raise RuntimeError('injected')\n")
    proc = run_bench("curve_sweep", cwd=tree)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1


def test_only_capacity_errors_count_as_expected_failures():
    from qsd.fock import CapacityError

    def raising(exc):
        def main(argv):
            raise exc
        return main

    expected = (CapacityError,)
    assert child.call_main(lambda argv: 0, [], expected)[3] is None
    kinds = [child.call_main(main, [], expected)[3][0] for main in (
        raising(CapacityError("cap")), raising(TypeError("bug")),
        raising(SystemExit(2)), lambda argv: 1)]
    assert kinds == ["error", "wrong", "wrong", "wrong"]
    assert child.call_main(raising(CapacityError("cap")), [])[3][0] == "wrong"


def test_checks_accept_12_digit_agreement_only():
    assert wl.same_to_12_digits(0.123456789012, 0.123456789012)
    assert wl.same_to_12_digits(0.123456789013, 0.123456789012)
    assert not wl.same_to_12_digits(0.123456789015, 0.123456789012)
    assert not wl.same_to_12_digits(1e-17, 0.0)
    request = wl.Request("p_corr", "three_mode", "0.000", "1.000", 2)
    good = "alpha_abs,p_corr_pure,p_corr_mixed\n0,0.25,0.25\n1,0.9,0.8\n"
    assert wl.check_request(request, good) is None
    assert wl.check_request(request, good.replace("0.8\n", "0.2\n")) is not None
    assert wl.check_request(request, good.replace("0.8\n", "nan\n")) is not None


def test_compare_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "same"
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
