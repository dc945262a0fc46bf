"""Names and behaviour the benchmark relies on must keep holding.

benchmarks/spans.py wraps each function listed in its LAYERS table by name,
and the benchmark's Gram-route check reads fields of phase_rand.decompose.
A rename or deletion would otherwise surface only when the traced run breaks.
The benchmark also counts a raised CapacityError as an expected refusal but
any non-zero exit code as a wrong answer, and compares every curve_sweep
CSV with its stored reference.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qsd import cli, phase_rand
from qsd.fock import CapacityError
from qsd.symmetric import SymmetricFamilySpec

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@functools.lru_cache(maxsize=None)
def _benchmark_module(name: str):
    # spans.py and workloads.py import only the standard library, so each
    # loads on its own; dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _layers() -> dict[str, tuple[str, ...]]:
    return _benchmark_module("spans").LAYERS


@pytest.mark.parametrize("module", sorted(_layers()))
def test_layer_functions_resolve(module):
    namespace = importlib.import_module(f"qsd.{module}")
    missing = [
        name for name in _layers()[module]
        if not callable(getattr(namespace, name, None))
    ]
    assert missing == []


def test_decompose_exposes_gram_route_fields():
    series = phase_rand.decompose(SymmetricFamilySpec("three_mode", 0.7), 1e-12)
    assert len(series.weights) == len(series.per_n_gram) == series.n_max + 1


def test_photon_cap_raises_capacity_error(capsys):
    # mapping this refusal to an exit code would turn every capped
    # curve_requests request into a wrong answer; change the benchmark first
    with pytest.raises(CapacityError):
        cli.main(["curve", "--family", "three_mode", "--metric", "p_corr",
                  "--alpha", "0:10:3"])
    assert capsys.readouterr().out == ""


@functools.lru_cache(maxsize=None)
def _sweep_reference() -> dict[tuple[str, str], str]:
    return _benchmark_module("workloads").load_sweep_reference()


@pytest.mark.parametrize("metric, family", _benchmark_module("workloads").CURVE_PAIRS)
def test_sweep_matches_reference_byte_for_byte(capsys, metric, family):
    # the benchmark accepts 12-digit agreement; any change of a printed digit
    # (a 1-ulp drift in a delta_p_corr column can make one) fails here first
    workloads = _benchmark_module("workloads")
    assert cli.main(workloads.sweep_argv(metric, family)) == 0
    assert capsys.readouterr().out == _sweep_reference()[(metric, family)]
