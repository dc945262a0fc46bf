"""Names and behaviour the benchmark relies on must keep holding.

benchmarks/spans.py wraps each function listed in its LAYERS table by name,
and the benchmark's Gram-route check reads fields of phase_rand.decompose.
A rename or deletion would otherwise surface only when the traced run breaks.
The benchmark also counts a raised CapacityError as an expected refusal but
any non-zero exit code as a wrong answer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qsd import cli, phase_rand
from qsd.fock import CapacityError
from qsd.symmetric import SymmetricFamilySpec

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _layers() -> dict[str, tuple[str, ...]]:
    # spans.py imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
