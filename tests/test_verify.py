import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsd import oracle, verify
from qsd.symmetric import SymmetricFamilySpec

#: The check ids `qsd verify all` prints, in order, as the benchmark expects.
REFERENCE_IDS = Path(__file__).resolve().parents[1] / "benchmarks/reference/verify_checks.txt"


@pytest.fixture(scope="module")
def all_results():
    return verify.run_suite("all")


def test_all_suites_pass(all_results):
    results = all_results
    failed = [r.check_id for r in results if not r.passed]
    assert not failed, f"failing checks: {failed}"
    # every suite contributed at least one check
    prefixes = {r.check_id.split(".")[0] for r in results}
    assert prefixes == set(verify.SUITE_NAMES)


def test_report_line_format():
    line = verify.CheckResult("demo.check", True, 1.5e-11).line()
    assert line == "PASS  demo.check  1.500e-11"
    line = verify.CheckResult("demo.check", False, 2.0).line()
    assert line.startswith("FAIL  demo.check")


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("appendix_z")


class TestRank1ProjectorDefect:
    @staticmethod
    def unit_vector(dim, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return w / np.linalg.norm(w)

    def test_zero_on_rank1_projectors(self):
        for seed, dim in enumerate((1, 2, 5, 40)):
            w = self.unit_vector(dim, seed)
            assert verify._rank1_projector_defect(np.outer(w, w.conj())) < 1e-14

    def test_rank2_projector(self):
        a, b = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 2)))[0].T
        u = (np.outer(a, a) + np.outer(b, b)).astype(complex)
        assert verify._rank1_projector_defect(u) > 1e-3

    def test_scaled_projector(self):
        # exactly | ||w||^2 - 1 | = 1e-3 up to rounding: far above the 1e-10 tolerance
        w = self.unit_vector(7, 11)
        defect = verify._rank1_projector_defect(1.001 * np.outer(w, w.conj()))
        assert defect == pytest.approx(1e-3, rel=1e-9)

    def test_non_psd_with_unit_trace_and_norm(self):
        u = np.diag([2.0, 2.0, -1.0]).astype(complex) / 3.0
        assert np.trace(u).real == pytest.approx(1.0)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert verify._rank1_projector_defect(u) > 1e-3

    def test_zero_matrix_fails_without_raising(self):
        assert verify._rank1_projector_defect(np.zeros((3, 3), complex)) > 1e-3

    @pytest.mark.parametrize("dim", [3, 64, 65, 200])
    def test_chunked_norm_matches_whole_difference(self, dim):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        u = x @ x.conj().T
        j = int(np.argmax(u.diagonal().real))
        w = u[:, j] / np.sqrt(u[j, j].real)
        expected = np.linalg.norm(u - np.outer(w, w.conj()))
        expected += abs(np.vdot(w, w).real - 1.0)
        assert verify._rank1_projector_defect(u) == pytest.approx(expected, rel=1e-12)


def test_full_suite_matches_reference_ids(all_results):
    assert [r.check_id for r in all_results] == REFERENCE_IDS.read_text().split()
    assert len(all_results) == 39 and all(r.passed for r in all_results)


def test_block_srm_oracle_runs_once_per_input(monkeypatch):
    # families and appendix_a share the 12 (family, |alpha|) block-SRM values
    calls = []
    real = oracle.block_srm
    monkeypatch.setattr(oracle, "block_srm", lambda *a: calls.append(1) or real(*a))
    verify._block_srm_success.cache_clear()
    verify.suite_families()
    verify.suite_appendix_a()
    assert len(calls) == 12


def test_block_purity_holds_one_block_at_a_time():
    # four_mode at |alpha| = 0.7 runs to N = 16: the largest block is 969 x 969
    # complex (15 MB) and all blocks of one member take 44 MB.  Streaming holds
    # that one block and row-sized scratch; 20 MB leaves no room for a second.
    spec = SymmetricFamilySpec("four_mode", 0.7)
    tracemalloc.start()
    try:
        defect = verify._block_purity_defect(spec)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert defect < 1e-10
    assert peak < 20e6
