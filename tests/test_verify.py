import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import oracle, phase_rand, verify
from qsd.discrimination import CrossoverReport
from qsd.symmetric import GramMatrix, SymmetricFamilySpec

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


def test_line_does_not_show_tol():
    assert verify.CheckResult("demo.check", True, 1.5e-11, 1e-10).line() == (
        "PASS  demo.check  1.500e-11"
    )
    assert verify.CheckResult("demo.check", False, 2.0, 1e-9).line() == (
        "FAIL  demo.check  2.000e+00"
    )


def test_every_check_records_tol_and_margin(all_results):
    for r in all_results:
        assert r.tol is not None and r.tol > 0.0, r.check_id
        assert r.margin == r.error / r.tol
        assert r.passed == (r.margin < 1.0)
    by_id = {r.check_id: r for r in all_results}
    assert by_id["families.closed_form_vs_block_srm"].tol == 1e-8
    booleans = by_id["circuit.fig3_identification_map"]
    assert (booleans.tol, booleans.error, booleans.margin) == (verify.BOOLEAN_TOL, 0.0, 0.0)


def test_hand_built_row_has_no_margin():
    assert verify.CheckResult("demo.check", True, 0.5).margin is None


@pytest.mark.parametrize("holds,line,margin", [
    (True, "PASS  demo.flag  0.000e+00", 0.0),
    (False, "FAIL  demo.flag  1.000e+00", 1.0),
])
def test_yes_no_checks_use_the_boolean_tol(holds, line, margin):
    result = verify._holds("demo.flag", holds)
    assert (result.line(), result.margin, result.passed) == (line, margin, holds)


def test_non_circulant_gram_fails_with_a_tol(monkeypatch):
    broken = GramMatrix(2, np.eye(2, dtype=complex), False, None)
    monkeypatch.setattr(verify.symmetric, "subspace_gram", lambda spec, n: broken)
    [result] = verify.suite_gram()
    assert result.line() == "FAIL  gram.circulant_structure.two_mode  1.000e+00"
    assert (result.tol, result.margin) == (verify.BOOLEAN_TOL, 1.0)


def test_missing_crossover_fails_with_a_tol(monkeypatch):
    monkeypatch.setattr(disc, "phase_encoded_ot_crossover", lambda: CrossoverReport(()))
    result = verify.suite_families()[-1]
    assert result.line() == "FAIL  families.phase_encoded_crossover  1.000e+00"
    assert (result.tol, result.margin) == (verify.BOOLEAN_TOL, 1.0)


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("appendix_z")


class DenseRows:
    """A dense matrix read as `verify._rank1_projector_defect` reads a block:
    its real diagonal, one column, and rows copied into the caller's buffer."""

    def __init__(self, u):
        self.u = u

    def diagonal(self):
        return self.u.diagonal().real

    def column(self, j):
        return self.u[:, j]

    def rows(self, start, out):
        out[...] = self.u[start : start + len(out)]
        return out


def dense_defect(u, p=1.0):
    return verify._rank1_projector_defect(DenseRows(u), p)


class TestRank1ProjectorDefect:
    @staticmethod
    def unit_vector(dim, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return w / np.linalg.norm(w)

    def test_zero_on_rank1_projectors(self):
        for seed, dim in enumerate((1, 2, 5, 40)):
            w = self.unit_vector(dim, seed)
            assert dense_defect(np.outer(w, w.conj())) < 1e-14
            assert verify._rank1_projector_defect(phase_rand.RankOneBlock(w, 0.3), 0.3) < 1e-14

    def test_rank2_projector(self):
        a, b = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 2)))[0].T
        u = (np.outer(a, a) + np.outer(b, b)).astype(complex)
        assert dense_defect(u) > 1e-3

    def test_scaled_projector(self):
        # exactly | ||w||^2 - 1 | = 1e-3 up to rounding: far above the 1e-10 tolerance
        w = self.unit_vector(7, 11)
        defect = dense_defect(1.001 * np.outer(w, w.conj()))
        assert defect == pytest.approx(1e-3, rel=1e-9)

    def test_non_psd_with_unit_trace_and_norm(self):
        u = np.diag([2.0, 2.0, -1.0]).astype(complex) / 3.0
        assert np.trace(u).real == pytest.approx(1.0)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert dense_defect(u) > 1e-3

    def test_zero_matrix_fails_without_raising(self):
        assert dense_defect(np.zeros((3, 3), complex)) > 1e-3

    @pytest.mark.parametrize("dim", [3, 64, 65, 200])
    @pytest.mark.parametrize("p", [0.37, np.float64(2.5e-3), 3.0])
    def test_renormalizing_in_chunks_is_bit_identical(self, dim, p):
        # u / p is complex / real: numpy computes it as (a + b*0) * (1/p)
        rng = np.random.default_rng(dim)
        w = self.unit_vector(dim, dim)
        for u in (p * np.outer(w, w.conj()), rng.normal(size=(dim, dim)) + 0j):
            renormalized = u / p
            assert np.array_equal(renormalized.view(float), u.view(float) * (1.0 / p))
            expected = dense_defect(renormalized)
            kept = u.copy()
            assert dense_defect(u, p) == expected
            assert np.array_equal(u, kept)  # read, never overwritten

    @pytest.mark.parametrize("dim", [3, 64, 65, 200])
    def test_chunked_norm_matches_whole_difference(self, dim):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        u = x @ x.conj().T
        j = int(np.argmax(u.diagonal().real))
        w = u[:, j] / np.sqrt(u[j, j].real)
        expected = np.linalg.norm(u - np.outer(w, w.conj()))
        expected += abs(np.vdot(w, w).real - 1.0)
        assert dense_defect(u) == pytest.approx(expected, rel=1e-12)


def test_full_suite_matches_reference_ids(all_results):
    assert [r.check_id for r in all_results] == REFERENCE_IDS.read_text().split()
    assert len(all_results) == 39 and all(r.passed for r in all_results)


BLOCK_SRM_INPUTS = [
    (tag, alpha) for tag in disc.COHERENT_FAMILIES for alpha in (0.3, 0.7, 1.2)
]


def test_block_srm_oracle_runs_once_per_block(monkeypatch):
    # families and appendix_a share the 12 (family, |alpha|) block-SRM values,
    # and those share each (family, N) block's SRM: it does not depend on |alpha|
    calls = []
    real = oracle.srm_success_pure
    monkeypatch.setattr(oracle, "srm_success_pure", lambda v: calls.append(1) or real(v))
    verify._block_srm_success.cache_clear()
    verify._block_srm_term.cache_clear()
    verify.suite_families()
    verify.suite_appendix_a()
    blocks = {
        (tag, n)
        for tag, alpha in BLOCK_SRM_INPUTS
        for n in range(
            len(phase_rand.poisson_series(SymmetricFamilySpec(tag, alpha).mean_photons, 1e-12))
        )
    }
    assert len(calls) == len(blocks) == 101


@pytest.mark.parametrize("tag,alpha", BLOCK_SRM_INPUTS)
def test_block_srm_success_is_bit_identical_to_block_srm(tag, alpha):
    spec = SymmetricFamilySpec(tag, alpha)
    blocks_first = phase_rand.subspace_state_blocks(spec)[::-1]
    assert verify._block_srm_success(tag, alpha) == oracle.block_srm(*blocks_first)


def test_block_purity_holds_no_whole_block():
    # four_mode at |alpha| = 0.7 runs to N = 16: the largest block is 969 x 969
    # complex (15 MB).  The check holds one 64-row chunk of it (1 MB) and
    # row-sized temporaries; 4 MB leaves no room for a whole block.
    spec = SymmetricFamilySpec("four_mode", 0.7)
    tracemalloc.start()
    try:
        defect = verify._block_purity_defect(spec)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert defect < 1e-10
    assert peak < 4e6


def dense_block_defect(u, p):
    """The defect as computed on a whole block held in memory, overwriting u."""
    scale = 1.0 / p
    diagonal = u.diagonal().real * scale
    j = int(np.argmax(diagonal))
    pivot = float(diagonal[j])
    w = u[:, j] * scale / math.sqrt(pivot) if pivot > 0.0 else np.zeros(len(u), complex)
    w_conj = w.conj()
    parts = u.view(np.float64)
    squared = 0.0
    for rows in range(0, len(w), 64):
        parts[rows : rows + 64] *= scale
        for sub in range(rows, min(rows + 64, len(w)), 16):
            u[sub : sub + 16] -= np.outer(w[sub : sub + 16], w_conj)
        chunk = u[rows : rows + 64]
        squared += float(np.vdot(chunk, chunk).real)
    return math.sqrt(squared) + abs(float(np.vdot(w, w).real) - 1.0)


@pytest.mark.parametrize("tag,alpha", BLOCK_SRM_INPUTS)
def test_streamed_purity_defect_is_bit_identical_to_whole_blocks(tag, alpha):
    # whole blocks up to N = 16, the largest `qsd verify all` reaches (969 x 969):
    # four_mode at |alpha| = 1.2 runs to N = 27, where one block is 4060 x 4060 (264 MB)
    spec = SymmetricFamilySpec(tag, alpha)
    n_max = phase_rand.truncation_photon_number(spec.mean_photons, 1e-10)
    weights = phase_rand.poisson_weights(spec.mean_photons, n_max)
    worst = 0.0
    for amplitudes in spec.amplitude_vectors():
        state = phase_rand.CoherentStateVector(tuple(amplitudes))
        for n, block in enumerate(phase_rand.randomized_blocks(state, min(n_max, 16))):
            expected = dense_block_defect(block, weights[n])
            streamed = phase_rand.RankOneBlock(phase_rand.subspace_component(state, n), weights[n])
            assert verify._rank1_projector_defect(streamed, weights[n]).hex() == expected.hex()
            worst = max(worst, expected)
    if n_max <= 16:
        assert verify._block_purity_defect(spec).hex() == worst.hex()
