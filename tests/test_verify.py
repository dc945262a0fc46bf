from pathlib import Path

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import fock, oracle, phase_rand, symmetric, verify
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
    line = verify.CheckResult("demo.check", 1.5e-11, 1e-10).line()
    assert line == "PASS  demo.check  1.500e-11"
    line = verify.CheckResult("demo.check", 2.0, 1e-9).line()
    assert line.startswith("FAIL  demo.check")


def test_line_does_not_show_tol():
    assert verify.CheckResult("demo.check", 1.5e-11, 1e-10).line() == (
        "PASS  demo.check  1.500e-11"
    )
    assert verify.CheckResult("demo.check", 2.0, 1e-9).line() == (
        "FAIL  demo.check  2.000e+00"
    )


@pytest.mark.parametrize("error", [1e-10, 2e-10, float("nan")])
def test_error_at_or_above_tol_fails(error):
    result = verify.CheckResult("demo.check", error, 1e-10)
    assert not result.passed and result.line().startswith("FAIL")


def test_every_check_records_tol_and_margin(all_results):
    for r in all_results:
        assert r.tol > 0.0, r.check_id
        assert r.margin == r.error / r.tol
        assert r.passed == (r.margin < 1.0)
    by_id = {r.check_id: r for r in all_results}
    assert by_id["families.closed_form_vs_block_srm"].tol == 1e-8
    purity = by_id["appendix_a.block_purity"]
    assert purity.tol == 1e-10 and purity.error < 1e-14
    booleans = by_id["circuit.fig3_identification_map"]
    assert (booleans.tol, booleans.error, booleans.margin) == (verify.BOOLEAN_TOL, 0.0, 0.0)


@pytest.mark.parametrize("suite", [verify.suite_fock, verify.suite_circuit])
def test_seeded_suites_repeat_exactly(suite):
    # the eigensolver and energy checks draw seeded inputs: a second run in
    # the same process reads the same errors
    first, second = suite(), suite()
    assert [(r.check_id, r.error) for r in first] == [(r.check_id, r.error) for r in second]


@pytest.mark.parametrize("holds,line,margin", [
    (True, "PASS  demo.flag  0.000e+00", 0.0),
    (False, "FAIL  demo.flag  1.000e+00", 1.0),
])
def test_yes_no_checks_use_the_boolean_tol(holds, line, margin):
    result = verify._holds("demo.flag", holds)
    assert (result.line(), result.margin, result.passed) == (line, margin, holds)


def test_non_circulant_gram_fails_with_a_tol(monkeypatch):
    # unit diagonal and PSD, but G_10 = 0.5 where the pattern of row 0 puts G_02 = 0
    broken = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]], dtype=complex)
    monkeypatch.setattr(verify.symmetric, "subspace_gram", lambda spec, n: broken)
    rows = verify.suite_gram()
    # every reference id of the suite stays, after the structure row
    gram_ids = [i for i in REFERENCE_IDS.read_text().split() if i.startswith("gram.")]
    assert [r.check_id for r in rows[1:]] == gram_ids
    assert [r.line() for r in rows[:3]] == [
        "FAIL  gram.circulant_structure.two_mode  1.000e+00",
        "FAIL  gram.dft_vs_dense_eigenvalues  1.000e+00",
        "FAIL  gram.closed_form_overlaps  inf",  # a 3 x 3 matrix for 2 and 4 states
    ]
    for result in rows[:2]:
        assert (result.tol, result.margin) == (verify.BOOLEAN_TOL, 1.0)
    assert rows[3].passed  # the multinomial sums read no Gram matrix


def test_closed_form_overlaps_compares_every_entry(monkeypatch):
    # moves one overlap off row 0; only the overlaps check reads |alpha| = 0.9
    # blocks, so the eigenvalue check before it sees the true matrices
    computed = symmetric.subspace_gram

    def moved(spec, photons):
        gram = np.array(computed(spec, photons))
        if spec.amplitude == 0.9:
            gram[1, 0] += 1e-9
        return gram

    monkeypatch.setattr(verify.symmetric, "subspace_gram", moved)
    by_id = {r.check_id: r for r in verify.suite_gram()}
    assert by_id["gram.dft_vs_dense_eigenvalues"].passed
    overlaps = by_id["gram.closed_form_overlaps"]
    assert not overlaps.passed and overlaps.error == pytest.approx(1e-9, rel=1e-3)


def test_missing_crossover_fails_with_a_tol(monkeypatch):
    monkeypatch.setattr(disc, "phase_encoded_ot_crossover", lambda: ())
    result = verify.suite_families()[-1]
    assert result.line() == "FAIL  families.phase_encoded_crossover  1.000e+00"
    assert (result.tol, result.margin) == (verify.BOOLEAN_TOL, 1.0)


def block_purity():
    [result] = [r for r in verify.suite_appendix_a() if r.check_id == "appendix_a.block_purity"]
    return result


def random_unit_component(state, photons):
    rng = np.random.default_rng(photons)
    dim = fock.subspace_dimension(state.modes, photons)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def shifted_poisson_weights(mean, n_max):
    return phase_rand.poisson_series(mean, n_max=n_max + 1)[1:]


def unaveraged_state(state, n_max):
    v = np.concatenate([
        fock.subspace_amplitudes(state.amplitudes, fock.enumerate_subspace(state.modes, n))
        for n in range(n_max + 1)
    ])
    return np.outer(v, v.conj())


@pytest.mark.parametrize("target,fault", [
    ("subspace_component", random_unit_component),
    ("poisson_weights", shifted_poisson_weights),
    ("phase_randomized_state", unaveraged_state),
])
def test_block_purity_fails_on_a_wrong_state(monkeypatch, target, fault):
    # a wrong N-photon component, a wrong Poisson weight, or coherences kept
    # between photon numbers: the phase average tells each from the direct sum
    monkeypatch.setattr(phase_rand, target, fault)
    result = block_purity()
    assert not result.passed and result.error > 0.1


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify.run_suite("appendix_z")


def test_run_suite_calls_the_suite_bound_in_the_module(monkeypatch):
    # a wrapper installed on the module, as the benchmark's span tracer does,
    # is what run_suite calls, for one suite and within "all"
    row = verify.CheckResult("circuit.stub", 0.0, 1.0)
    monkeypatch.setattr(verify, "suite_circuit", lambda: [row])
    assert verify.run_suite("circuit") == [row]
    assert verify.run_suite("all")[-1] == row


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
