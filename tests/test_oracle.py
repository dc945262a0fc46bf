import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import fock, oracle, phase_rand, symmetric
from qsd.phase_rand import CoherentStateVector
from qsd.symmetric import SymmetricFamilySpec


def projector(v):
    return np.outer(v, v.conj())


class TestSrm:
    def test_orthogonal_states_resolve_perfectly(self):
        states = [np.eye(3, dtype=complex)[i] for i in range(3)]
        povm, success = oracle.srm(states, [1 / 3] * 3)
        assert success == pytest.approx(1.0, abs=1e-12)
        povm.validate()

    def test_qutrit_family(self):
        vectors = symmetric.FAMILIES["three_mode"].unit_vectors()
        povm, success = oracle.srm(vectors, [0.25] * 4)
        assert success == pytest.approx(0.75, abs=1e-10)
        povm.validate()

    @pytest.mark.parametrize("priors", ([1.5, -0.5], [math.nan, 1.0]))
    def test_negative_or_nan_prior_rejected(self, priors):
        # [1.5, -0.5] sums to 1; it gave success 4.0 with a negative element
        states = [np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)]
        with pytest.raises(ValueError, match="priors"):
            oracle.srm(states, priors)

    def test_ququart_family(self):
        vectors = symmetric.FAMILIES["four_mode"].unit_vectors()
        _povm, success = oracle.srm(vectors, [0.25] * 4)
        assert success == pytest.approx(1.0, abs=1e-12)

    def test_matches_gram_eigenvalue_route(self):
        # every input the Gram route accepts: the coherent families' circulant
        # blocks and the two fixed families (qutrit and ququart)
        families = [
            symmetric.subspace_states(SymmetricFamilySpec(tag, 0.8), n)
            for tag in disc.COHERENT_FAMILIES
            for n in range(13)
        ]
        families += [
            symmetric.FAMILIES[tag].unit_vectors() for tag in ("three_mode", "four_mode")
        ]
        for states in families:
            gram = symmetric.gram_matrix(states)
            _povm, success = oracle.srm(states, [1.0 / len(states)] * len(states))
            assert success == pytest.approx(
                symmetric.srm_success_from_gram(gram), abs=1e-10
            )

    def test_povm_sums_to_support_projector(self):
        spec = SymmetricFamilySpec("phase_encoded", 0.7)
        states = symmetric.subspace_states(spec, 2)  # rank-deficient family
        povm, _success = oracle.srm(states, [0.25] * 4)
        worst_negative, defect = povm.validate()
        assert worst_negative > -1e-9
        assert defect < 1e-9

    def test_equiprobable_success_at_least_guessing(self):
        rng = np.random.default_rng(2)
        states = []
        for _ in range(4):
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            states.append(v / np.linalg.norm(v))
        _povm, success = oracle.srm(states, [0.25] * 4)
        assert success >= 0.25 - 1e-12

    def test_validates_priors_and_traces(self):
        v = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            oracle.srm([v, v], [0.5, 0.6])
        with pytest.raises(ValueError):
            oracle.srm([2.0 * projector(v)], [1.0])


class TestHelstromTwo:
    def test_identical_states_guess_the_likelier(self):
        rho = np.diag([0.4, 0.6]).astype(complex)
        for p0, expected in [(0.5, 0.5), (0.3, 0.7), (0.8, 0.8)]:
            _povm, p_corr = oracle.helstrom_two(rho, rho, p0)
            assert p_corr == pytest.approx(expected, abs=1e-12)

    def test_two_mode_mixed_against_closed_form(self):
        spec = SymmetricFamilySpec("two_mode", 0.7)
        n_max = phase_rand.truncation_photon_number(spec.mean_photons, 1e-12)
        rho0 = phase_rand.mixed_state_matrix(spec, "0", n_max)
        rho1 = phase_rand.mixed_state_matrix(spec, "1", n_max)
        povm, p_corr = oracle.helstrom_two(rho0, rho1, 0.5)
        assert p_corr == pytest.approx(1.0 - math.exp(-0.98) / 2.0, abs=1e-8)
        povm.validate()

    def test_beam_split_operator_structure(self):
        # after the splitter the states live on |N,0> and |0,N|; outcome 0
        # projects onto the former and takes the vacuum when p0 > p1
        amp = math.sqrt(2.0) * 0.6
        n_max = phase_rand.truncation_photon_number(amp**2, 1e-12)
        rho0 = phase_rand.phase_randomized_state(CoherentStateVector((amp, 0.0)), n_max)
        rho1 = phase_rand.phase_randomized_state(CoherentStateVector((0.0, amp)), n_max)
        povm, _p = oracle.helstrom_two(rho0, rho1, 0.7)
        pi0, pi1 = povm.elements
        assert pi0[0, 0].real == pytest.approx(1.0, abs=1e-9)  # vacuum to outcome 0
        assert pi1[0, 0].real == pytest.approx(0.0, abs=1e-9)
        # both elements are diagonal in this embedding
        assert np.max(np.abs(pi0 - np.diag(np.diag(pi0)))) < 1e-9
        povm.validate()

    def test_prior_domain(self):
        rho = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(ValueError):
            oracle.helstrom_two(rho, rho, 0.0)

    def test_beats_or_matches_srm(self):
        spec = SymmetricFamilySpec("two_mode", 0.5)
        n_max = phase_rand.truncation_photon_number(spec.mean_photons, 1e-12)
        rho0 = phase_rand.mixed_state_matrix(spec, "0", n_max)
        rho1 = phase_rand.mixed_state_matrix(spec, "1", n_max)
        for p0 in (0.5, 0.35):
            _sp, srm_success = oracle.srm([rho0, rho1], [p0, 1 - p0])
            _hp, hel_success = oracle.helstrom_two(rho0, rho1, p0)
            assert hel_success >= srm_success - 1e-9


class TestSpanReduction:
    def test_orthonormal_output(self):
        rng = np.random.default_rng(4)
        vectors = [rng.normal(size=20) + 1j * rng.normal(size=20) for _ in range(4)]
        basis = oracle.span_orthonormal_basis(vectors)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(4)) < 1e-12

    def test_rank_detection(self):
        v1 = np.array([1.0, 0.0, 0.0], dtype=complex)
        v2 = np.array([0.0, 1.0, 0.0], dtype=complex)
        basis = oracle.span_orthonormal_basis([v1, v2, v1 + v2, 2.0 * v1])
        assert basis.shape == (3, 2)

    def test_reduced_srm_equals_dense(self):
        # block_srm runs only span-reduced SRMs: this ties them to the dense one
        for tag in ("two_mode", "three_mode", "four_mode", "phase_encoded"):
            spec = SymmetricFamilySpec(tag, 0.9)
            for photons in range(0, 7):
                states = symmetric.subspace_states(spec, photons)
                _p, dense = oracle.srm(states, [1.0 / len(states)] * len(states))
                reduced = oracle.srm_success_pure(states)
                assert reduced == pytest.approx(dense, abs=1e-11)


class TestBlockSrm:
    def test_single_block_is_plain_srm(self):
        vectors = symmetric.FAMILIES["three_mode"].unit_vectors()
        assert oracle.block_srm([vectors], [1.0]) == pytest.approx(0.75, abs=1e-10)

    def test_four_mode_closed_form(self):
        for alpha in (0.3, 0.7):
            spec = SymmetricFamilySpec("four_mode", alpha)
            weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-12)
            value = oracle.block_srm(blocks, weights)
            assert value == pytest.approx(disc.four_mode_mixed_pcorr(alpha), abs=1e-8)

    def test_block_equals_whole_matrix(self):
        for tag in ("two_mode", "three_mode", "phase_encoded"):
            spec = SymmetricFamilySpec(tag, 1.0)
            weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-12)
            block_value = oracle.block_srm(blocks, weights)
            _povm, whole_value = oracle.whole_matrix_srm(blocks, weights)
            assert abs(block_value - whole_value) < 1e-9

    def test_weight_validation(self):
        vectors = symmetric.FAMILIES["three_mode"].unit_vectors()
        with pytest.raises(ValueError):
            oracle.block_srm([vectors], [1.5])
        with pytest.raises(ValueError):
            oracle.block_srm([vectors], [0.5, 0.5])

    def test_nan_weight_rejected(self):
        vectors = symmetric.FAMILIES["three_mode"].unit_vectors()
        with pytest.raises(ValueError):
            oracle.block_srm([vectors], [math.nan])


class TestWholeMatrixSrm:
    def test_matches_literal_direct_sum_embedding(self):
        # cross-validate the span embedding against the explicit subspace
        # embedding, which is small enough to build densely for two modes
        spec = SymmetricFamilySpec("two_mode", 0.5)
        weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-12)
        _povm, span_value = oracle.whole_matrix_srm(blocks, weights)

        n_max = len(weights) - 1
        rho0 = phase_rand.mixed_state_matrix(spec, "0", n_max)
        rho1 = phase_rand.mixed_state_matrix(spec, "1", n_max)
        scale = weights.sum()
        _p, literal_value = oracle.srm([rho0 / scale, rho1 / scale], [0.5, 0.5])
        assert span_value == pytest.approx(literal_value, abs=1e-10)

    def test_povm_validates(self):
        # completeness of the deep-tail POVM is limited by eps * kappa, with
        # kappa ~ 1e10 at the support's relative cutoff 1e-10: the defect sits
        # on near-cutoff eigendirections holding < 1e-9 of the mass
        spec = SymmetricFamilySpec("three_mode", 0.6)
        weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-10)
        povm, _value = oracle.whole_matrix_srm(blocks, weights)
        povm.validate(psd_tol=1e-5, sum_tol=1e-5)

    def test_povm_validates_strictly_at_moderate_conditioning(self):
        spec = SymmetricFamilySpec("three_mode", 0.6)
        weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-4)
        povm, _value = oracle.whole_matrix_srm(blocks, weights)
        povm.validate()


    @pytest.mark.parametrize("tag", disc.COHERENT_FAMILIES)
    def test_states_are_the_literal_direct_sum(self, monkeypatch, tag):
        # each state is sum_N p_N |c_N><c_N| in span coordinates, embedded
        # block by block and normalized to unit trace
        seen = []
        real = oracle.srm
        monkeypatch.setattr(oracle, "srm", lambda rhos, p: seen.append(rhos) or real(rhos, p))
        for alpha in (0.3, 0.7, 1.2):
            weights, blocks = phase_rand.subspace_state_blocks(SymmetricFamilySpec(tag, alpha))
            oracle.whole_matrix_srm(blocks, weights)
            bases = [oracle.span_orthonormal_basis(block) for block in blocks]
            for i, rho in enumerate(seen.pop()):
                expected = np.zeros_like(rho)
                offset = 0
                for w, basis, block in zip(weights, bases, blocks):
                    c = basis.conj().T @ block[i]
                    end = offset + len(c)
                    expected[offset:end, offset:end] = w * np.outer(c, c.conj())
                    offset = end
                assert np.array_equal(rho, expected / np.trace(expected).real)


class TestPhaseAverage:
    def test_shares_no_amplitude_code_with_the_direct_sum(self, monkeypatch):
        state = CoherentStateVector((0.7, 0.7j))
        expected = oracle.phase_average(state, 4)

        def refuse(*_args):
            raise AssertionError("phase_average read the direct sum's amplitudes")

        for module, name in ((fock, "subspace_amplitudes"), (fock, "log_factorials"),
                             (phase_rand, "subspace_component"), (phase_rand, "poisson_weights")):
            monkeypatch.setattr(module, name, refuse)
        assert np.array_equal(oracle.phase_average(state, 4), expected)

    def test_large_occupations_give_the_poisson_diagonal(self):
        average = oracle.phase_average(CoherentStateVector((cmath.rect(3.0, 0.4),)), 60)
        diagonal = np.diag(average)
        for n, entry in enumerate(diagonal):
            expected = math.exp(-9.0 + n * math.log(9.0) - math.lgamma(n + 1))
            assert entry.real == pytest.approx(expected, rel=1e-12)
        assert np.max(np.abs(average - np.diag(diagonal))) < 1e-14

    def test_vacuum_at_zero_truncation(self):
        average = oracle.phase_average(CoherentStateVector((0.5, 1.0)), 0)
        assert average.shape == (1, 1)
        assert average[0, 0] == pytest.approx(math.exp(-1.25), abs=1e-15)

    def test_negative_truncation_refused(self):
        with pytest.raises(ValueError, match="negative"):
            oracle.phase_average(CoherentStateVector((0.5,)), -1)

    def test_dimension_cap_refused_before_allocating(self):
        # 4 modes at N <= 30 span 46,376 kets: a 34 GB average
        tracemalloc.start()
        try:
            with pytest.raises(fock.CapacityError, match="46376"):
                oracle.phase_average(CoherentStateVector((0.1, 0.1, 0.1, 0.1)), 30)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_underflowing_vacuum_amplitude_refused(self):
        # e^(-|a|^2/2) of |a| = 60 is 0.0, which would zero every amplitude
        with pytest.raises(fock.CapacityError, match="underflows"):
            oracle.phase_average(CoherentStateVector((60.0,)), 2)


class TestVerifyAppendixB:
    def test_equal_priors_srm_is_optimal(self):
        report = oracle.verify_appendix_b(0.5, 0.5)
        assert abs(report.success_gap) < 1e-9
        assert report.helstrom_success == pytest.approx(
            disc.two_mode_mixed_pcorr(0.5, 0.5), abs=1e-8
        )
        assert report.off_vacuum_distance < 1e-9
        assert report.vacuum_split[0] == pytest.approx(0.5, abs=1e-9)

    def test_unequal_priors_differ_only_on_vacuum(self):
        report = oracle.verify_appendix_b(0.5, 0.3)
        # operators agree away from the vacuum for every prior
        assert report.off_vacuum_distance < 1e-9
        # the square-root measurement shares the vacuum as (p0, p1)
        assert report.vacuum_split[0] == pytest.approx(0.3, abs=1e-9)
        assert report.vacuum_split[1] == pytest.approx(0.7, abs=1e-9)
        # Helstrom hands the vacuum to the likelier outcome and wins:
        # its success is the closed form, the SRM's follows from its own
        # vacuum split and is strictly smaller off the symmetric point
        assert report.helstrom_success == pytest.approx(
            disc.two_mode_mixed_pcorr(0.5, 0.3), abs=1e-8
        )
        srm_expected = 1.0 - 2.0 * 0.3 * 0.7 * math.exp(-2.0 * 0.25)
        assert report.srm_success == pytest.approx(srm_expected, abs=1e-9)
        assert report.success_gap < 0.0

    @pytest.mark.parametrize("p0", (0.5, 0.3))
    def test_loose_tail_tol_is_renormalized(self, p0):
        # the truncated states keep mass 1 - tail, near 1e-6 here; the SRM
        # takes unit-trace states, so they are renormalized first
        report = oracle.verify_appendix_b(0.8, p0, 1e-6)
        assert abs(report.helstrom_success - disc.two_mode_mixed_pcorr(0.8, p0)) < 1e-7
        assert report.off_vacuum_distance < 1e-9

    def test_zero_amplitude_reduces_to_guessing(self):
        report = oracle.verify_appendix_b(0.0, 0.3)
        assert report.helstrom_success == pytest.approx(0.7, abs=1e-12)


EMPTY_INPUTS = {
    "gram_matrix": (lambda: symmetric.gram_matrix([]), "no states"),
    "circulant_eigenvalues": (
        lambda: symmetric.circulant_eigenvalues(np.zeros((0, 0))), "empty Gram matrix"
    ),
    "srm_success_from_gram": (
        lambda: symmetric.srm_success_from_gram(np.zeros((0, 0))), "empty Gram matrix"
    ),
    "whole_matrix_srm": (lambda: oracle.whole_matrix_srm([], []), "no photon-number blocks"),
    "block_srm": (lambda: oracle.block_srm([], []), "no photon-number blocks"),
}


@pytest.mark.parametrize("call,names", EMPTY_INPUTS.values(), ids=EMPTY_INPUTS)
def test_empty_input_is_refused_in_one_line(call, names):
    with pytest.raises(ValueError, match=names) as info:
        call()
    assert "\n" not in str(info.value)
