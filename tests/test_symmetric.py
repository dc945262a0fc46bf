import math

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import fock, symmetric
from qsd.symmetric import SymmetricFamilySpec

COHERENT_TAGS = ("two_mode", "three_mode", "four_mode", "phase_encoded")


class TestFamilySpec:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            SymmetricFamilySpec("five_mode", 1.0)

    def test_negative_amplitude(self):
        with pytest.raises(ValueError):
            SymmetricFamilySpec("two_mode", -0.1)

    def test_state_counts(self):
        assert SymmetricFamilySpec("two_mode", 1.0).n_states == 2
        for tag in ("three_mode", "four_mode", "phase_encoded", "qutrit", "ququart"):
            assert SymmetricFamilySpec(tag, 1.0).n_states == 4

    def test_amplitude_vectors_match_labels(self):
        spec = SymmetricFamilySpec("three_mode", 0.8)
        vectors = spec.amplitude_vectors()
        a = 0.8
        assert np.allclose(vectors[0], [a, a, a])
        assert np.allclose(vectors[1], [a, a, -a])
        assert np.allclose(vectors[2], [a, -a, -a])
        assert np.allclose(vectors[3], [a, -a, a])

    def test_phase_encoded_vectors(self):
        spec = SymmetricFamilySpec("phase_encoded", 0.5)
        vectors = spec.amplitude_vectors()
        assert np.allclose(vectors[1], [0.5, 0.5j])
        assert np.allclose(vectors[3], [0.5, -0.5j])

    def test_fixed_families_are_normalized(self):
        for tag in ("qutrit", "ququart"):
            for v in SymmetricFamilySpec(tag).fixed_state_vectors():
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_ququart_states_are_orthonormal(self):
        vectors = SymmetricFamilySpec("ququart").fixed_state_vectors()
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        assert np.linalg.norm(gram - np.eye(4)) < 1e-15


class TestSubspaceStates:
    def test_vacuum_states_identical(self):
        spec = SymmetricFamilySpec("three_mode", 1.3)
        states = symmetric.subspace_states(spec, 0)
        assert len(states) == 4
        for s in states:
            assert np.allclose(s, [1.0])

    def test_three_mode_single_photon_overlap(self):
        spec = SymmetricFamilySpec("three_mode", 0.7)
        states = symmetric.subspace_states(spec, 1)
        assert np.vdot(states[0], states[1]) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_four_mode_two_photon_orthogonality(self):
        spec = SymmetricFamilySpec("four_mode", 0.9)
        states = symmetric.subspace_states(spec, 2)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(states[i], states[j])) < 1e-14

    def test_rejects_fixed_families(self):
        with pytest.raises(ValueError):
            symmetric.subspace_states(SymmetricFamilySpec("qutrit"), 1)

    @pytest.mark.parametrize("tag", COHERENT_TAGS)
    def test_matches_coherent_amplitude_route(self, tag):
        # the N-photon component of each coherent state, normalized, must
        # reproduce the phase-table construction
        spec = SymmetricFamilySpec(tag, 0.8)
        for photons in range(0, 7):
            basis = fock.enumerate_subspace(spec.modes, photons)
            states = symmetric.subspace_states(spec, photons)
            for k, alphas in enumerate(spec.amplitude_vectors()):
                vec = fock.subspace_amplitudes(alphas, basis)
                vec = vec / np.linalg.norm(vec)
                assert np.max(np.abs(vec - states[k])) < 1e-12

    def test_normalized(self):
        spec = SymmetricFamilySpec("phase_encoded", 1.1)
        for photons in (0, 1, 5, 12):
            for s in symmetric.subspace_states(spec, photons):
                assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-13)


class TestGramMatrix:
    def test_identical_states_all_ones(self):
        v = np.array([1.0, 0.0], dtype=complex)
        gram = symmetric.gram_matrix([v, v, v])
        assert np.allclose(gram.entries, np.ones((3, 3)))
        assert gram.circulant

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symmetric.gram_matrix([np.ones(2) / math.sqrt(2), np.ones(3) / math.sqrt(3)])

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            symmetric.gram_matrix([np.array([2.0, 0.0]), np.array([0.0, 1.0])])

    def test_circulant_pattern_exact(self):
        spec = SymmetricFamilySpec("phase_encoded", 0.9)
        gram = symmetric.gram_matrix(symmetric.subspace_states(spec, 3))
        assert gram.circulant
        row = gram.generator_row
        for i in range(4):
            for k in range(4):
                assert gram.entries[i, k] == row[(k - i) % 4]

    def test_non_circulant_detected(self):
        rng = np.random.default_rng(0)
        states = []
        for _ in range(3):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            states.append(v / np.linalg.norm(v))
        gram = symmetric.gram_matrix(states)
        assert not gram.circulant
        assert gram.generator_row is None

    def test_hermitian_unit_diagonal(self):
        spec = SymmetricFamilySpec("three_mode", 1.0)
        gram = symmetric.gram_matrix(symmetric.subspace_states(spec, 4))
        assert np.linalg.norm(gram.entries - gram.entries.conj().T) < 1e-14
        assert np.allclose(np.diag(gram.entries), 1.0)


class TestCirculantEigenvalues:
    def test_identity_gram(self):
        gram = symmetric.gram_matrix([np.eye(4, dtype=complex)[i] for i in range(4)])
        assert np.allclose(symmetric.circulant_eigenvalues(gram), np.ones(4))

    def test_dft_order_for_complex_generator(self):
        # row (1, F, G, F*) diagonalises to
        # (1+G+2ReF, 1-G-2ImF, 1+G-2ReF, 1-G+2ImF) in DFT index order
        spec = SymmetricFamilySpec("phase_encoded", 0.9)
        for photons in (3, 4, 5):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, photons))
            f = gram.generator_row[1]
            g = gram.generator_row[2].real
            expected = np.array(
                [
                    1.0 + g + 2.0 * f.real,
                    1.0 - g - 2.0 * f.imag,
                    1.0 + g - 2.0 * f.real,
                    1.0 - g + 2.0 * f.imag,
                ]
            )
            lam = symmetric.circulant_eigenvalues(gram)
            assert np.max(np.abs(lam - expected)) < 1e-12

    def test_three_mode_two_photon_values(self):
        spec = SymmetricFamilySpec("three_mode", 1.0)
        gram = symmetric.gram_matrix(symmetric.subspace_states(spec, 2))
        lam = np.sort(symmetric.circulant_eigenvalues(gram))[::-1]
        # frozen from the dense eigensolver on the explicit 4x4 matrix
        expected = np.sort(np.linalg.eigvalsh(gram.entries))[::-1]
        assert np.max(np.abs(lam - expected)) < 1e-12
        assert lam[0] == pytest.approx(1.0 + 3.0 / 9.0, abs=1e-12)
        assert np.allclose(lam[1:], 1.0 - 1.0 / 9.0, atol=1e-12)

    def test_rejects_non_circulant(self):
        rng = np.random.default_rng(1)
        states = []
        for _ in range(3):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            states.append(v / np.linalg.norm(v))
        gram = symmetric.gram_matrix(states)
        with pytest.raises(ValueError):
            symmetric.circulant_eigenvalues(gram)

    @pytest.mark.parametrize("tag", COHERENT_TAGS)
    def test_agrees_with_jacobi_eigensolver(self, tag):
        spec = SymmetricFamilySpec(tag, 1.0)
        for photons in range(0, 21):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, photons))
            dft = np.sort(symmetric.circulant_eigenvalues(gram))
            dense = np.sort(fock.hermitian_eig(gram.entries).eigenvalues)
            assert np.max(np.abs(dft - dense)) < 1e-10


class TestSrmSuccessFromGram:
    def test_orthonormal_family(self):
        gram = symmetric.gram_matrix([np.eye(4, dtype=complex)[i] for i in range(4)])
        assert symmetric.srm_success_from_gram(gram) == pytest.approx(1.0, abs=1e-14)

    def test_qutrit_family(self):
        vectors = SymmetricFamilySpec("qutrit").fixed_state_vectors()
        gram = symmetric.gram_matrix(vectors)
        assert symmetric.srm_success_from_gram(gram) == pytest.approx(0.75, abs=1e-12)

    def test_three_mode_single_photon(self):
        spec = SymmetricFamilySpec("three_mode", 0.6)
        gram = symmetric.gram_matrix(symmetric.subspace_states(spec, 1))
        assert symmetric.srm_success_from_gram(gram) == pytest.approx(0.75, abs=1e-12)

    def test_non_circulant_path(self):
        rng = np.random.default_rng(5)
        states = []
        for _ in range(3):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            states.append(v / np.linalg.norm(v))
        gram = symmetric.gram_matrix(states)
        value = symmetric.srm_success_from_gram(gram)
        lam = np.clip(np.linalg.eigvalsh(gram.entries), 0.0, None)
        expected = (np.sqrt(lam).sum() / 3.0) ** 2
        assert value == pytest.approx(expected, abs=1e-10)


class TestClosedFormOverlaps:
    def test_three_mode_f_and_g(self):
        spec = SymmetricFamilySpec("three_mode", 0.9)
        for photons in range(0, 31):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, photons))
            f = 3.0**-photons
            g = f if photons % 2 == 0 else -f
            assert abs(gram.entries[0, 1] - f) < 1e-12
            assert abs(gram.entries[0, 2] - g) < 1e-12
            assert abs(gram.entries[0, 3] - f) < 1e-12

    def test_four_mode_offdiagonal_zero(self):
        spec = SymmetricFamilySpec("four_mode", 1.2)
        for photons in range(1, 21):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, photons))
            off = gram.entries - np.eye(4)
            assert np.max(np.abs(off)) < 1e-12

    def test_phase_encoded_polar_form(self):
        spec = SymmetricFamilySpec("phase_encoded", 0.8)
        for photons in range(1, 25):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, photons))
            f = 2.0 ** (-photons / 2.0) * np.exp(1j * photons * np.pi / 4.0)
            assert abs(gram.entries[0, 1] - f) < 1e-12
            assert abs(gram.entries[0, 2]) < 1e-12

    def test_normalization_sum(self):
        # sum over the subspace of 1/prod(n!) equals modes^N / N!
        for modes, photons in [(3, 10), (3, 30), (4, 12), (2, 25)]:
            basis = fock.enumerate_subspace(modes, photons)
            total = sum(
                math.exp(-sum(math.lgamma(n + 1) for n in occ))
                for occ in basis.index_list
            )
            expected = modes**photons / math.factorial(photons)
            assert total == pytest.approx(expected, rel=1e-12)

    def test_matches_phase_rand_closed_rows(self):
        for tag in COHERENT_TAGS:
            spec = SymmetricFamilySpec(tag, 1.0)
            for photons in range(0, 15):
                gram = symmetric.gram_matrix(symmetric.subspace_states(spec, photons))
                row = disc.subspace_overlaps(tag, photons)
                assert np.max(np.abs(gram.entries[0] - row)) < 1e-12
