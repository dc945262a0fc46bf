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

    def test_nan_amplitude(self):
        with pytest.raises(ValueError):
            SymmetricFamilySpec("three_mode", math.nan)

    def test_state_counts(self):
        assert SymmetricFamilySpec("two_mode", 1.0).n_states == 2
        for tag in ("three_mode", "four_mode", "phase_encoded"):
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
        # the qutrit and ququart families
        for tag in ("three_mode", "four_mode"):
            for v in SymmetricFamilySpec(tag).unit_vectors():
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_ququart_states_are_orthonormal(self):
        vectors = SymmetricFamilySpec("four_mode").unit_vectors()
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        assert np.linalg.norm(gram - np.eye(4)) < 1e-15


class TestFamilyTable:
    """Every family is one row (a_0, S); these pin what the rows derive."""

    def test_orbits_are_the_exponent_tuples(self):
        expected = {
            "two_mode": ((0, 0), (0, 2)),
            "three_mode": ((0, 0, 0), (0, 0, 2), (0, 2, 2), (0, 2, 0)),
            "four_mode": ((0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0)),
            "phase_encoded": ((0, 0), (0, 1), (0, 2), (0, 3)),
        }
        assert tuple(symmetric.FAMILIES) == COHERENT_TAGS
        for tag, exponents in expected.items():
            spec = SymmetricFamilySpec(tag)
            assert spec.phase_exponents() == exponents
            assert (spec.n_states, spec.modes) == (len(exponents), len(exponents[0]))
            assert len(spec.labels) == spec.n_states

    def test_unit_vectors_are_the_fixed_sign_tables(self):
        qutrit = [(1, 1, 1), (1, 1, -1), (1, -1, -1), (1, -1, 1)]
        ququart = [(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (-1, 1, 1, 1)]
        for tag, signs, norm in (("three_mode", qutrit, np.sqrt(3)), ("four_mode", ququart, 2.0)):
            derived = SymmetricFamilySpec(tag, 0.7).unit_vectors()
            assert len(derived) == len(signs)
            for vec, sign in zip(derived, signs):
                literal = np.array(sign, dtype=np.complex128) / norm
                assert vec.dtype == literal.dtype
                assert vec.tobytes() == literal.tobytes()


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


class TestSubspaceMemo:
    """The N-photon states and Gram matrices are built once and shared."""

    def test_shared_arrays_are_read_only(self):
        states = symmetric.subspace_states(SymmetricFamilySpec("four_mode", 0.7), 3)
        with pytest.raises(ValueError):
            states[0][0] = 0.0
        with pytest.raises(ValueError):
            states[1] *= 2.0
        gram = symmetric.subspace_gram(SymmetricFamilySpec("four_mode", 0.7), 3)
        with pytest.raises(ValueError):
            gram.entries[0, 1] = 0.0
        with pytest.raises(ValueError):
            gram.generator_row[1] = 0.0

    def test_list_is_the_callers_own(self):
        spec = SymmetricFamilySpec("two_mode", 0.5)
        mine = symmetric.subspace_states(spec, 2)
        mine.reverse()
        mine.append(None)
        again = symmetric.subspace_states(spec, 2)
        assert len(again) == 2 and again[0] is mine[1]

    def test_memo_equals_a_fresh_build(self):
        # run the verify suites that read the memo, then rebuild every block
        from qsd import verify

        verify.run_suite("gram")
        verify.run_suite("families")
        build = symmetric._subspace_states.__wrapped__
        for tag in COHERENT_TAGS:
            spec = SymmetricFamilySpec(tag, 0.9)
            for photons in range(0, 31):
                shared = symmetric.subspace_states(spec, photons)
                fresh = build(spec.modes, spec.phase_exponents(), photons)
                assert len(shared) == len(fresh) == spec.n_states
                for a, b in zip(shared, fresh):
                    assert np.array_equal(a, b)
                gram = symmetric.subspace_gram(spec, photons).entries
                assert np.array_equal(gram, symmetric.gram_matrix(fresh).entries)

    @pytest.mark.parametrize("tag", COHERENT_TAGS)
    def test_states_do_not_depend_on_alpha(self, tag):
        for photons in (0, 1, 4, 9):
            low = symmetric.subspace_states(SymmetricFamilySpec(tag, 0.3), photons)
            high = symmetric.subspace_states(SymmetricFamilySpec(tag, 1.2), photons)
            assert all(a is b for a, b in zip(low, high))
            gram_low = symmetric.subspace_gram(SymmetricFamilySpec(tag, 0.3), photons)
            assert gram_low is symmetric.subspace_gram(SymmetricFamilySpec(tag, 1.2), photons)

    def test_argument_checks(self):
        for fn in (symmetric.subspace_states, symmetric.subspace_gram):
            with pytest.raises(ValueError):
                fn(SymmetricFamilySpec("qutrit"), 1)
            with pytest.raises(ValueError):
                fn(SymmetricFamilySpec("two_mode", 0.5), -1)


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
        vectors = SymmetricFamilySpec("three_mode").unit_vectors()
        gram = symmetric.gram_matrix(vectors)
        assert symmetric.srm_success_from_gram(gram) == pytest.approx(0.75, abs=1e-12)

    def test_three_mode_single_photon(self):
        spec = SymmetricFamilySpec("three_mode", 0.6)
        gram = symmetric.gram_matrix(symmetric.subspace_states(spec, 1))
        assert symmetric.srm_success_from_gram(gram) == pytest.approx(0.75, abs=1e-12)

    def test_non_circulant_path(self):
        """The eigenvalue formula holds for circulant Gram matrices only.

        For these three random states it would give 0.9461307, while the
        square-root measurement succeeds with 0.9461313 (`oracle.srm`).
        """
        rng = np.random.default_rng(5)
        states = []
        for _ in range(3):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            states.append(v / np.linalg.norm(v))
        gram = symmetric.gram_matrix(states)
        assert not gram.circulant
        with pytest.raises(ValueError, match="not circulant"):
            symmetric.srm_success_from_gram(gram)


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
