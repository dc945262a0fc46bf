import math

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import fock, phase_rand, symmetric
from qsd.phase_rand import CoherentStateVector
from qsd.symmetric import SymmetricFamilySpec


def poisson_tail(mean, beyond):
    """Direct tail summation oracle (no clever cutoffs)."""
    total = 0.0
    for n in range(beyond + 1, beyond + 400):
        total += math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
    return total


class TestCoherentStateVector:
    def test_mean_photons(self):
        state = CoherentStateVector((1.0, -1.0j, 0.5))
        assert state.mean_photons == pytest.approx(2.25, abs=1e-12)

    def test_requires_modes(self):
        with pytest.raises(ValueError):
            CoherentStateVector(())


class TestTruncation:
    def test_zero_amplitude_single_block(self):
        assert phase_rand.truncation_photon_number(0.0, 1e-12) == 0

    def test_two_mode_half_alpha_tail(self):
        mean = 2 * 0.5**2
        n_max = phase_rand.truncation_photon_number(mean, 1e-10)
        assert poisson_tail(mean, n_max) < 1e-10
        assert poisson_tail(mean, n_max - 1) >= 1e-10  # minimality

    def test_capacity_cap(self):
        with pytest.raises(fock.CapacityError):
            phase_rand.truncation_photon_number(12.0, 1e-12, n_cap=5)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            phase_rand.truncation_photon_number(1.0, 0.0)

    def test_underflowing_mean_raises(self):
        # exp(-800) underflows to 0.0; the recurrence would return all zeros
        with pytest.raises(fock.CapacityError):
            phase_rand.poisson_weights(800.0, 900)

    def test_weights_formula(self):
        weights = phase_rand.poisson_weights(3.0, 20)
        for n, w in enumerate(weights):
            assert w == pytest.approx(
                math.exp(-3.0) * 3.0**n / math.factorial(n), rel=1e-13
            )


class TestDecompose:
    def test_vacuum_only_at_zero_amplitude(self):
        series = phase_rand.decompose(SymmetricFamilySpec("three_mode", 0.0), 1e-12)
        assert series.n_max == 0
        assert series.weights[0] == 1.0
        assert series.tail_mass == 0.0
        assert np.allclose(series.per_n_gram[0].entries, np.ones((4, 4)))

    def test_three_mode_weights(self):
        series = phase_rand.decompose(SymmetricFamilySpec("three_mode", 1.0), 1e-12)
        for n, w in enumerate(series.weights):
            assert w == pytest.approx(
                math.exp(-3.0) * 3.0**n / math.factorial(n), rel=1e-12
            )

    def test_mass_accounting(self):
        for tag in ("two_mode", "phase_encoded", "four_mode"):
            series = phase_rand.decompose(SymmetricFamilySpec(tag, 0.9), 1e-10)
            assert series.weights.sum() + series.tail_mass == pytest.approx(
                1.0, abs=1e-12
            )
            assert series.tail_mass < 1e-10

    def test_rejects_fixed_families(self):
        with pytest.raises(ValueError):
            phase_rand.decompose(SymmetricFamilySpec("qutrit"), 1e-10)

    def test_gram_rows_match_closed_forms(self):
        series = phase_rand.decompose(SymmetricFamilySpec("phase_encoded", 1.1), 1e-12)
        for n, gram in enumerate(series.per_n_gram):
            row = disc.subspace_overlaps("phase_encoded", n)
            assert np.max(np.abs(gram.entries[0] - row)) < 1e-12


class TestMixedStateMatrix:
    def test_entries_match_phase_average_formula(self):
        # brute-force expected entries: within each j+k = p+q block,
        # exp(-2w) (-1)^{b(k+q)} |alpha|^{j+k+p+q} / sqrt(j! k! p! q!)
        alpha = 0.6
        spec = SymmetricFamilySpec("two_mode", alpha)
        for b in (0, 1):
            rho = phase_rand.mixed_state_matrix(spec, str(b), n_max=6)
            for n, block in enumerate(rho.blocks):
                basis = fock.enumerate_subspace(2, n)
                for i, (j, k) in enumerate(basis.index_list):
                    for i2, (p, q) in enumerate(basis.index_list):
                        expected = (
                            math.exp(-2 * alpha**2)
                            * (-1.0) ** (b * (k + q))
                            * alpha ** (j + k + p + q)
                            / math.sqrt(
                                math.factorial(j)
                                * math.factorial(k)
                                * math.factorial(p)
                                * math.factorial(q)
                            )
                        )
                        assert block[i, i2] == pytest.approx(expected, abs=1e-14)

    def test_trace_is_retained_mass(self):
        spec = SymmetricFamilySpec("three_mode", 0.7)
        n_max = 12
        rho = phase_rand.mixed_state_matrix(spec, "00", n_max)
        tail = poisson_tail(spec.mean_photons, n_max)
        assert rho.trace() == pytest.approx(1.0 - tail, abs=1e-10)

    def test_zero_amplitude_vacuum_projector(self):
        spec = SymmetricFamilySpec("four_mode", 0.0)
        rho = phase_rand.mixed_state_matrix(spec, "00", 0)
        dense = rho.to_dense()
        assert dense.shape == (1, 1)
        assert dense[0, 0] == pytest.approx(1.0)

    def test_block_purity(self):
        spec = SymmetricFamilySpec("three_mode", 0.7)
        rho = phase_rand.mixed_state_matrix(spec, "01", 10)
        weights = phase_rand.poisson_weights(spec.mean_photons, 10)
        for p_n, block in zip(weights, rho.blocks):
            unit = block / p_n
            assert np.linalg.norm(unit @ unit - unit) < 1e-10
            assert np.trace(unit).real == pytest.approx(1.0, abs=1e-12)

    def test_dense_embedding_is_block_diagonal(self):
        spec = SymmetricFamilySpec("two_mode", 0.5)
        rho = phase_rand.mixed_state_matrix(spec, "0", 4)
        masked = rho.to_dense()
        offset = 0
        for block in rho.blocks:
            d = block.shape[0]
            masked[offset : offset + d, offset : offset + d] = 0.0
            offset += d
        # everything off the diagonal blocks must be exactly zero
        assert np.max(np.abs(masked)) == 0.0

    def test_unknown_label(self):
        spec = SymmetricFamilySpec("two_mode", 0.5)
        with pytest.raises(ValueError):
            phase_rand.mixed_state_matrix(spec, "2", 4)


class TestSymmetryUnitary:
    @pytest.mark.parametrize("tag", ("two_mode", "three_mode", "four_mode", "phase_encoded"))
    def test_power_is_identity(self, tag):
        order = 2 if tag == "two_mode" else 4
        for photons in range(0, 7):
            u = phase_rand.subspace_symmetry_unitary(tag, photons)
            power = np.linalg.matrix_power(u, order)
            assert np.linalg.norm(power - np.eye(u.shape[0])) < 1e-12

    def test_cycles_three_mode_states(self):
        spec = SymmetricFamilySpec("three_mode", 0.9)
        for photons in range(0, 7):
            u = phase_rand.subspace_symmetry_unitary("three_mode", photons)
            states = symmetric.subspace_states(spec, photons)
            for k in range(3):
                assert np.linalg.norm(u @ states[k] - states[k + 1]) < 1e-12

    def test_maps_density_blocks(self):
        spec = SymmetricFamilySpec("three_mode", 0.7)
        rho00 = phase_rand.mixed_state_matrix(spec, "00", 8)
        rho01 = phase_rand.mixed_state_matrix(spec, "01", 8)
        for n in range(9):
            u = phase_rand.subspace_symmetry_unitary("three_mode", n)
            mapped = u @ rho00.blocks[n] @ u.conj().T
            assert np.linalg.norm(mapped - rho01.blocks[n]) < 1e-10


class TestGenericCoherentPath:
    def test_matches_family_subspace_states(self):
        for tag in ("two_mode", "three_mode", "four_mode", "phase_encoded"):
            spec = SymmetricFamilySpec(tag, 0.8)
            for k, alphas in enumerate(spec.amplitude_vectors()):
                state = CoherentStateVector(tuple(alphas))
                weights = phase_rand.poisson_series(state.mean_photons, 1e-10)
                states = [
                    phase_rand._subspace_component(state, n) for n in range(len(weights))
                ]
                family_states = [
                    symmetric.subspace_states(spec, n)[k] for n in range(len(states))
                ]
                for mine, theirs in zip(states, family_states):
                    assert np.max(np.abs(mine - theirs)) < 1e-12

    def test_beam_split_states_are_number_diagonal(self):
        amp = math.sqrt(2.0) * 0.5
        rho = phase_rand.phase_randomized_state(CoherentStateVector((amp, 0.0)), 10)
        mean = amp**2
        for n, block in enumerate(rho.blocks):
            expected = np.zeros_like(block)
            expected[0, 0] = phase_rand.poisson_weights(mean, n)[n]  # ket |N,0>
            assert np.max(np.abs(block - expected)) < 1e-14

    def test_streamed_blocks_equal_stored_blocks(self):
        for tag, label in (("four_mode", "01"), ("two_mode", "1")):
            spec = SymmetricFamilySpec(tag, 0.7)
            alphas = spec.amplitude_vectors()[spec.labels.index(label)]
            state = CoherentStateVector(tuple(alphas))
            streamed = list(phase_rand.randomized_blocks(state, 8))
            stored = phase_rand.mixed_state_matrix(spec, label, 8).blocks
            weights = phase_rand.poisson_weights(state.mean_photons, 8)
            assert len(streamed) == len(stored) == 9
            for n, (mine, theirs) in enumerate(zip(streamed, stored)):
                vec = phase_rand._subspace_component(state, n)
                assert np.array_equal(mine, theirs)
                assert np.array_equal(mine, np.outer(vec, vec.conj()) * weights[n])

    def test_weights_are_squared_norms(self):
        state = CoherentStateVector((0.4 + 0.3j, -0.7, 0.2j))
        weights = phase_rand.poisson_series(state.mean_photons, 1e-10)
        for n, w in enumerate(weights):
            vec = phase_rand._subspace_component(state, n)
            basis = fock.enumerate_subspace(3, n)
            raw = fock.subspace_amplitudes(state.amplitudes, basis)
            assert float(np.vdot(raw, raw).real) == pytest.approx(w, abs=1e-13)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-13)


class TestClosedFormRows:
    def test_vacuum_rows(self):
        for tag in ("two_mode", "three_mode", "four_mode", "phase_encoded"):
            row = disc.subspace_overlaps(tag, 0)
            assert np.allclose(row, 1.0)

    def test_two_mode_orthogonal_above_vacuum(self):
        assert np.allclose(
            disc.subspace_overlaps("two_mode", 3), [1.0, 0.0]
        )

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            disc.subspace_overlaps("qutrit", 1)

    def test_tail_tol_envvar(self, monkeypatch):
        monkeypatch.setenv("QSD_TAIL_TOL", "1e-6")
        assert phase_rand.default_tail_tol() == 1e-6
        monkeypatch.setenv("QSD_TAIL_TOL", "2.0")
        with pytest.raises(ValueError):
            phase_rand.default_tail_tol()
