import inspect
import math
import tracemalloc

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import fock, phase_rand, symmetric
from qsd.phase_rand import CoherentStateVector
from qsd.symmetric import SymmetricFamilySpec


def diagonal_blocks(rho, modes, n_max):
    """The N-photon diagonal blocks of a dense state, N = 0..n_max."""
    ends = np.cumsum([0] + [fock.subspace_dimension(modes, n) for n in range(n_max + 1)])
    assert rho.shape == (ends[-1], ends[-1])
    return [rho[a:b, a:b] for a, b in zip(ends[:-1], ends[1:])]


def member_blocks(spec, label, n_max):
    """The blocks p_N |psi_N><psi_N| of one family member, N = 0..n_max,
    sliced out of its `mixed_state_matrix`."""
    rho = phase_rand.mixed_state_matrix(spec, label, n_max)
    return diagonal_blocks(rho, spec.family.modes, n_max)


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

    @pytest.mark.parametrize("bad", (math.nan, math.inf, complex(math.nan, 0)))
    def test_refuses_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="not all finite"):
            CoherentStateVector((bad, 0.5))


class TestTruncation:
    def test_zero_amplitude_single_block(self):
        assert phase_rand.truncation_photon_number(0.0, 1e-12) == 0

    def test_two_mode_half_alpha_tail(self):
        mean = 2 * 0.5**2
        n_max = phase_rand.truncation_photon_number(mean, 1e-10)
        assert poisson_tail(mean, n_max) < 1e-10
        assert poisson_tail(mean, n_max - 1) >= 1e-10  # minimality

    def test_capacity_cap(self):
        # a mean of 120 needs about 200 photons for a 1e-12 tail
        with pytest.raises(fock.CapacityError, match=f"exceeds cap {phase_rand.DEFAULT_N_CAP} "):
            phase_rand.truncation_photon_number(120.0, 1e-12)

    @pytest.mark.parametrize(
        "series", [phase_rand.poisson_series, phase_rand.truncation_photon_number]
    )
    def test_nan_mean_rejected(self, series):
        with pytest.raises(ValueError):
            series(math.nan, 1e-12)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            phase_rand.truncation_photon_number(1.0, 0.0)

    def test_underflowing_mean_raises(self):
        # exp(-800) underflows to 0.0; the recurrence would return all zeros
        with pytest.raises(fock.CapacityError, match="underflows"):
            phase_rand.poisson_weights(800.0, 100)

    def test_explicit_n_max_past_the_cap_raises(self):
        # every weight past N = 177 of a mean-1 series is exactly 0.0
        cap = phase_rand.DEFAULT_N_CAP
        assert len(phase_rand.poisson_series(1.0, n_max=cap)) == cap + 1
        for series in (phase_rand.poisson_series, phase_rand.poisson_weights):
            with pytest.raises(fock.CapacityError, match=f"{cap + 1} exceeds cap {cap}"):
                series(1.0, n_max=cap + 1)
        with pytest.raises(fock.CapacityError, match=f"exceeds cap {cap}"):
            phase_rand.poisson_series(1.0, n_max=10**6)

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
        assert np.allclose(series.per_n_gram[0], np.ones((4, 4)))

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
            assert np.max(np.abs(gram[0] - row)) < 1e-12


class TestMixedStateMatrix:
    def test_entries_match_phase_average_formula(self):
        # brute-force expected entries: within each j+k = p+q block,
        # exp(-2w) (-1)^{b(k+q)} |alpha|^{j+k+p+q} / sqrt(j! k! p! q!)
        alpha = 0.6
        spec = SymmetricFamilySpec("two_mode", alpha)
        for b in (0, 1):
            for n, block in enumerate(member_blocks(spec, str(b), 6)):
                occupations = list(map(tuple, fock.enumerate_subspace(2, n).tolist()))
                for i, (j, k) in enumerate(occupations):
                    for i2, (p, q) in enumerate(occupations):
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
        assert np.trace(rho).real == pytest.approx(1.0 - tail, abs=1e-10)

    def test_zero_amplitude_vacuum_projector(self):
        spec = SymmetricFamilySpec("four_mode", 0.0)
        dense = phase_rand.mixed_state_matrix(spec, "00", 0)
        assert dense.shape == (1, 1)
        assert dense[0, 0] == pytest.approx(1.0)

    def test_block_purity(self):
        spec = SymmetricFamilySpec("three_mode", 0.7)
        weights = phase_rand.poisson_weights(spec.mean_photons, 10)
        for p_n, block in zip(weights, member_blocks(spec, "01", 10)):
            unit = block / p_n
            assert np.linalg.norm(unit @ unit - unit) < 1e-10
            assert np.trace(unit).real == pytest.approx(1.0, abs=1e-12)

    def test_dense_embedding_is_block_diagonal(self):
        spec = SymmetricFamilySpec("two_mode", 0.5)
        masked = phase_rand.mixed_state_matrix(spec, "0", 4)
        offset = 0
        for block in member_blocks(spec, "0", 4):
            d = block.shape[0]
            masked[offset : offset + d, offset : offset + d] = 0.0
            offset += d
        # everything off the diagonal blocks must be exactly zero
        assert np.max(np.abs(masked)) == 0.0

    def test_unknown_label(self):
        spec = SymmetricFamilySpec("two_mode", 0.5)
        with pytest.raises(ValueError):
            phase_rand.mixed_state_matrix(spec, "2", 4)

    @pytest.mark.parametrize("tag", disc.COHERENT_FAMILIES)
    @pytest.mark.parametrize("alpha", (0.3, 0.7, 1.2))
    def test_equals_the_literal_embedding(self, tag, alpha):
        # the block p_N |psi_N><psi_N| is vec_i conj(vec_j) with both parts
        # scaled by p_N, then placed on the diagonal of a zero matrix
        spec = SymmetricFamilySpec(tag, alpha)
        for label, alphas in zip(spec.family.labels, spec.amplitude_vectors()):
            state = CoherentStateVector(tuple(alphas))
            weights = phase_rand.poisson_weights(state.mean_photons, 8)
            dim = sum(fock.subspace_dimension(spec.family.modes, n) for n in range(9))
            expected = np.zeros((dim, dim), complex)
            offset = 0
            for n, weight in enumerate(weights):
                vec = phase_rand.subspace_component(state, n)
                block = np.outer(vec, vec.conj())
                block.view(float)[...] *= weight
                expected[offset : offset + len(vec), offset : offset + len(vec)] = block
                offset += len(vec)
            rho = phase_rand.mixed_state_matrix(spec, label, 8)
            assert rho.tobytes() == expected.tobytes()
            assert phase_rand.phase_randomized_state(state, 8).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_max", (-1, -3))
    def test_negative_truncation_refused(self, n_max):
        spec = SymmetricFamilySpec("two_mode", 1.0)
        with pytest.raises(ValueError, match="negative"):
            phase_rand.poisson_weights(1.0, n_max)
        with pytest.raises(ValueError, match="negative"):
            phase_rand.mixed_state_matrix(spec, "0", n_max)

    def test_holds_nothing_but_the_result(self):
        # four_mode to N = 10 is 1001 x 1001 complex (16.0 MB); its 11 blocks
        # (3 MB) are written in place, never held beside it
        spec = SymmetricFamilySpec("four_mode", 0.7)
        phase_rand.mixed_state_matrix(spec, "00", 10)  # fill the basis caches
        tracemalloc.start()
        try:
            rho = phase_rand.mixed_state_matrix(spec, "00", 10)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rho.nbytes == 1001 * 1001 * 16
        assert peak <= 1.05 * rho.nbytes


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

    @pytest.mark.parametrize(
        "tag,image,sign",
        [
            ("two_mode", lambda a, b: (a, b), lambda a, b: (-1) ** b),
            ("three_mode", lambda a, b, c: (a, c, b), lambda a, b, c: (-1) ** b),
            ("four_mode", lambda a, b, c, d: (b, c, d, a), lambda *occ: 1),
            ("phase_encoded", lambda a, b: (a, b), lambda a, b: 1j**b),
        ],
    )
    def test_permutes_occupations(self, tag, image, sign):
        # reference: positions looked up in the enumerated tuples, not ranked;
        # the mode count is the arity of `image`, not read from the family table
        modes = len(inspect.signature(image).parameters)
        for photons in range(0, 9):
            occupations = list(map(tuple, fock.enumerate_subspace(modes, photons).tolist()))
            position = {occ: i for i, occ in enumerate(occupations)}
            expected = np.zeros((len(occupations), len(occupations)), dtype=complex)
            for col, occ in enumerate(occupations):
                expected[position[image(*occ)], col] = sign(*occ)
            u = phase_rand.subspace_symmetry_unitary(tag, photons)
            assert np.array_equal(u, expected)

    def test_maps_density_blocks(self):
        spec = SymmetricFamilySpec("three_mode", 0.7)
        rho00 = member_blocks(spec, "00", 8)
        rho01 = member_blocks(spec, "01", 8)
        for n in range(9):
            u = phase_rand.subspace_symmetry_unitary("three_mode", n)
            mapped = u @ rho00[n] @ u.conj().T
            assert np.linalg.norm(mapped - rho01[n]) < 1e-10


class TestGenericCoherentPath:
    def test_matches_family_subspace_states(self):
        for tag in ("two_mode", "three_mode", "four_mode", "phase_encoded"):
            spec = SymmetricFamilySpec(tag, 0.8)
            for k, alphas in enumerate(spec.amplitude_vectors()):
                state = CoherentStateVector(tuple(alphas))
                weights = phase_rand.poisson_series(state.mean_photons, 1e-10)
                states = [
                    phase_rand.subspace_component(state, n) for n in range(len(weights))
                ]
                family_states = [
                    symmetric.subspace_states(spec, n)[k] for n in range(len(states))
                ]
                for mine, theirs in zip(states, family_states):
                    assert np.max(np.abs(mine - theirs)) < 1e-12

    def test_beam_split_states_are_number_diagonal(self):
        amp = math.sqrt(2.0) * 0.5
        rho = phase_rand.phase_randomized_state(CoherentStateVector((amp, 0.0)), 10)
        blocks = diagonal_blocks(rho, 2, 10)
        mean = amp**2
        for n, block in enumerate(blocks):
            expected = np.zeros_like(block)
            expected[0, 0] = phase_rand.poisson_weights(mean, n)[n]  # ket |N,0>
            assert np.max(np.abs(block - expected)) < 1e-14

    def test_streamed_blocks_equal_stored_blocks(self):
        # each block is written in place into the direct sum: its entries are
        # those of p_N |psi_N><psi_N| built on its own
        for tag, label in (("four_mode", "01"), ("two_mode", "1")):
            spec = SymmetricFamilySpec(tag, 0.7)
            alphas = spec.amplitude_vectors()[spec.family.labels.index(label)]
            state = CoherentStateVector(tuple(alphas))
            stored = member_blocks(spec, label, 8)
            weights = phase_rand.poisson_weights(state.mean_photons, 8)
            assert len(stored) == 9
            for n, block in enumerate(stored):
                vec = phase_rand.subspace_component(state, n)
                assert np.array_equal(block, np.outer(vec, vec.conj()) * weights[n])

    def test_weights_are_squared_norms(self):
        state = CoherentStateVector((0.4 + 0.3j, -0.7, 0.2j))
        weights = phase_rand.poisson_series(state.mean_photons, 1e-10)
        for n, w in enumerate(weights):
            vec = phase_rand.subspace_component(state, n)
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
        # the default tolerance is a constant: no variable of the environment moves it
        expected = phase_rand.poisson_series(2.0, phase_rand.DEFAULT_TAIL_TOL)
        for value in ("1e-6", "2.0", "abc"):
            monkeypatch.setenv("QSD_TAIL_TOL", value)
            assert phase_rand.poisson_series(2.0) == expected
            assert np.array_equal(phase_rand.poisson_series_grid(np.array([2.0]))[0], expected)
