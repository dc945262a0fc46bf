import math

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import oracle, phase_rand, symmetric
from qsd.fock import CapacityError
from qsd.symmetric import SymmetricFamilySpec

FOUR_STATE = ("three_mode", "four_mode", "phase_encoded")


def mixed_pair(alpha, tail_tol=1e-12):
    """Dense two-mode mixed states in the direct-sum embedding."""
    spec = SymmetricFamilySpec("two_mode", alpha)
    n_max = phase_rand.truncation_photon_number(spec.mean_photons, tail_tol)
    rho0 = phase_rand.mixed_state_matrix(spec, "0", n_max).to_dense()
    rho1 = phase_rand.mixed_state_matrix(spec, "1", n_max).to_dense()
    return rho0, rho1


def pure_family_vectors(tag, alpha, tail_tol=1e-12):
    """Pure coherent states as dense vectors over the photon-number blocks."""
    spec = SymmetricFamilySpec(tag, alpha)
    vectors = []
    for alphas in spec.amplitude_vectors():
        state = phase_rand.CoherentStateVector(tuple(alphas))
        weights = phase_rand.poisson_series(state.mean_photons, tail_tol)
        states = [phase_rand._subspace_component(state, n) for n in range(len(weights))]
        full = np.concatenate([math.sqrt(w) * s for w, s in zip(weights, states)])
        vectors.append(full / np.linalg.norm(full))
    return vectors


class TestTwoMode:
    def test_indistinguishable_at_zero(self):
        assert disc.two_mode_mixed_pcorr(0.0, 0.5) == 0.5
        assert disc.two_mode_pure_pcorr(0.0, 0.5) == 0.5

    def test_unit_amplitude_values(self):
        assert disc.two_mode_mixed_pcorr(1.0, 0.5) == pytest.approx(
            1.0 - math.exp(-2.0) / 2.0, abs=1e-15
        )
        assert disc.two_mode_pure_pcorr(1.0, 0.5) == pytest.approx(
            0.5 + 0.5 * math.sqrt(1.0 - math.exp(-4.0)), abs=1e-15
        )

    def test_prior_symmetry(self):
        assert disc.two_mode_mixed_pcorr(0.7, 0.25) == disc.two_mode_mixed_pcorr(0.7, 0.75)
        assert disc.two_mode_pure_pcorr(0.7, 0.3) == disc.two_mode_pure_pcorr(0.7, 0.7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            disc.two_mode_mixed_pcorr(1.0, 0.0)
        with pytest.raises(ValueError):
            disc.two_mode_pure_pcorr(-1.0, 0.5)

    def test_mixed_matches_helstrom_oracle(self):
        rho0, rho1 = mixed_pair(0.5)
        _povm, p_corr = oracle.helstrom_two(rho0, rho1, 0.25)
        assert p_corr == pytest.approx(disc.two_mode_mixed_pcorr(0.5, 0.25), abs=1e-8)

    def test_pure_matches_helstrom_oracle(self):
        vectors = pure_family_vectors("two_mode", 0.5)
        _povm, p_corr = oracle.helstrom_two(vectors[0], vectors[1], 0.25)
        assert p_corr == pytest.approx(disc.two_mode_pure_pcorr(0.5, 0.25), abs=1e-8)

    def test_unambiguous_success(self):
        assert disc.two_mode_unambiguous(0.0) == 0.0
        assert disc.two_mode_unambiguous(0.5) == pytest.approx(
            1.0 - math.exp(-0.5), abs=1e-15
        )


class TestThreeMode:
    def test_vacuum_limit(self):
        value, terms = disc.three_mode_mixed_pcorr(0.0)
        assert value == 0.25
        assert terms == 1
        assert disc.three_mode_pure_pcorr(0.0) == 0.25

    def test_saturation(self):
        assert disc.three_mode_mixed_pcorr(3.0)[0] > 0.999
        assert disc.three_mode_pure_pcorr(3.0) > 0.999

    def test_pure_value_at_one(self):
        # arithmetic of the closed form; also confirmed by the SRM oracle below
        expected = 0.25 * (1.0 + math.sqrt(1.0 - math.exp(-4.0))) ** 2
        assert disc.three_mode_pure_pcorr(1.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.99082, abs=5e-6)

    def test_mixed_series_against_gram_route(self):
        series = phase_rand.decompose(SymmetricFamilySpec("three_mode", 1.0), 1e-12)
        via_gram = sum(
            p * symmetric.srm_success_from_gram(g)
            for p, g in zip(series.weights, series.per_n_gram)
        )
        assert disc.three_mode_mixed_pcorr(1.0)[0] == pytest.approx(via_gram, abs=1e-10)

    def test_mixed_against_block_oracle(self):
        spec = SymmetricFamilySpec("three_mode", 1.0)
        weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-12)
        block = oracle.block_srm(blocks, weights)
        assert disc.three_mode_mixed_pcorr(1.0)[0] == pytest.approx(block, abs=1e-8)

    def test_pure_against_srm_oracle(self):
        vectors = pure_family_vectors("three_mode", 1.0)
        success = oracle.srm_success_pure(vectors)
        assert disc.three_mode_pure_pcorr(1.0) == pytest.approx(success, abs=1e-8)


class TestFourMode:
    def test_vacuum_limits(self):
        assert disc.four_mode_mixed_pcorr(0.0) == 0.25
        assert disc.four_mode_unambiguous(0.0) == 0.0
        assert disc.four_mode_pure_pcorr(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_unit_amplitude(self):
        assert disc.four_mode_mixed_pcorr(1.0) == pytest.approx(
            1.0 - 0.75 * math.exp(-4.0), abs=1e-15
        )
        assert disc.four_mode_unambiguous(1.0) == pytest.approx(
            1.0 - math.exp(-4.0), abs=1e-15
        )

    def test_all_three_against_oracles(self):
        alpha = 0.6
        spec = SymmetricFamilySpec("four_mode", alpha)
        weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-12)
        assert disc.four_mode_mixed_pcorr(alpha) == pytest.approx(
            oracle.block_srm(blocks, weights), abs=1e-8
        )
        assert disc.four_mode_pure_pcorr(alpha) == pytest.approx(
            oracle.srm_success_pure(pure_family_vectors("four_mode", alpha)), abs=1e-8
        )
        # unambiguous success = click probability of the measurement circuit
        from qsd import optics

        fig3 = optics.preset("fig3")
        stats = optics.click_statistics(fig3, spec.amplitude_vectors()[0])
        assert disc.four_mode_unambiguous(alpha) == pytest.approx(
            1.0 - stats.no_click_probability, abs=1e-12
        )


class TestPhaseEncoded:
    def test_vacuum_limits(self):
        assert disc.phase_encoded_mixed_pcorr(0.0)[0] == 0.25
        # the closed form tends to 1/4 as alpha -> 0 (cosh, cos -> 1; sinh,
        # sin -> 0), with a leading correction of |alpha|/2
        assert disc.phase_encoded_pure_pcorr(0.0) == pytest.approx(0.25, abs=1e-15)
        for alpha in (1e-4, 1e-6):
            value = disc.phase_encoded_pure_pcorr(alpha)
            assert value == pytest.approx(0.25 + alpha / 2.0, abs=alpha * 1e-2)

    def test_mixed_against_gram_route_and_oracle(self):
        alpha = 1.0
        series = phase_rand.decompose(SymmetricFamilySpec("phase_encoded", alpha), 1e-12)
        via_gram = sum(
            p * symmetric.srm_success_from_gram(g)
            for p, g in zip(series.weights, series.per_n_gram)
        )
        value, _terms = disc.phase_encoded_mixed_pcorr(alpha)
        assert value == pytest.approx(via_gram, abs=1e-10)
        spec = SymmetricFamilySpec("phase_encoded", alpha)
        weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-12)
        assert value == pytest.approx(oracle.block_srm(blocks, weights), abs=1e-8)

    def test_pure_against_srm_oracle(self):
        alpha = 0.8
        success = oracle.srm_success_pure(pure_family_vectors("phase_encoded", alpha))
        assert disc.phase_encoded_pure_pcorr(alpha) == pytest.approx(success, abs=1e-8)


class TestP1bitFromOverlaps:
    def test_orthogonal_family_reads_perfectly(self):
        assert disc.p1bit_from_overlaps(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_identical_states_coin_flip(self):
        assert disc.p1bit_from_overlaps(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_real_f_with_g_equal_f_squared(self):
        for f in np.linspace(0.0, 1.0, 21):
            value = disc.p1bit_from_overlaps(f, f * f)
            assert value == pytest.approx(
                0.5 * (1.0 + math.sqrt(1.0 - f * f)), abs=1e-12
            )

    def test_rejects_unphysical_overlaps(self):
        with pytest.raises(disc.InvalidOverlapError):
            disc.p1bit_from_overlaps(2.0, 0.0)


class TestFamilyP1bitAndBot:
    def test_coin_flip_at_zero(self):
        for tag in FOUR_STATE:
            for variant in ("pure", "mixed"):
                assert disc.family_p1bit(tag, variant, 0.0) == pytest.approx(
                    0.5, abs=1e-12
                )

    def test_four_mode_mixed_closed_form(self):
        assert disc.family_p1bit("four_mode", "mixed", 1.0) == pytest.approx(
            1.0 - math.exp(-4.0) / 2.0, abs=1e-12
        )
        assert disc.family_p1bit("four_mode", "mixed", 1.0) == pytest.approx(
            0.990842, abs=5e-7
        )

    def test_mixed_terms_match_generic_overlap_formula(self):
        for tag in FOUR_STATE:
            for alpha in (0.4, 1.1):
                mean = symmetric.COHERENT_FAMILY_MODES[tag] * alpha**2
                n_max = phase_rand.truncation_photon_number(mean, 1e-12)
                weights = phase_rand.poisson_weights(mean, n_max)
                total = weights[0] * 0.5
                for n in range(1, n_max + 1):
                    row = disc.subspace_overlaps(tag, n)
                    total += weights[n] * disc.p1bit_from_overlaps(row[1], row[2].real)
                assert disc.family_p1bit(tag, "mixed", alpha) == pytest.approx(
                    total, abs=1e-8
                )

    @pytest.mark.parametrize("tag", FOUR_STATE)
    def test_mixed_against_helstrom_oracle(self, tag):
        # reading one bit = Helstrom between the two first-bit mixtures,
        # realised per photon-number block on rank-2 density matrices
        alpha = 0.8
        spec = SymmetricFamilySpec(tag, alpha)
        weights, blocks = phase_rand.subspace_state_blocks(spec, 1e-12)
        total = 0.0
        for p_n, block in zip(weights, blocks):
            basis = oracle.span_orthonormal_basis(block)
            red = [basis.conj().T @ v for v in block]
            rho0 = 0.5 * (np.outer(red[0], red[0].conj()) + np.outer(red[1], red[1].conj()))
            rho1 = 0.5 * (np.outer(red[3], red[3].conj()) + np.outer(red[2], red[2].conj()))
            _povm, p_corr = oracle.helstrom_two(rho0, rho1, 0.5)
            total += p_n * p_corr
        assert disc.family_p1bit(tag, "mixed", alpha) == pytest.approx(
            total, abs=1e-8
        )

    @pytest.mark.parametrize("tag", FOUR_STATE)
    def test_pure_against_helstrom_oracle(self, tag):
        # the overlap formula vs a brute-force Helstrom measurement between
        # the two rank-2 first-bit mixtures of the pure states
        alpha = 0.7
        vectors = pure_family_vectors(tag, alpha)
        basis = oracle.span_orthonormal_basis(vectors)
        red = [basis.conj().T @ v for v in vectors]
        rho0 = 0.5 * (np.outer(red[0], red[0].conj()) + np.outer(red[1], red[1].conj()))
        rho1 = 0.5 * (np.outer(red[3], red[3].conj()) + np.outer(red[2], red[2].conj()))
        _povm, p_corr = oracle.helstrom_two(rho0, rho1, 0.5)
        assert disc.family_p1bit(tag, "pure", alpha) == pytest.approx(p_corr, abs=1e-8)

    def test_bot_equals_full_discrimination(self):
        for tag in FOUR_STATE:
            for variant in ("pure", "mixed"):
                assert disc.family_bot(tag, variant, 0.9) == disc.family_pcorr(
                    tag, variant, 0.9
                )

    def test_linear_relation(self):
        for alpha in np.linspace(0.05, 2.5, 50):
            for tag, variant in (
                ("three_mode", "mixed"),
                ("four_mode", "pure"),
                ("four_mode", "mixed"),
            ):
                b = disc.family_bot(tag, variant, alpha)
                p = disc.family_p1bit(tag, variant, alpha)
                assert abs(b - (1.5 * p - 0.5)) < 1e-10

    def test_square_relation_three_mode_pure(self):
        for alpha in np.linspace(0.05, 2.5, 50):
            b = disc.family_bot("three_mode", "pure", alpha)
            p = disc.family_p1bit("three_mode", "pure", alpha)
            assert abs(b - p * p) < 1e-10

    def test_two_mode_rejected(self):
        with pytest.raises(ValueError):
            disc.family_p1bit("two_mode", "mixed", 1.0)

    def test_accepts_spec_objects(self):
        spec = SymmetricFamilySpec("three_mode", 0.5)
        assert disc.family_p1bit(spec, "mixed", 0.5) == disc.family_p1bit(
            "three_mode", "mixed", 0.5
        )


class TestDeltaAndShapes:
    def test_zero_gap_at_zero(self):
        for tag in ("two_mode",) + FOUR_STATE:
            assert disc.delta_pcorr(tag, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_gap_peak_band(self):
        for tag in FOUR_STATE:
            _alpha, peak = disc.delta_pcorr_max(tag)
            assert 0.2 <= peak <= 0.3

    def test_delta_is_pure_minus_mixed(self):
        value = disc.delta_pcorr("three_mode", 1.0)
        assert value == pytest.approx(
            disc.three_mode_pure_pcorr(1.0) - disc.three_mode_mixed_pcorr(1.0)[0],
            abs=1e-14,
        )

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.0, 3.0, 60)
        for tag in ("two_mode",) + FOUR_STATE:
            floor = 0.5 if tag == "two_mode" else 0.25
            for variant in ("pure", "mixed"):
                values = [disc.family_pcorr(tag, variant, a) for a in grid]
                assert all(b - a >= -1e-8 for a, b in zip(values, values[1:]))
                assert all(floor - 1e-12 <= v <= 1.0 + 1e-12 for v in values)

    def test_mixed_never_beats_pure(self):
        grid = np.linspace(0.0, 3.0, 60)
        for tag in ("two_mode",) + FOUR_STATE:
            for a in grid:
                gap = disc.family_pcorr(tag, "pure", a) - disc.family_pcorr(
                    tag, "mixed", a
                )
                assert gap >= -1e-12

    def test_crossover_report(self):
        report = disc.phase_encoded_ot_crossover(grid_points=801)
        assert report.intervals
        assert 0.7 <= report.lower_bound <= 0.9


@pytest.mark.parametrize("alpha", (30.0, 1e200, math.inf))
class TestLargeAlphaLimits:
    """cosh^2 |alpha|^2 overflows at |alpha| = 30, |alpha|^2 itself at 1e200.

    |alpha| = inf saturates the same way.
    """

    def test_closed_forms_reach_one(self, alpha):
        for tag in ("two_mode",) + FOUR_STATE:
            assert disc.family_pcorr(tag, "pure", alpha) == 1.0
        for tag in FOUR_STATE:
            assert disc.family_p1bit(tag, "pure", alpha) == 1.0
            assert disc.family_bot(tag, "pure", alpha) == 1.0
        assert disc.family_pcorr("two_mode", "mixed", alpha, prior=0.3) == 1.0
        assert disc.four_mode_mixed_pcorr(alpha) == 1.0
        assert disc.four_mode_unambiguous(alpha) == 1.0
        assert disc.two_mode_unambiguous(alpha) == 1.0
        assert disc.delta_pcorr("four_mode", alpha) == 0.0

    def test_pure_overlaps_vanish(self, alpha):
        for tag in FOUR_STATE:
            assert disc.pure_overlaps(tag, alpha) == (0.0, 0.0)

    def test_mixed_series_hit_the_cap(self, alpha):
        for tag in ("three_mode", "phase_encoded"):
            with pytest.raises(CapacityError):
                disc.family_pcorr(tag, "mixed", alpha)
            with pytest.raises(CapacityError):
                disc.family_p1bit(tag, "mixed", alpha)


@pytest.mark.parametrize("variant", disc.VARIANTS)
@pytest.mark.parametrize("tag", ("two_mode",) + FOUR_STATE)
class TestNonFiniteAlpha:
    """NaN is refused; inf gives the exact limit, or CapacityError for a series.

    p_1bit is defined for the four-state families only.
    """

    def test_nan_raises(self, tag, variant):
        with pytest.raises(ValueError, match="NaN"):
            disc.family_pcorr(tag, variant, math.nan)
        if tag != "two_mode":
            with pytest.raises(ValueError, match="NaN"):
                disc.family_p1bit(tag, variant, math.nan)

    def test_inf_is_the_limit(self, tag, variant):
        if variant == "pure" or tag in ("two_mode", "four_mode"):
            assert disc.family_pcorr(tag, variant, math.inf) == 1.0
        else:
            with pytest.raises(CapacityError):
                disc.family_pcorr(tag, variant, math.inf)
        if tag == "two_mode":
            return
        if variant == "pure":
            assert disc.family_p1bit(tag, variant, math.inf) == 1.0
        else:
            with pytest.raises(CapacityError):
                disc.family_p1bit(tag, variant, math.inf)
