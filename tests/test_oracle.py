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


E0, E1 = np.eye(2, dtype=complex)
UNNORMALIZED_PAIRS = {
    # helstrom_two read these as p_corr 1.5 and 5.0
    "trace_2_matrix": (2.0 * projector(E0), 2.0 * projector(E1)),
    "norm_3_vector": (3.0 * E0, E1),
}
MEASUREMENTS = {
    "srm": lambda rho0, rho1: oracle.srm([rho0, rho1], [0.5, 0.5]),
    "helstrom_two": lambda rho0, rho1: oracle.helstrom_two(rho0, rho1, 0.5),
}


@pytest.mark.parametrize("pair", UNNORMALIZED_PAIRS.values(), ids=UNNORMALIZED_PAIRS)
@pytest.mark.parametrize("measure", MEASUREMENTS.values(), ids=MEASUREMENTS)
def test_state_of_other_trace_is_refused_in_one_line(measure, pair):
    with pytest.raises(ValueError, match="trace") as info:
        measure(*pair)
    assert "\n" not in str(info.value)


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


def beam_split_pair(alpha, tail_tol=phase_rand.DEFAULT_TAIL_TOL):
    # the two states verify_appendix_b compares, as dense truncated-Fock matrices
    amp = math.sqrt(2.0) * alpha
    n_max = phase_rand.truncation_photon_number(amp**2, tail_tol)
    rhos = []
    for amplitudes in ((amp, 0.0), (0.0, amp)):
        rho = phase_rand.phase_randomized_state(CoherentStateVector(amplitudes), n_max)
        rhos.append(rho / np.trace(rho).real)
    return rhos


def full_product_success(rhos, priors, povm):
    return sum(p * np.trace(rho @ pi).real for p, rho, pi in zip(priors, rhos, povm.elements))


class TestSupportProducts:
    # srm and helstrom_two form their operators from the support columns only
    # and read traces as elementwise sums: tie them to the full products

    def test_srm_on_a_partial_support(self):
        rhos = beam_split_pair(0.8)
        priors = [0.3, 0.7]
        rank = int(fock.psd_spectrum(0.3 * rhos[0] + 0.7 * rhos[1])[2].sum())
        assert (rank, len(rhos[0])) == (29, 136)
        povm, success = oracle.srm(rhos, priors)
        assert success == pytest.approx(full_product_success(rhos, priors, povm), abs=1e-13)
        povm.validate()

    def test_whole_matrix_srm(self, monkeypatch):
        seen = []
        real = oracle.srm
        monkeypatch.setattr(oracle, "srm", lambda rhos, p: seen.append(rhos) or real(rhos, p))
        weights, blocks = phase_rand.subspace_state_blocks(SymmetricFamilySpec("four_mode", 0.7))
        povm, success = oracle.whole_matrix_srm(blocks, weights)
        priors = [0.25] * 4
        assert success == pytest.approx(
            full_product_success(seen.pop(), priors, povm), abs=1e-13
        )
        povm.validate()

    @pytest.mark.parametrize("p0", [0.5, 0.3])
    def test_helstrom_elements_split_the_support(self, p0):
        povm, _p_corr = oracle.helstrom_two(*beam_split_pair(0.8), p0)
        pi0, pi1 = povm.elements
        support = povm.support_projector
        assert np.linalg.norm(pi0 @ pi1) < 1e-12
        assert np.linalg.norm(pi0 + pi1 - support) < 1e-12
        assert np.linalg.norm(support @ support - support) < 1e-12
        povm.validate()


class TestSpanReduction:
    def test_orthonormal_output(self):
        rng = np.random.default_rng(4)
        vectors = [rng.normal(size=20) + 1j * rng.normal(size=20) for _ in range(4)]
        basis = oracle.span_orthonormal_basis(vectors)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(4)) < 1e-12

    def test_rank_detection(self):
        # the QR basis is min(D, L) wide whatever the rank: the rank shows in
        # the coordinates R, and Q R gives the states back
        v1 = np.array([1.0, 0.0, 0.0], dtype=complex)
        v2 = np.array([0.0, 1.0, 0.0], dtype=complex)
        vectors = [v1, v2, v1 + v2, 2.0 * v1]
        basis = oracle.span_orthonormal_basis(vectors)
        coords = oracle.span_coordinates(vectors)
        assert basis.shape == (3, 3)
        assert coords.shape == (3, 4)
        assert np.linalg.matrix_rank(coords) == 2
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(3)) < 1e-12
        assert np.linalg.norm(basis @ coords - np.column_stack(vectors)) < 1e-12
        assert np.linalg.norm(coords - basis.conj().T @ np.column_stack(vectors)) < 1e-12

    def test_reduced_srm_equals_dense(self):
        # block_srm runs only span-reduced SRMs: this ties them to the dense one
        for tag in ("two_mode", "three_mode", "four_mode", "phase_encoded"):
            spec = SymmetricFamilySpec(tag, 0.9)
            for photons in range(0, 7):
                states = symmetric.subspace_states(spec, photons)
                _p, dense = oracle.srm(states, [1.0 / len(states)] * len(states))
                reduced = oracle.srm_success_pure(states)
                assert reduced == pytest.approx(dense, abs=1e-11)

    def test_lossless_below_full_rank(self):
        # no family block has rank < min(D, L); here the QR coordinates keep
        # spare directions that hold no state, and the SRM must drop them
        rng = np.random.default_rng(11)

        def unit(v):
            return v / np.linalg.norm(v)

        v1, v2, a, b, c = (rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(5))
        blocks = [
            [unit(v1), unit(v2), unit(v1 + v2), unit(2.0 * v1)],  # rank 2 of 4
            [unit(a), unit(b), unit(a), unit(c)],  # a repeated state: rank 3 of 4
        ]
        weights = [0.6, 0.4]
        quarter = [0.25] * 4
        dense = []
        for block in blocks:
            assert np.linalg.matrix_rank(oracle.span_coordinates(block)) < 4
            _p, success = oracle.srm(block, quarter)
            dense.append(success)
            assert oracle.srm_success_pure(block) == pytest.approx(success, abs=1e-12)
        assert oracle.block_srm(blocks, weights) == pytest.approx(
            weights[0] * dense[0] + weights[1] * dense[1], abs=1e-12
        )
        literal = [phase_rand.direct_sum([blk[i] for blk in blocks], weights) for i in range(4)]
        _p, literal_value = oracle.srm(literal, quarter)
        _povm, whole = oracle.whole_matrix_srm(blocks, weights)
        assert whole == pytest.approx(literal_value, abs=1e-12)


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
            # coordinates: the R factor of one QR per block, min(D, L) x L
            coords = [np.linalg.qr(np.column_stack(block), mode="r") for block in blocks]
            for block, r in zip(blocks, coords):
                assert r.shape == (min(len(block[0]), len(block)), len(block))
            for i, rho in enumerate(seen.pop()):
                expected = np.zeros_like(rho)
                offset = 0
                for w, r in zip(weights, coords):
                    c = r[:, i]
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


def dense_appendix_b(alpha, p0, tail_tol=phase_rand.DEFAULT_TAIL_TOL):
    # verify_appendix_b on the dense truncated-Fock matrices, whose vacuum is
    # the Fock basis ket 0: the reference for the span-coordinate version
    rho0, rho1 = beam_split_pair(alpha, tail_tol)
    srm_povm, srm_success = oracle.srm([rho0, rho1], [p0, 1.0 - p0])
    hel_povm, hel_success = oracle.helstrom_two(rho0, rho1, p0)
    support = srm_povm.support_projector
    distances = []
    for pi_srm, pi_hel in zip(srm_povm.elements, hel_povm.elements):
        diff = support @ (pi_srm - pi_hel) @ support
        diff[0, :] = 0.0
        diff[:, 0] = 0.0
        distances.append(float(np.linalg.norm(diff)))
    split = tuple(float(pi[0, 0].real) for pi in srm_povm.elements)
    return oracle.AppendixBReport(hel_success, srm_success, max(distances), split)


def spy_on(monkeypatch, name):
    # every argument tuple oracle.<name> receives, in call order
    calls = []
    real = getattr(oracle, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, name, spy)
    return calls


class TestVerifyAppendixB:
    @pytest.mark.parametrize(
        "alpha,p0,tail_tol",
        [(a, p, t) for a in (0.2, 0.8) for p in (0.5, 0.3) for t in (1e-12, 1e-6)]
        + [(0.0, p, 1e-12) for p in (0.5, 0.3)],
    )
    def test_span_coordinates_match_the_dense_matrices(self, alpha, p0, tail_tol):
        reduced = oracle.verify_appendix_b(alpha, p0, tail_tol)
        dense = dense_appendix_b(alpha, p0, tail_tol)
        assert reduced.srm_success == pytest.approx(dense.srm_success, abs=1e-12)
        assert reduced.helstrom_success == pytest.approx(dense.helstrom_success, abs=1e-12)
        assert reduced.vacuum_split == pytest.approx(dense.vacuum_split, abs=1e-12)
        assert reduced.off_vacuum_distance < 1e-9
        assert dense.off_vacuum_distance < 1e-9

    def test_measurements_run_at_the_span_dimension(self, monkeypatch):
        # 2 n_max + 1 = 31 coordinates at |alpha| = 0.8, where D = 136
        srm_calls = spy_on(monkeypatch, "srm")
        helstrom_calls = spy_on(monkeypatch, "helstrom_two")
        oracle.verify_appendix_b(0.8, 0.3)
        assert len(beam_split_pair(0.8)[0]) == 136
        (states, _priors), = srm_calls
        (rho0, rho1, _p0), = helstrom_calls
        assert [rho.shape for rho in (*states, rho0, rho1)] == [(31, 31)] * 4

    @pytest.mark.parametrize("p0", [0.5, 0.3])
    def test_srm_support_lies_inside_the_helstrom_support(self, monkeypatch, p0):
        # Helstrom keeps directions above an absolute 1e-12, the SRM cuts at
        # 1e-10 lambda_max: ranks 29 and 31, dense and in span coordinates
        srm = oracle.srm
        srm_calls = spy_on(monkeypatch, "srm")
        oracle.verify_appendix_b(0.8, p0)
        (reduced, _priors), = srm_calls
        for rhos in (beam_split_pair(0.8), reduced):
            p_srm = srm(rhos, [p0, 1.0 - p0])[0].support_projector
            p_hel = oracle.helstrom_two(*rhos, p0)[0].support_projector
            assert (np.trace(p_srm).real, np.trace(p_hel).real) == pytest.approx((29, 31))
            assert np.linalg.norm(p_srm @ p_hel - p_srm) < 1e-12

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
