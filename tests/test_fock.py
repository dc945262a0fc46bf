import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qsd import fock, phase_rand
from qsd.symmetric import SymmetricFamilySpec


def brute_force_tuples(modes, photons):
    """Independent stars-and-bars oracle: filter the full product grid."""
    return [
        t
        for t in itertools.product(range(photons + 1), repeat=modes)
        if sum(t) == photons
    ]


class TestEnumerateSubspace:
    def test_vacuum(self):
        occ = fock.enumerate_subspace(3, 0)
        assert occ.tolist() == [[0, 0, 0]]

    def test_two_mode_three_photons(self):
        occ = fock.enumerate_subspace(2, 3)
        assert occ.tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]

    def test_four_mode_five_photons_brute_force(self):
        occ = fock.enumerate_subspace(4, 5)
        expected = brute_force_tuples(4, 5)
        assert occ.shape == (56, 4)
        assert sorted(map(tuple, occ.tolist())) == sorted(expected)
        assert len(set(map(tuple, occ.tolist()))) == len(occ)

    @pytest.mark.parametrize("modes,photons", [(1, 7), (2, 9), (3, 6), (5, 4)])
    def test_dimension_formula(self, modes, photons):
        occ = fock.enumerate_subspace(modes, photons)
        assert len(occ) == math.comb(photons + modes - 1, modes - 1)
        assert len(occ) == len(brute_force_tuples(modes, photons))
        assert len(occ) == fock.subspace_dimension(modes, photons)

    def test_descending_lexicographic_order(self):
        occ = fock.enumerate_subspace(3, 4)
        ordered = sorted(map(tuple, occ.tolist()), reverse=True)
        assert list(map(tuple, occ.tolist())) == ordered

    def test_capacity_guard(self):
        # C(403, 3) = 10,827,401 occupation rows would take about 350 MB
        assert fock.subspace_dimension(4, 400) == 10_827_401 > fock.DEFAULT_DIMENSION_CAP
        tracemalloc.start()
        try:
            with pytest.raises(fock.CapacityError, match="dimension 10827401 > cap"):
                fock.enumerate_subspace(4, 400)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_index_lookup(self):
        # each row on its own, as the symmetry unitary looks up images
        for i, row in enumerate(fock.enumerate_subspace(3, 5)):
            assert fock.occupation_ranks(row[None, :], 5).tolist() == [i]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fock.enumerate_subspace(0, 3)
        with pytest.raises(ValueError):
            fock.enumerate_subspace(2, -1)

    def test_matches_recursive_generator(self):
        # tuples, order and ranks against the recursive lex-descending generator
        for modes in range(1, 5):
            for photons in range(0, 13):
                occ = fock.enumerate_subspace(modes, photons)
                expected = tuple(recursive_compositions(photons, modes))
                assert tuple(map(tuple, occ.tolist())) == expected
                ranks = fock.occupation_ranks(np.array(expected), photons)
                assert np.array_equal(ranks, np.arange(len(expected)))

    def test_enumeration_memory(self):
        # four modes, N = 0..30: 46,376 occupation rows, 0.37 MB of int16
        fock.enumerate_subspace.cache_clear()
        tracemalloc.start()
        try:
            for photons in range(0, 31):
                fock.enumerate_subspace(4, photons)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_cached_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            fock.enumerate_subspace(3, 4)[0, 0] = 1
        with pytest.raises(ValueError):
            fock.log_factorials(10)[3] = 0.0


class TestOccupationType:
    """Occupations take the narrowest signed type that holds N exactly."""

    @pytest.mark.parametrize(
        "modes,photons,dtype",
        [
            (4, 30, np.int16), (2, 32_767, np.int16), (2, 32_768, np.int32),
            (1, 2**31 - 1, np.int32), (1, 2**31, np.int64),
        ],
    )
    def test_narrowest_exact_type(self, modes, photons, dtype):
        occ = fock.enumerate_subspace(modes, photons)
        assert occ.dtype == dtype
        with pytest.raises(ValueError):
            occ[0, 0] = 1

    def test_past_int16_rows_and_ranks_stay_exact(self):
        # an int16 array would read row 0 as (-25536, 0)
        occ = fock.enumerate_subspace(2, 40_000)
        assert occ[0].tolist() == [40_000, 0] and occ[-1].tolist() == [0, 40_000]
        assert fock.occupation_ranks(occ[[0, -1]], 40_000).tolist() == [0, 40_000]

    def test_past_int32_holds_the_photon_number(self):
        occ = fock.enumerate_subspace(1, 3 * 10**9)
        assert occ.tolist() == [[3_000_000_000]]
        assert fock.occupation_ranks(occ, 3 * 10**9).tolist() == [0]


def recursive_compositions(total, parts):
    """All `parts`-tuples of non-negative ints summing to `total`, lex descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def direct_amplitude(alphas, occupations):
    """Reference amplitude e^(-sum |a|^2/2) prod a^n / sqrt(n!), term by term."""
    value = complex(math.exp(-sum(abs(a) ** 2 for a in alphas) / 2))
    for a, n in zip(alphas, occupations):
        value *= a**n / math.sqrt(math.factorial(n))
    return value


def amplitude(alphas, occupations):
    """`fock.subspace_amplitudes` at one ket of its subspace."""
    photons = sum(occupations)
    basis = fock.enumerate_subspace(len(occupations), photons)
    [rank] = fock.occupation_ranks(np.array([occupations]), photons)
    return fock.subspace_amplitudes(alphas, basis)[rank]


class TestCoherentAmplitude:
    def test_single_mode_vacuum_component(self):
        for alpha in (0.3, 1.0, 2.5):
            value = amplitude([alpha], (0,))
            assert value == pytest.approx(math.exp(-abs(alpha) ** 2 / 2), abs=1e-15)

    def test_zero_state(self):
        assert amplitude([0.0, 0.0], (0, 0)) == 1.0
        assert amplitude([0.0, 1.0], (2, 0)) == 0.0

    def test_three_ones(self):
        value = amplitude([1.0, 1.0, 1.0], (1, 1, 1))
        assert value == pytest.approx(math.exp(-1.5), abs=1e-15)
        assert value == pytest.approx(direct_amplitude([1.0, 1.0, 1.0], (1, 1, 1)), abs=1e-15)

    def test_matches_direct_product_formula(self):
        alphas = [0.7 + 0.2j, -0.4j, 1.1]
        occ = (2, 3, 1)
        assert amplitude(alphas, occ) == pytest.approx(direct_amplitude(alphas, occ), abs=1e-14)

    def test_large_occupation_stays_finite(self):
        value = amplitude([2.0], (100,))
        assert math.isfinite(abs(value))
        direct = math.exp(-2.0 + 100 * math.log(2.0) - 0.5 * math.lgamma(101))
        assert abs(value) == pytest.approx(direct, rel=1e-12)

    def test_every_ket_matches_direct_product(self):
        alphas = [0.5 - 0.3j, 0.8j, -0.6]
        for photons in range(5):
            basis = fock.enumerate_subspace(3, photons)
            vec = fock.subspace_amplitudes(alphas, basis)
            for i, occ in enumerate(map(tuple, basis.tolist())):
                assert vec[i] == pytest.approx(direct_amplitude(alphas, occ), abs=1e-14)

    def test_block_weights_are_poissonian(self):
        alphas = [0.9, -0.5j]
        mean = sum(abs(a) ** 2 for a in alphas)
        total = 0.0
        for photons in range(25):
            basis = fock.enumerate_subspace(2, photons)
            vec = fock.subspace_amplitudes(alphas, basis)
            weight = float(np.vdot(vec, vec).real)
            expected = math.exp(-mean) * mean**photons / math.factorial(photons)
            assert weight == pytest.approx(expected, abs=1e-12)
            total += weight
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            fock.subspace_amplitudes([1.0], fock.enumerate_subspace(2, 1))


def characteristic_polynomial_roots(m):
    """Eigenvalue oracle: Newton-identity coefficients, then companion roots."""
    d = m.shape[0]
    power = np.eye(d, dtype=complex)
    power_traces = []
    for _ in range(d):
        power = power @ m
        power_traces.append(np.trace(power))
    coeffs = [1.0 + 0.0j]
    for k in range(1, d + 1):
        acc = power_traces[k - 1]
        for j in range(1, k):
            acc += coeffs[j] * power_traces[k - 1 - j]
        coeffs.append(-acc / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)[::-1]


def reconstruct(lam, v):
    """The matrix whose eigenpairs `fock.hermitian_eig` returned."""
    return (v * lam) @ v.conj().T


class TestHermitianEig:
    def test_identity(self):
        lam = fock.hermitian_eig(np.eye(3))[0]
        assert np.allclose(lam, [1.0, 1.0, 1.0], atol=1e-14)

    def test_pauli_x(self):
        lam = fock.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))[0]
        assert np.allclose(lam, [1.0, -1.0], atol=1e-14)

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = m + m.conj().T
        lam = fock.hermitian_eig(m)[0]
        roots = characteristic_polynomial_roots(m)
        assert np.max(np.abs(lam - roots)) < 1e-9

    def test_matches_lapack(self):
        rng = np.random.default_rng(3)
        for dim in (2, 5, 17, 40):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = m + m.conj().T
            lam = fock.hermitian_eig(m)[0]
            assert np.max(np.abs(lam - np.linalg.eigvalsh(m)[::-1])) < 1e-10

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m = m + m.conj().T
        lam, v = fock.hermitian_eig(m)
        assert np.linalg.norm(reconstruct(lam, v) - m) < 1e-9
        gram = v.conj().T @ v
        assert np.linalg.norm(gram - np.eye(12)) < 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(9, 9))
        m = m + m.T
        lam = fock.hermitian_eig(m)[0]
        assert lam.sum() == pytest.approx(np.trace(m), abs=1e-10)

    def test_graded_clustered_spectrum(self):
        # spectrum spanning 14 decades plus a tight degenerate cluster
        rng = np.random.default_rng(17)
        dim = 60
        lam = np.sort(
            np.concatenate(
                [
                    np.full(12, 1.0) + rng.normal(scale=1e-14, size=12),
                    np.logspace(-14, 0, dim - 12),
                ]
            )
        )[::-1]
        q, _r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        m = (q * lam) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        lam, v = fock.hermitian_eig(m)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(m)[::-1])) < 1e-12
        assert np.linalg.norm(reconstruct(lam, v) - m) < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            fock.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "m",
        [np.diag([1.0, np.nan, 2.0]), np.array([[1.0, np.inf], [np.inf, 1.0]])],
        ids=["nan_diagonal", "inf_off_diagonal"],
    )
    def test_rejects_non_finite(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                fock.hermitian_eig(m)
            with pytest.raises(ValueError, match="non-finite"):
                fock.check_hermitian(m)

    def test_diagonal_comes_back_exactly(self):
        diagonal = np.array([0.5, -2.0, 3.0, 0.0, 1e-20, 0.5])
        lam, v = fock.hermitian_eig(np.diag(diagonal))
        assert np.array_equal(lam, np.sort(diagonal)[::-1])
        # each eigenvector is a unit vector of the standard basis
        assert np.array_equal(np.sort(np.abs(v), axis=0)[-1], np.ones(6))
        assert np.count_nonzero(v) == 6
        assert np.array_equal(reconstruct(lam, v), np.diag(diagonal))

    def test_empty_and_one_by_one(self):
        lam, v = fock.hermitian_eig(np.zeros((0, 0)))
        assert lam.shape == (0,) and v.shape == (0, 0)
        lam, v = fock.hermitian_eig(np.array([[2.5]]))
        assert lam.tolist() == [2.5]
        assert v.tolist() == [[1.0]]

    def test_appendix_b_difference_operator_is_union_of_block_spectra(self):
        # the 136-dim two_mode mixed states at |alpha| = 0.8 are a direct sum
        # of 16 photon-number blocks of sizes 1, 2, ..., 16
        spec = SymmetricFamilySpec("two_mode", 0.8)
        n_max = phase_rand.truncation_photon_number(spec.mean_photons, 1e-12)
        rho0, rho1 = (
            phase_rand.mixed_state_matrix(spec, label, n_max)
            for label in spec.family.labels
        )
        difference = 0.3 * rho0 - 0.7 * rho1
        assert difference.shape == (136, 136)
        sizes = np.arange(1, 17)
        ends = np.cumsum(sizes)
        blocks = [difference[i:j, i:j] for i, j in zip(ends - sizes, ends)]
        embedded = np.zeros_like(difference)
        for i, j, block in zip(ends - sizes, ends, blocks):
            embedded[i:j, i:j] = block
        assert np.array_equal(embedded, difference)
        union = np.sort(np.concatenate([fock.hermitian_eig(b)[0] for b in blocks]))
        whole = fock.hermitian_eig(difference)[0][::-1]
        assert np.max(np.abs(whole - union)) <= 1e-14 * np.linalg.norm(difference)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def permuted_block_matrix(seed=7):
    """Hermitian direct sum in a random index order.

    Blocks of sizes 1, 2, 5 and 16 (the last one a path: tridiagonal), plus
    a dense 3-block scaled by 1e-20.
    """
    rng = np.random.default_rng(seed)
    path = np.diag(rng.normal(size=16)).astype(complex)
    steps = rng.normal(size=15) + 1j * rng.normal(size=15)
    path[np.arange(15), np.arange(1, 16)] = steps
    path[np.arange(1, 16), np.arange(15)] = steps.conj()
    blocks = [random_hermitian(rng, n) for n in (1, 2, 5)]
    blocks += [path, 1e-20 * random_hermitian(rng, 3)]
    dim = sum(len(b) for b in blocks)
    perm = rng.permutation(dim)
    m = np.zeros((dim, dim), dtype=complex)
    start = 0
    for b in blocks:
        idx = perm[start : start + len(b)]
        m[np.ix_(idx, idx)] = b
        start += len(b)
    return m


class TestBlockStructuredEig:
    def test_eigenvalues_match_lapack(self):
        m = permuted_block_matrix()
        lam = fock.hermitian_eig(m)[0]
        expected = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(lam - expected)) < 1e-12 * np.linalg.norm(m)

    def test_reconstruction_and_orthonormality(self):
        m = permuted_block_matrix()
        lam, v = fock.hermitian_eig(m)
        assert np.linalg.norm(reconstruct(lam, v) - m) < 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(len(m))) < 1e-10

    def test_odd_dense_matrix(self):
        m = random_hermitian(np.random.default_rng(33), 33)
        lam, v = fock.hermitian_eig(m)
        expected = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(lam - expected)) < 1e-12 * np.linalg.norm(m)
        assert np.linalg.norm(reconstruct(lam, v) - m) < 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(33)) < 1e-10


class TestMatrixFunction:
    def test_sqrt_of_identity(self):
        out = fock.matrix_function(np.eye(4), math.sqrt)
        assert np.linalg.norm(out - np.eye(4)) < 1e-14

    def test_pseudo_inverse_sqrt_on_rank_deficient_diagonal(self):
        m = np.diag([4.0, 0.0])
        out = fock.matrix_function(m, lambda x: 1.0 / math.sqrt(x))
        assert np.linalg.norm(out - np.diag([0.5, 0.0])) < 1e-14

    def test_rejects_indefinite(self):
        with pytest.raises(fock.NotPositiveSemidefiniteError):
            fock.matrix_function(np.diag([1.0, -1.0]), math.sqrt)

    def test_clips_tiny_negative(self):
        out = fock.matrix_function(np.diag([1.0, -5e-11]), math.sqrt)
        assert np.linalg.norm(out - np.diag([1.0, 0.0])) < 1e-12

    def test_identity_map_projects_onto_support(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        q, _r = np.linalg.qr(v)
        m = q @ np.diag([2.0, 0.5]) @ q.conj().T  # rank 2 PSD
        projected = fock.matrix_function(m, lambda x: x)
        assert np.linalg.norm(projected - m) < 1e-12
        root = fock.matrix_function(m, math.sqrt)
        assert np.linalg.norm(root @ root - m) < 1e-9

    def test_inverse_sqrt_whitens_rank_deficient_state(self):
        # average of two rank-1 blocks embedded in a larger space
        rng = np.random.default_rng(21)
        basis = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
        rho = 0.7 * np.outer(basis[:, 0], basis[:, 0].conj())
        rho += 0.3 * np.outer(basis[:, 1], basis[:, 1].conj())
        inv_root = fock.matrix_function(rho, lambda x: 1.0 / math.sqrt(x))
        projector = fock.support_projector(rho)
        assert np.linalg.norm(inv_root @ rho @ inv_root - projector) < 1e-9
