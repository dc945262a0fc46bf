"""Named verification suites cross-checking every route against the others.

Each suite returns a list of CheckResult rows; a check compares an analytic
value against an independently computed one (brute-force measurement, dense
eigensolver, multinomial sum, circuit simulation) at a fixed tolerance.
The CLI renders them as one `PASS|FAIL  <check-id>  <max-error>` line each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import discrimination as disc
from . import fock, optics, oracle, phase_rand, symmetric
from .symmetric import SymmetricFamilySpec

COHERENT_TAGS = ("two_mode", "three_mode", "four_mode", "phase_encoded")

SUITE_NAMES = ("fock", "gram", "families", "appendix_a", "appendix_b", "circuit")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    error: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.check_id}  {self.error:.3e}"


def _check(check_id: str, error: float, tol: float) -> CheckResult:
    return CheckResult(check_id, bool(error < tol), float(error))


# ---------------------------------------------------------------------------
# fock


def suite_fock() -> list[CheckResult]:
    results = []

    # total subspace weight equals the Poisson photon-number distribution
    worst = 0.0
    for alphas in [(0.7, 0.7), (1.0, -1.0, 1.0j), (0.5, 0.5, 0.5, -0.5)]:
        mean = sum(abs(complex(a)) ** 2 for a in alphas)
        for n in range(0, 13):
            basis = fock.enumerate_subspace(len(alphas), n)
            amps = fock.subspace_amplitudes(alphas, basis)
            p_n = phase_rand.poisson_weights(mean, n)[n]
            worst = max(worst, abs(float(np.vdot(amps, amps).real) - p_n))
    results.append(_check("fock.poisson_block_weights", worst, 1e-12))

    # eigensolver sanity on seeded dense Hermitian matrices
    rng = np.random.default_rng(20240915)
    worst_trace = worst_recon = worst_orth = 0.0
    for dim in (4, 8, 16, 32):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m + m.conj().T
        dec = fock.hermitian_eig(m)
        worst_trace = max(
            worst_trace, abs(dec.eigenvalues.sum() - np.trace(m).real)
        )
        worst_recon = max(
            worst_recon, float(np.linalg.norm(dec.reconstruct() - m))
        )
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        worst_orth = max(worst_orth, float(np.linalg.norm(gram - np.eye(dim))))
    results.append(_check("fock.eig_trace_sum", worst_trace, 1e-10))
    results.append(_check("fock.eig_reconstruction", worst_recon, 1e-9))
    results.append(_check("fock.eig_orthonormality", worst_orth, 1e-10))

    # matrix functions: identity maps to support projection, sqrt squares back
    spec = SymmetricFamilySpec("two_mode", 0.5)
    n_max = phase_rand.truncation_photon_number(spec.mean_photons, 1e-10)
    rho = 0.5 * (
        phase_rand.mixed_state_matrix(spec, "0", n_max).to_dense()
        + phase_rand.mixed_state_matrix(spec, "1", n_max).to_dense()
    )
    projector = fock.support_projector(rho)
    ident = fock.matrix_function(rho, lambda x: x)
    root = fock.matrix_function(rho, math.sqrt)
    inv_root = fock.matrix_function(rho, lambda x: 1.0 / math.sqrt(x))
    results.append(
        _check(
            "fock.matrix_function_identity",
            float(np.linalg.norm(ident - projector @ rho @ projector)),
            1e-9,
        )
    )
    results.append(
        _check(
            "fock.matrix_function_sqrt_square",
            float(np.linalg.norm(root @ root - ident)),
            1e-9,
        )
    )
    results.append(
        _check(
            "fock.matrix_function_inv_sqrt",
            float(np.linalg.norm(inv_root @ rho @ inv_root - projector)),
            1e-9,
        )
    )
    return results


# ---------------------------------------------------------------------------
# gram


def suite_gram() -> list[CheckResult]:
    results = []

    # DFT eigenvalues of the circulant Gram match the dense eigensolver
    worst = 0.0
    for tag in COHERENT_TAGS:
        spec = SymmetricFamilySpec(tag, 1.0)
        for n in range(0, 21):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, n))
            if not gram.circulant:
                return [CheckResult(f"gram.circulant_structure.{tag}", False, 1.0)]
            dft = np.sort(symmetric.circulant_eigenvalues(gram))
            dense = np.sort(fock.hermitian_eig(gram.entries).eigenvalues)
            worst = max(worst, float(np.max(np.abs(dft - dense))))
    results.append(_check("gram.dft_vs_dense_eigenvalues", worst, 1e-10))

    # computed per-subspace overlaps match their closed forms
    worst = 0.0
    for tag in COHERENT_TAGS:
        spec = SymmetricFamilySpec(tag, 0.9)
        for n in range(0, 31):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, n))
            row = disc.subspace_overlaps(tag, n)
            worst = max(worst, float(np.max(np.abs(gram.entries[0] - row))))
    results.append(_check("gram.closed_form_overlaps", worst, 1e-12))

    # sum over a subspace of 1/prod(n_m!) equals M^N / N!
    worst = 0.0
    for n in range(0, 31):
        basis = fock.enumerate_subspace(3, n)
        lf = fock.log_factorials(n)
        total = float(np.exp(-lf[basis.occupation_array].sum(axis=1)).sum())
        target = 3.0**n / math.factorial(n)
        worst = max(worst, abs(total - target) / target)
    results.append(_check("gram.multinomial_normalization", worst, 1e-12))
    return results


# ---------------------------------------------------------------------------
# families


def suite_families(tail_tol: float = 1e-12) -> list[CheckResult]:
    results = []

    # exact closed-form benchmarks
    exact = max(
        abs(disc.two_mode_mixed_pcorr(1.0, 0.5) - (1.0 - math.exp(-2.0) / 2.0)),
        abs(disc.four_mode_mixed_pcorr(1.0) - (1.0 - 0.75 * math.exp(-4.0))),
        abs(disc.four_mode_unambiguous(1.0) - (1.0 - math.exp(-4.0))),
    )
    results.append(_check("families.closed_form_benchmarks", exact, 1e-14))

    # qutrit square-root measurement
    qutrit = SymmetricFamilySpec("qutrit")
    _povm, success = oracle.srm(qutrit.fixed_state_vectors(), [0.25] * 4)
    results.append(_check("families.qutrit_srm", abs(success - 0.75), 1e-10))

    # series route vs Gram-eigenvalue route
    worst = 0.0
    for tag in COHERENT_TAGS:
        for alpha in (0.3, 0.7, 1.2):
            series = phase_rand.decompose(SymmetricFamilySpec(tag, alpha), tail_tol)
            via_gram = sum(
                p * symmetric.srm_success_from_gram(g)
                for p, g in zip(series.weights, series.per_n_gram)
            )
            closed = disc.family_pcorr(tag, "mixed", alpha, tail_tol=tail_tol)
            worst = max(worst, abs(via_gram - closed))
    results.append(_check("families.series_vs_gram_route", worst, 1e-10))

    # closed forms vs the brute-force block oracle
    worst = 0.0
    for tag in COHERENT_TAGS:
        for alpha in (0.3, 0.7, 1.2):
            spec = SymmetricFamilySpec(tag, alpha)
            weights, blocks = phase_rand.subspace_state_blocks(spec, tail_tol)
            block = oracle.block_srm(blocks, weights)
            closed = disc.family_pcorr(tag, "mixed", alpha, tail_tol=tail_tol)
            worst = max(worst, abs(block - closed))
    results.append(_check("families.closed_form_vs_block_srm", worst, 1e-8))

    # curve shape: start at guessing, rise monotonically, saturate; mixed <= pure
    grid = np.linspace(0.0, 3.0, 200)
    worst_start = worst_mono = worst_order = worst_tail = 0.0
    for tag in COHERENT_TAGS:
        guess = 0.5 if tag == "two_mode" else 0.25
        curves = {}
        for variant in ("pure", "mixed"):
            values = curves[variant] = [
                disc.family_pcorr(tag, variant, a, tail_tol=tail_tol) for a in grid
            ]
            worst_start = max(worst_start, abs(values[0] - guess))
            worst_mono = max(
                worst_mono,
                max(
                    (values[i] - values[i + 1] for i in range(len(values) - 1)),
                    default=0.0,
                ),
            )
            worst_tail = max(worst_tail, 0.999 - values[-1])
        gap = min(p - m for p, m in zip(curves["pure"], curves["mixed"]))
        worst_order = max(worst_order, -gap)
    results.append(_check("families.pcorr_starts_at_guessing", worst_start, 1e-12))
    results.append(_check("families.pcorr_monotone", worst_mono, 1e-8))
    results.append(_check("families.pcorr_saturates", worst_tail, 1e-12))
    results.append(_check("families.mixed_below_pure", worst_order, 1e-12))

    # the pure-minus-mixed gap peaks near one quarter
    worst = 0.0
    for tag in ("three_mode", "four_mode", "phase_encoded"):
        _a, peak = disc.delta_pcorr_max(tag, tail_tol=tail_tol)
        worst = max(worst, abs(peak - 0.25))
    results.append(_check("families.delta_pcorr_peak_band", worst, 0.05))

    # oblivious-transfer relations between cheating and honest success
    worst_linear = worst_square = 0.0
    for alpha in np.linspace(0.025, 2.5, 100):
        for tag, variant in (
            ("three_mode", "mixed"),
            ("four_mode", "pure"),
            ("four_mode", "mixed"),
        ):
            b = disc.family_bot(tag, variant, alpha, tail_tol)
            p = disc.family_p1bit(tag, variant, alpha, tail_tol)
            worst_linear = max(worst_linear, abs(b - (1.5 * p - 0.5)))
        b = disc.family_bot("three_mode", "pure", alpha, tail_tol)
        p = disc.family_p1bit("three_mode", "pure", alpha, tail_tol)
        worst_square = max(worst_square, abs(b - p * p))
    results.append(_check("families.bot_linear_in_p1bit", worst_linear, 1e-10))
    results.append(_check("families.bot_square_three_mode_pure", worst_square, 1e-10))

    # phase randomization helps the phase-encoded protocol above p_1bit ~ 0.8
    report = disc.phase_encoded_ot_crossover(tail_tol=tail_tol)
    lower = report.lower_bound
    if lower is None:
        results.append(CheckResult("families.phase_encoded_crossover", False, 1.0))
    else:
        results.append(_check("families.phase_encoded_crossover", abs(lower - 0.8), 0.1))
    return results


# ---------------------------------------------------------------------------
# appendix_a: direct-sum structure of phase-randomized states


def _rank1_projector_defect(u: np.ndarray) -> float:
    """||u - w w^+||_F + | ||w||^2 - 1 |, zero iff u is a rank-1 projector.

    w = u[:, j] / sqrt(u_jj) for the column j with the largest real diagonal,
    or w = 0 when no diagonal is positive (then u is no rank-1 projector and
    the defect is ||u||_F + 1).  O(d^2); overwrites u.
    """
    j = int(np.argmax(u.diagonal().real))
    pivot = float(u[j, j].real)
    w = u[:, j] / math.sqrt(pivot) if pivot > 0.0 else np.zeros(u.shape[0], complex)
    u -= np.outer(w, w.conj())
    return float(np.linalg.norm(u)) + abs(float(np.vdot(w, w).real) - 1.0)


def _block_purity_defect(spec: SymmetricFamilySpec) -> float:
    """Worst rank-1 projector defect of every member's renormalized blocks.

    Blocks are streamed from `randomized_blocks` and renormalized in place,
    so no member's whole density matrix is ever held.
    """
    n_max = phase_rand.truncation_photon_number(spec.mean_photons, 1e-10)
    weights = phase_rand.poisson_weights(spec.mean_photons, n_max)
    worst = 0.0
    for amplitudes in spec.amplitude_vectors():
        state = phase_rand.CoherentStateVector(tuple(amplitudes))
        for p_n, block in zip(weights, phase_rand.randomized_blocks(state, n_max)):
            block /= p_n
            worst = max(worst, _rank1_projector_defect(block))
    return worst


def suite_appendix_a(tail_tol: float = 1e-12) -> list[CheckResult]:
    results = []

    # each photon-number block, renormalized, is a rank-1 projector
    worst = max(
        _block_purity_defect(SymmetricFamilySpec(tag, 0.7)) for tag in COHERENT_TAGS
    )
    results.append(_check("appendix_a.block_purity", worst, 1e-10))

    # the generating unitary maps neighbours onto each other, and U^L = 1
    worst_map = worst_power = 0.0
    for tag in COHERENT_TAGS:
        spec = SymmetricFamilySpec(tag, 0.8)
        order = spec.n_states
        for n in range(0, 9):
            u = phase_rand.subspace_symmetry_unitary(tag, n)
            power = np.linalg.matrix_power(u, order)
            worst_power = max(
                worst_power, float(np.linalg.norm(power - np.eye(u.shape[0])))
            )
            states = symmetric.subspace_states(spec, n)
            for k in range(order - 1):
                mapped = u @ states[k]
                worst_map = max(
                    worst_map, float(np.linalg.norm(mapped - states[k + 1]))
                )
    results.append(_check("appendix_a.symmetry_unitary_cycles", worst_map, 1e-10))
    results.append(_check("appendix_a.symmetry_unitary_order", worst_power, 1e-10))

    # one global square-root measurement equals the per-block combination
    worst = 0.0
    for tag in COHERENT_TAGS:
        for alpha in (0.3, 0.7, 1.2):
            spec = SymmetricFamilySpec(tag, alpha)
            weights, blocks = phase_rand.subspace_state_blocks(spec, tail_tol)
            block = oracle.block_srm(blocks, weights)
            _povm, whole = oracle.whole_matrix_srm(blocks, weights)
            worst = max(worst, abs(block - whole))
    results.append(_check("appendix_a.block_vs_whole_srm", worst, 1e-9))
    return results


# ---------------------------------------------------------------------------
# appendix_b: two-mode SRM vs Helstrom


def suite_appendix_b(tail_tol: float = 1e-12) -> list[CheckResult]:
    results = []
    worst_hel = worst_equal = worst_offvac = worst_split = 0.0
    for p0 in (0.5, 0.3):
        for alpha in (0.2, 0.8):
            report = oracle.verify_appendix_b(alpha, p0, tail_tol)
            worst_hel = max(
                worst_hel, abs(report.helstrom_success - report.mixed_closed_form)
            )
            worst_offvac = max(worst_offvac, report.off_vacuum_distance)
            worst_split = max(
                worst_split,
                abs(report.vacuum_split[0] - p0),
                abs(report.vacuum_split[1] - (1.0 - p0)),
            )
            if p0 == 0.5:
                worst_equal = max(worst_equal, abs(report.success_gap))
    results.append(_check("appendix_b.helstrom_closed_form", worst_hel, 1e-8))
    results.append(_check("appendix_b.srm_equals_helstrom_at_half", worst_equal, 1e-9))
    results.append(_check("appendix_b.povm_match_off_vacuum", worst_offvac, 1e-9))
    results.append(_check("appendix_b.srm_vacuum_split", worst_split, 1e-9))

    # per-block blind check of the mixed two-mode family against the closed form
    worst = 0.0
    for p0 in (0.5, 0.3):
        for alpha in (0.2, 0.8):
            spec = SymmetricFamilySpec("two_mode", alpha)
            n_max = phase_rand.truncation_photon_number(spec.mean_photons, tail_tol)
            rho0 = phase_rand.mixed_state_matrix(spec, "0", n_max).to_dense()
            rho1 = phase_rand.mixed_state_matrix(spec, "1", n_max).to_dense()
            _povm, p_corr = oracle.helstrom_two(rho0, rho1, p0)
            worst = max(worst, abs(p_corr - disc.two_mode_mixed_pcorr(alpha, p0)))
    results.append(_check("appendix_b.helstrom_original_basis", worst, 1e-8))
    return results


# ---------------------------------------------------------------------------
# circuit


def suite_circuit() -> list[CheckResult]:
    results = []
    fig3 = optics.preset("fig3")
    bs2 = optics.preset("bs2")

    # fig3: single hot detector of amplitude 2 alpha, mapped per assignment
    spec4 = SymmetricFamilySpec("four_mode", 0.9)
    detector_mode = dict(fig3.detectors)
    worst_leak = worst_amp = 0.0
    map_ok = True
    for label, amps in zip(spec4.labels, spec4.amplitude_vectors()):
        out = optics.apply_circuit(fig3, amps)
        hot = [name for name, mode in fig3.detectors if abs(out[mode]) > 1e-12]
        if len(hot) != 1 or fig3.identify[hot[0]] != label:
            map_ok = False
            continue
        worst_amp = max(
            worst_amp, abs(abs(out[detector_mode[hot[0]]]) - 2.0 * spec4.amplitude)
        )
        for name, mode in fig3.detectors:
            if name != hot[0]:
                worst_leak = max(worst_leak, abs(out[mode]))
    results.append(
        CheckResult("circuit.fig3_identification_map", map_ok, 0.0 if map_ok else 1.0)
    )
    results.append(_check("circuit.fig3_exclusivity", worst_leak, 1e-12))
    results.append(_check("circuit.fig3_hot_amplitude", worst_amp, 1e-12))

    # energy conservation through both presets
    worst = 0.0
    rng = np.random.default_rng(7)
    for circuit in (bs2, fig3):
        for _ in range(8):
            amps = rng.normal(size=circuit.modes) + 1j * rng.normal(size=circuit.modes)
            out = optics.apply_circuit(circuit, amps)
            worst = max(
                worst,
                abs(float(np.vdot(out, out).real - np.vdot(amps, amps).real)),
            )
    results.append(_check("circuit.energy_conservation", worst, 1e-12))

    # circuit minimum-error success equals the closed forms
    worst2 = worst4 = 0.0
    for alpha in np.linspace(0.0, 2.0, 41):
        s2 = SymmetricFamilySpec("two_mode", alpha)
        s4 = SymmetricFamilySpec("four_mode", alpha)
        worst2 = max(
            worst2,
            abs(
                optics.min_error_via_circuit(bs2, s2)
                - disc.two_mode_mixed_pcorr(alpha, 0.5)
            ),
        )
        worst4 = max(
            worst4,
            abs(
                optics.min_error_via_circuit(fig3, s4)
                - disc.four_mode_mixed_pcorr(alpha)
            ),
        )
    results.append(_check("circuit.bs2_matches_closed_form", worst2, 1e-12))
    results.append(_check("circuit.fig3_matches_closed_form", worst4, 1e-12))

    # beam splitter acts as (sum, difference)/sqrt(2) on equal inputs
    alpha = 0.8
    out0 = optics.apply_circuit(bs2, [alpha, alpha])
    out1 = optics.apply_circuit(bs2, [alpha, -alpha])
    bs_err = max(
        abs(out0[0] - math.sqrt(2.0) * alpha),
        abs(out0[1]),
        abs(out1[0]),
        abs(out1[1] - math.sqrt(2.0) * alpha),
    )
    results.append(_check("circuit.bs2_sum_difference", float(bs_err), 1e-12))

    # single-photon restriction: the four-mode inputs become orthonormal outputs
    transfer = optics.transfer_matrix(fig3)
    spec = SymmetricFamilySpec("four_mode", 0.5)
    vectors = [v / np.linalg.norm(v) for v in spec.amplitude_vectors()]
    images = [transfer @ v for v in vectors]
    gram = np.array([[np.vdot(a, b) for b in images] for a in images])
    worst = float(np.linalg.norm(gram - np.eye(4)))
    results.append(_check("circuit.single_photon_orthonormal", worst, 1e-10))
    return results


# ---------------------------------------------------------------------------


def run_suite(name: str, tail_tol: float = 1e-12) -> list[CheckResult]:
    if name == "all":
        out: list[CheckResult] = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, tail_tol))
        return out
    if name == "fock":
        return suite_fock()
    if name == "gram":
        return suite_gram()
    if name == "families":
        return suite_families(tail_tol)
    if name == "appendix_a":
        return suite_appendix_a(tail_tol)
    if name == "appendix_b":
        return suite_appendix_b(tail_tol)
    if name == "circuit":
        return suite_circuit()
    raise ValueError(f"unknown suite {name!r}")
