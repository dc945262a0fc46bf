"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints a PASS line (visible with `pytest -s` or on failure) after
all of its assertions hold, so the suite doubles as a human-readable report.
"""

import math
import time

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import fock, optics, oracle, phase_rand, symmetric
from qsd.symmetric import SymmetricFamilySpec

COHERENT_TAGS = ("two_mode", "three_mode", "four_mode", "phase_encoded")

MIXED_CLOSED_FORM = {
    "two_mode": lambda a, tol: disc.two_mode_mixed_pcorr(a, 0.5),
    "three_mode": lambda a, tol: disc.three_mode_mixed_pcorr(a, tol)[0],
    "four_mode": lambda a, tol: disc.four_mode_mixed_pcorr(a),
    "phase_encoded": lambda a, tol: disc.phase_encoded_mixed_pcorr(a, tol)[0],
}


def report(criterion: str, detail: str) -> None:
    print(f"PASS  {criterion}  {detail}")


def test_criterion_1_closed_form_reproduction():
    errs = [
        abs(disc.two_mode_mixed_pcorr(1.0, 0.5) - (1.0 - math.exp(-2.0) / 2.0)),
        abs(disc.four_mode_mixed_pcorr(1.0) - (1.0 - 0.75 * math.exp(-4.0))),
        abs(disc.four_mode_unambiguous(1.0) - (1.0 - math.exp(-4.0))),
    ]
    assert max(errs) < 1e-14
    report("criterion-1-closed-forms", f"max_err={max(errs):.3e} (tol 1e-14)")


def test_criterion_2_qutrit_benchmark():
    start = time.monotonic()
    vectors = symmetric.FAMILIES["three_mode"].unit_vectors()
    _povm, success = oracle.srm(vectors, [0.25] * 4)
    elapsed = time.monotonic() - start
    assert abs(success - 0.75) < 1e-10
    assert elapsed < 1.0
    report(
        "criterion-2-qutrit-srm",
        f"success={success:.12f} err={abs(success - 0.75):.3e} ({elapsed:.2f}s)",
    )


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    tail_tol = 1e-12
    worst_closed = worst_whole = 0.0
    for tag in COHERENT_TAGS:
        for alpha in (0.3, 0.7, 1.2):
            spec = SymmetricFamilySpec(tag, alpha)
            weights, blocks = phase_rand.subspace_state_blocks(spec, tail_tol)
            block_value = oracle.block_srm(blocks, weights)
            closed = MIXED_CLOSED_FORM[tag](alpha, tail_tol)
            _povm, whole_value = oracle.whole_matrix_srm(blocks, weights)
            worst_closed = max(worst_closed, abs(block_value - closed))
            worst_whole = max(worst_whole, abs(block_value - whole_value))
    elapsed = time.monotonic() - start
    assert worst_closed < 1e-8
    assert worst_whole < 1e-9
    assert elapsed < 60.0
    report(
        "criterion-3-oracle-equivalence",
        f"closed_vs_block={worst_closed:.3e} block_vs_whole={worst_whole:.3e} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_4_helstrom_equivalence():
    start = time.monotonic()
    worst_success = worst_povm = 0.0
    for p0 in (0.5, 0.3):
        for alpha in (0.2, 0.8):
            result = oracle.verify_appendix_b(alpha, p0, tail_tol=1e-12)
            worst_success = max(
                worst_success,
                abs(result.helstrom_success - disc.two_mode_mixed_pcorr(alpha, p0)),
            )
            if p0 == 0.5:
                worst_povm = max(worst_povm, result.off_vacuum_distance)
    elapsed = time.monotonic() - start
    assert worst_success < 1e-8
    assert worst_povm < 1e-9
    assert elapsed < 10.0
    report(
        "criterion-4-helstrom-equivalence",
        f"success_err={worst_success:.3e} off_vacuum={worst_povm:.3e} ({elapsed:.2f}s)",
    )


def test_criterion_5_ot_relations():
    start = time.monotonic()
    grid = np.linspace(0.025, 2.5, 100)
    worst_linear = worst_square = 0.0
    for alpha in grid:
        for tag, variant in (
            ("three_mode", "mixed"),
            ("four_mode", "pure"),
            ("four_mode", "mixed"),
        ):
            b = disc.family_bot(tag, variant, alpha)
            p = disc.family_p1bit(tag, variant, alpha)
            worst_linear = max(worst_linear, abs(b - (1.5 * p - 0.5)))
        b = disc.family_bot("three_mode", "pure", alpha)
        p = disc.family_p1bit("three_mode", "pure", alpha)
        worst_square = max(worst_square, abs(b - p * p))
    elapsed = time.monotonic() - start
    assert worst_linear < 1e-10
    assert worst_square < 1e-10
    assert elapsed < 30.0
    report(
        "criterion-5-ot-relations",
        f"linear={worst_linear:.3e} square={worst_square:.3e} ({elapsed:.2f}s)",
    )


def test_criterion_6_circuits():
    fig3 = optics.preset("fig3")
    bs2 = optics.preset("bs2")

    # exclusivity and the documented detector assignment
    assignment = {"00": "D3", "01": "D4", "11": "D1", "10": "D2"}
    spec = SymmetricFamilySpec("four_mode", 1.0)
    detector_mode = dict(fig3.detectors)
    for label, amps in zip(spec.family.labels, spec.amplitude_vectors()):
        out = optics.apply_circuit(fig3, amps)
        hot = assignment[label]
        for name, mode in fig3.detectors:
            if name == hot:
                assert abs(abs(out[mode]) - 2.0) < 1e-12
            else:
                assert abs(out[mode]) < 1e-12
        assert fig3.identify[hot] == label

    # circuit success equals the closed forms on a grid
    worst4 = worst2 = 0.0
    for alpha in np.linspace(0.0, 2.5, 51):
        worst4 = max(
            worst4,
            abs(
                optics.min_error_via_circuit(fig3, SymmetricFamilySpec("four_mode", alpha))
                - disc.four_mode_mixed_pcorr(alpha)
            ),
        )
        worst2 = max(
            worst2,
            abs(
                optics.min_error_via_circuit(bs2, SymmetricFamilySpec("two_mode", alpha))
                - disc.two_mode_mixed_pcorr(alpha, 0.5)
            ),
        )
    assert worst4 < 1e-12
    assert worst2 < 1e-12

    # bs2 reproduces the (sum, difference)/sqrt(2) beam-splitter action
    alpha = 0.7
    assert np.allclose(
        optics.apply_circuit(bs2, [alpha, alpha]),
        [math.sqrt(2.0) * alpha, 0.0],
        atol=1e-14,
    )
    assert np.allclose(
        optics.apply_circuit(bs2, [alpha, -alpha]),
        [0.0, math.sqrt(2.0) * alpha],
        atol=1e-14,
    )
    report("criterion-6-circuits", f"fig3_err={worst4:.3e} bs2_err={worst2:.3e}")


def test_criterion_7_figure_shape_properties():
    start = time.monotonic()
    grid = np.linspace(0.0, 3.0, 200)
    for tag in COHERENT_TAGS:
        floor = 0.5 if tag == "two_mode" else 0.25
        for variant in ("pure", "mixed"):
            values = np.array([disc.family_pcorr(tag, variant, a) for a in grid])
            assert abs(values[0] - floor) < 1e-12
            assert np.all(np.diff(values) >= -1e-8)
            assert values[-1] > 0.999
        pure = np.array([disc.family_pcorr(tag, "pure", a) for a in grid])
        mixed = np.array([disc.family_pcorr(tag, "mixed", a) for a in grid])
        assert np.all(pure - mixed >= -1e-12)
    # two-state family with unequal priors starts at 1 - p_min
    assert abs(disc.two_mode_mixed_pcorr(0.0, 0.25) - 0.75) < 1e-14
    assert abs(disc.two_mode_pure_pcorr(0.0, 0.25) - 0.75) < 1e-14

    peaks = {}
    for tag in ("three_mode", "four_mode", "phase_encoded"):
        _alpha, peak = disc.delta_pcorr_max(tag)
        assert 0.2 <= peak <= 0.3
        peaks[tag] = peak
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(
        "criterion-7-figure-shapes",
        "delta_peaks="
        + " ".join(f"{tag}={peak:.4f}" for tag, peak in peaks.items())
        + f" ({elapsed:.2f}s)",
    )


def test_criterion_8_circulant_spectral_check():
    start = time.monotonic()
    worst = 0.0
    for tag in COHERENT_TAGS:
        spec = SymmetricFamilySpec(tag, 1.0)
        for photons in range(0, 21):
            gram = symmetric.gram_matrix(symmetric.subspace_states(spec, photons))
            dft = np.sort(symmetric.circulant_eigenvalues(gram))
            dense = np.sort(fock.hermitian_eig(gram)[0])
            worst = max(worst, float(np.max(np.abs(dft - dense))))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    report(
        "criterion-8-circulant-spectra",
        f"multiset_err={worst:.3e} ({elapsed:.2f}s)",
    )


def test_criterion_9_phase_encoded_crossover():
    intervals = disc.phase_encoded_ot_crossover()
    assert intervals, "no region where phase randomization helps"
    lower, upper = intervals[0]
    assert 0.7 <= lower <= 0.9
    report("criterion-9-crossover", f"region=({lower:.4f}, {upper:.4f})")
