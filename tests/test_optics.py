import math

import numpy as np
import pytest

from qsd import discrimination as disc
from qsd import optics
from qsd.optics import BeamSplitter, LinearCircuit
from qsd.symmetric import SymmetricFamilySpec

SQRT2 = math.sqrt(2.0)


class TestApplyCircuit:
    def test_balanced_splitter_on_equal_inputs(self):
        bs2 = optics.preset("bs2")
        out = optics.apply_circuit(bs2, [0.7, 0.7])
        assert np.allclose(out, [SQRT2 * 0.7, 0.0], atol=1e-15)

    def test_balanced_splitter_on_opposite_inputs(self):
        bs2 = optics.preset("bs2")
        out = optics.apply_circuit(bs2, [0.7, -0.7])
        assert np.allclose(out, [0.0, SQRT2 * 0.7], atol=1e-15)

    def test_fig3_routes_each_input_to_one_mode(self):
        fig3 = optics.preset("fig3")
        spec = SymmetricFamilySpec("four_mode", 1.0)
        expected_mode = {"00": 0, "01": 3, "11": 1, "10": 2}
        for label, amps in zip(spec.labels, spec.amplitude_vectors()):
            out = optics.apply_circuit(fig3, amps)
            hot = expected_mode[label]
            assert abs(abs(out[hot]) - 2.0) < 1e-14
            for mode in range(4):
                if mode != hot:
                    assert abs(out[mode]) < 1e-14

    def test_energy_conservation(self):
        rng = np.random.default_rng(13)
        fig3 = optics.preset("fig3")
        for _ in range(10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            out = optics.apply_circuit(fig3, amps)
            assert np.vdot(out, out).real == pytest.approx(
                np.vdot(amps, amps).real, abs=1e-12
            )

    def test_input_length_checked(self):
        with pytest.raises(ValueError):
            optics.apply_circuit(optics.preset("bs2"), [1.0, 2.0, 3.0])

    def test_bad_element_modes_rejected(self):
        with pytest.raises(ValueError):
            LinearCircuit(
                modes=2,
                elements=(BeamSplitter(0, 5),),
                detectors=(("D1", 0),),
                identify={"D1": "0"},
            )

    def test_duplicate_detector_mode_rejected(self):
        with pytest.raises(ValueError):
            LinearCircuit(
                modes=2,
                elements=(),
                detectors=(("D1", 0), ("D2", 0)),
                identify={"D1": "0", "D2": "1"},
            )


class TestClickStatistics:
    def test_fig3_click_probability(self):
        fig3 = optics.preset("fig3")
        spec = SymmetricFamilySpec("four_mode", 1.0)
        stats = optics.click_statistics(fig3, spec.amplitude_vectors()[0])
        probs = dict(stats.click_probability)
        assert probs["D3"] == pytest.approx(1.0 - math.exp(-4.0), abs=1e-15)
        for name in ("D1", "D2", "D4"):
            assert probs[name] == 0.0
        assert stats.no_click_probability == pytest.approx(math.exp(-4.0), abs=1e-15)
        assert stats.identified_label() == "00"

    def test_zero_input(self):
        fig3 = optics.preset("fig3")
        stats = optics.click_statistics(fig3, [0.0, 0.0, 0.0, 0.0])
        assert all(p == 0.0 for _n, p in stats.click_probability)
        assert stats.no_click_probability == 1.0
        assert stats.identified_label() is None

    def test_bs2_equal_inputs_match_unambiguous_failure(self):
        bs2 = optics.preset("bs2")
        alpha = 0.9
        stats = optics.click_statistics(bs2, [alpha, alpha])
        probs = dict(stats.click_probability)
        assert probs["D1"] == pytest.approx(1.0 - math.exp(-2.0 * alpha**2), abs=1e-15)
        assert probs["D2"] == 0.0
        # no-click probability is the unambiguous failure probability
        assert stats.no_click_probability == pytest.approx(
            math.exp(-2.0 * alpha**2), abs=1e-15
        )

    def test_phase_randomization_invariance(self):
        # a global phase on the input changes no click probability
        fig3 = optics.preset("fig3")
        spec = SymmetricFamilySpec("four_mode", 0.8)
        amps = spec.amplitude_vectors()[2]
        base = optics.click_statistics(fig3, amps)
        for theta in (0.3, 1.1, 2.9):
            rotated = np.exp(1j * theta) * amps
            stats = optics.click_statistics(fig3, rotated)
            for (n1, p1), (n2, p2) in zip(base.click_probability, stats.click_probability):
                assert n1 == n2
                assert p1 == pytest.approx(p2, abs=1e-14)


class TestMinErrorViaCircuit:
    def test_bs2_equiprobable_matches_closed_form(self):
        bs2 = optics.preset("bs2")
        for alpha in np.linspace(0.0, 2.5, 26):
            spec = SymmetricFamilySpec("two_mode", alpha)
            assert optics.min_error_via_circuit(bs2, spec) == pytest.approx(
                disc.two_mode_mixed_pcorr(alpha, 0.5), abs=1e-12
            )

    def test_bs2_with_priors(self):
        bs2 = optics.preset("bs2")
        for alpha in (0.0, 0.5, 1.0):
            spec = SymmetricFamilySpec("two_mode", alpha)
            value = optics.min_error_via_circuit(bs2, spec, priors=[0.75, 0.25])
            assert value == pytest.approx(
                disc.two_mode_mixed_pcorr(alpha, 0.25), abs=1e-12
            )

    @pytest.mark.parametrize("priors", ([1.5, -0.5], [math.nan, 1.0]))
    def test_negative_or_nan_prior_rejected(self, priors):
        # [1.5, -0.5] sums to 1; it gave 1.3033, no probability
        spec = SymmetricFamilySpec("two_mode", 0.5)
        with pytest.raises(ValueError, match="priors"):
            optics.min_error_via_circuit(optics.preset("bs2"), spec, priors)

    def test_fig3_matches_closed_form(self):
        fig3 = optics.preset("fig3")
        for alpha in np.linspace(0.0, 2.5, 26):
            spec = SymmetricFamilySpec("four_mode", alpha)
            assert optics.min_error_via_circuit(fig3, spec) == pytest.approx(
                disc.four_mode_mixed_pcorr(alpha), abs=1e-12
            )

    def test_zero_amplitude_guess_baselines(self):
        assert optics.min_error_via_circuit(
            optics.preset("bs2"), SymmetricFamilySpec("two_mode", 0.0)
        ) == pytest.approx(0.5, abs=1e-15)
        assert optics.min_error_via_circuit(
            optics.preset("fig3"), SymmetricFamilySpec("four_mode", 0.0)
        ) == pytest.approx(0.25, abs=1e-15)

    def test_ambiguous_identification_rejected(self):
        circuit = LinearCircuit(
            modes=2,
            elements=(BeamSplitter(0, 1),),
            detectors=(("D1", 0), ("D2", 1)),
            identify={"D1": "0", "D2": "0"},
        )
        with pytest.raises(ValueError):
            optics.min_error_via_circuit(circuit, SymmetricFamilySpec("two_mode", 1.0))

    def test_missing_label_rejected(self):
        circuit = LinearCircuit(
            modes=2,
            elements=(BeamSplitter(0, 1),),
            detectors=(("D1", 0),),
            identify={"D1": "0"},
        )
        with pytest.raises(ValueError):
            optics.min_error_via_circuit(circuit, SymmetricFamilySpec("two_mode", 1.0))

    def test_leaking_circuit_rejected(self):
        # identity circuit: every detector sees amplitude for every input
        circuit = LinearCircuit(
            modes=2,
            elements=(),
            detectors=(("D1", 0), ("D2", 1)),
            identify={"D1": "0", "D2": "1"},
        )
        with pytest.raises(ValueError):
            optics.min_error_via_circuit(circuit, SymmetricFamilySpec("two_mode", 1.0))


class TestSinglePhotonSector:
    def test_transfer_matrix_is_unitary(self):
        for name in ("bs2", "fig3"):
            t = optics.transfer_matrix(optics.preset(name))
            assert np.linalg.norm(t.conj().T @ t - np.eye(t.shape[0])) < 1e-14

    def test_four_mode_single_photon_states_become_orthonormal(self):
        # the one-photon components of the four-mode family map to distinct
        # detector modes, i.e. to an orthonormal quartet
        t = optics.transfer_matrix(optics.preset("fig3"))
        spec = SymmetricFamilySpec("four_mode", 0.5)
        images = []
        for v in spec.amplitude_vectors():
            u = np.asarray(v) / np.linalg.norm(v)
            images.append(t @ u)
        gram = np.array([[np.vdot(a, b) for b in images] for a in images])
        assert np.linalg.norm(gram - np.eye(4)) < 1e-10


def test_unknown_preset():
    with pytest.raises(ValueError):
        optics.preset("fig4")
