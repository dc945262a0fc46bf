"""Coherent-state linear optics: beam-splitter circuits and click statistics.

Coherent amplitudes transform linearly through passive elements, so a whole
circuit is just a sequence of 2x2 balanced beam-splitter maps
(a, b) -> ((a+b)/sqrt(2), (a-b)/sqrt(2)) acting on the amplitude vector.
Threshold detectors on the outputs click with probability 1 - exp(-|beta|^2);
a uniform random global phase on the input drops out of every |beta|, so
phase randomization leaves all click statistics unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .symmetric import SymmetricFamilySpec

_SQRT2 = math.sqrt(2.0)

#: Detector amplitudes (and click probabilities) at or below this are dark.
AMPLITUDE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BeamSplitter:
    """Balanced 50/50 splitter between two modes, (sum, difference)/sqrt(2)."""

    mode_a: int
    mode_b: int


@dataclass(frozen=True)
class LinearCircuit:
    """Ordered passive elements plus labelled threshold detectors.

    `detectors` maps a detector name to the output mode it watches;
    `identify` maps a detector name to the state label a click announces.
    """

    modes: int
    elements: tuple[BeamSplitter, ...]
    detectors: tuple[tuple[str, int], ...]
    identify: Mapping[str, str]

    def __post_init__(self) -> None:
        for element in self.elements:
            for m in (element.mode_a, element.mode_b):
                if not 0 <= m < self.modes:
                    raise ValueError(f"element mode {m} out of range")
        seen = set()
        for name, mode in self.detectors:
            if not 0 <= mode < self.modes:
                raise ValueError(f"detector {name} watches missing mode {mode}")
            if mode in seen:
                raise ValueError(f"mode {mode} has two detectors")
            seen.add(mode)


@dataclass(frozen=True)
class ClickDistribution:
    """Per-detector click probabilities for one input state."""

    click_probability: tuple[tuple[str, float], ...]
    no_click_probability: float
    identify: Mapping[str, str]

    def identified_label(self) -> str | None:
        """Label announced by the (single) detector that can click, if any."""
        hot = [name for name, p in self.click_probability if p > AMPLITUDE_TOLERANCE]
        if len(hot) == 1:
            return self.identify.get(hot[0])
        return None


def apply_circuit(circuit: LinearCircuit, amplitudes: Sequence[complex]) -> np.ndarray:
    """Output amplitude vector after all elements, input left untouched."""
    out = np.asarray(amplitudes, dtype=np.complex128).copy()
    if out.shape != (circuit.modes,):
        raise ValueError(f"expected {circuit.modes} amplitudes, got {out.shape}")
    for element in circuit.elements:
        a, b = out[element.mode_a], out[element.mode_b]
        out[element.mode_a] = (a + b) / _SQRT2
        out[element.mode_b] = (a - b) / _SQRT2
    return out


def transfer_matrix(circuit: LinearCircuit) -> np.ndarray:
    """Mode unitary of the circuit (columns are outputs of basis inputs)."""
    cols = [apply_circuit(circuit, col) for col in np.eye(circuit.modes)]
    return np.column_stack(cols)


def click_statistics(
    circuit: LinearCircuit, amplitudes: Sequence[complex]
) -> ClickDistribution:
    """Threshold-detector statistics for one coherent input.

    An energy that overflows to inf clicks with probability 1, its exact limit.
    """
    out = apply_circuit(circuit, amplitudes)
    probs = []
    total_energy = 0.0
    for name, mode in circuit.detectors:
        with np.errstate(over="ignore"):
            energy = abs(out[mode]) ** 2
        total_energy += energy
        probs.append((name, 1.0 - math.exp(-energy)))
    return ClickDistribution(tuple(probs), math.exp(-total_energy), circuit.identify)


def min_error_via_circuit(
    circuit: LinearCircuit,
    spec: SymmetricFamilySpec,
    priors: Sequence[float] | None = None,
) -> float:
    """Minimum-error success of the circuit measurement on a coherent family.

    Each input must light exactly one detector, whose label identifies it;
    a no-click round is resolved by guessing the highest-prior label.  The
    result is sum_i p_i [P(correct click | i) + 1{i = guess} P(no click | i)].
    """
    labels = spec.family.labels
    if priors is None:
        priors = [1.0 / len(labels)] * len(labels)
    if len(priors) != len(labels) or abs(sum(priors) - 1.0) > 1e-12:
        raise ValueError("priors must match the family labels and sum to 1")
    if not all(p >= 0 for p in priors):  # also rejects nan
        raise ValueError(f"priors {list(priors)} are not all numbers >= 0")
    label_to_detector: dict[str, str] = {}
    for name, label in circuit.identify.items():
        if label in label_to_detector:
            raise ValueError(f"label {label!r} identified by two detectors")
        label_to_detector[label] = name
    for label in labels:
        if label not in label_to_detector:
            raise ValueError(f"circuit does not identify label {label!r}")

    guess = labels[int(np.argmax(priors))]
    detector_mode = dict(circuit.detectors)
    success = 0.0
    for label, prior, amps in zip(labels, priors, spec.amplitude_vectors()):
        out = apply_circuit(circuit, amps)
        correct_mode = detector_mode[label_to_detector[label]]
        for name, mode in circuit.detectors:
            if mode != correct_mode and abs(out[mode]) > AMPLITUDE_TOLERANCE:
                raise ValueError(
                    f"input {label!r} leaks amplitude {out[mode]:.3e} into {name}"
                )
        energies = [abs(out[mode]) ** 2 for _name, mode in circuit.detectors]
        p_click = 1.0 - math.exp(-abs(out[correct_mode]) ** 2)
        p_none = math.exp(-sum(energies))
        success += prior * (p_click + (p_none if label == guess else 0.0))
    return success


def preset(name: str) -> LinearCircuit:
    """Named measurement circuits.

    bs2:  one balanced splitter on the two-mode family; the sum port (D1)
          lights for the equal-phase state, the difference port (D2) for the
          flipped one.
    fig3: four-mode cascade; splitters pair modes (1,2) and (3,4) first, then
          (2,3) and (1,4).  Exactly one output carries amplitude 2 alpha per
          input state, so each detector uniquely identifies one label.
    """
    if name == "bs2":
        return LinearCircuit(
            modes=2,
            elements=(BeamSplitter(0, 1),),
            detectors=(("D1", 0), ("D2", 1)),
            identify={"D1": "0", "D2": "1"},
        )
    if name == "fig3":
        return LinearCircuit(
            modes=4,
            elements=(
                BeamSplitter(0, 1),
                BeamSplitter(2, 3),
                BeamSplitter(1, 2),
                BeamSplitter(0, 3),
            ),
            detectors=(("D1", 1), ("D2", 2), ("D3", 0), ("D4", 3)),
            identify={"D1": "11", "D2": "10", "D3": "00", "D4": "01"},
        )
    raise ValueError(f"unknown circuit preset {name!r}")


PRESET_FAMILIES = {"bs2": "two_mode", "fig3": "four_mode"}
