"""Photon-number decomposition of phase-randomized multi-mode coherent states.

Averaging a multi-mode coherent state over a uniform global phase is applied
analytically: the phase integral enforces equality of total photon number
between ket and bra (a Kronecker delta), so the mixed state is an exact
direct sum over N-photon blocks, each block a Poisson weight p_N times a
rank-1 projector.  Each block is written straight into one dense array, and
only small direct sums are ever embedded.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock, symmetric
from .fock import CapacityError
from .symmetric import SymmetricFamilySpec

#: Default Poisson tail mass at which the photon-number series is truncated.
DEFAULT_TAIL_TOL = 1e-12

#: Smallest tail tolerance accepted: 1 - sum_N p_N is a float sum, which stops
#: falling at rounding level, so below this a series can stall short of its
#: tolerance (at 1e-15, 26 of 1,201 means in [0, 60] do; at 1e-14, no mean
#: up to 700 does).
MIN_TAIL_TOL = 1e-14

#: Hard cap on the truncation photon number, whatever the tail demands.
DEFAULT_N_CAP = 150

#: Largest dimension `direct_sum` will embed into.
DENSE_DIMENSION_CAP = 10_000


def check_tail_tol(value: float, name: str) -> float:
    """`value` if it lies in [MIN_TAIL_TOL, 1), else ValueError naming `name`."""
    if not MIN_TAIL_TOL <= value < 1.0:  # also rejects nan
        raise ValueError(f"{name} is not a number in [{MIN_TAIL_TOL:g}, 1)")
    return value


@dataclass(frozen=True)
class CoherentStateVector:
    """Mode amplitudes alpha_1..alpha_M of a pure multi-mode coherent state."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "amplitudes", tuple(complex(a) for a in self.amplitudes)
        )
        if not self.amplitudes:
            raise ValueError("need at least one mode")
        if not all(map(cmath.isfinite, self.amplitudes)):
            raise ValueError(f"amplitudes {self.amplitudes} are not all finite")

    @property
    def modes(self) -> int:
        return len(self.amplitudes)

    @property
    def mean_photons(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes))


def poisson_series(
    mean: float, tail_tol: float = DEFAULT_TAIL_TOL, *, n_max: int | None = None
) -> list[float]:
    """Poisson weights p_N = exp(-mean) mean^N / N! for N = 0, 1, ...

    With `n_max`, returns p_0..p_n_max.  Otherwise stops at the smallest
    n_max whose tail mass beyond it is below `tail_tol`.  Either way raises
    CapacityError past DEFAULT_N_CAP.  Every weight comes from the
    recurrence p_N = p_{N-1} mean / N, so one point's series is
    bit-identical however it is reached.  Raises CapacityError when
    exp(-mean) underflows, which would silently zero every weight.
    """
    if not mean >= 0:  # also rejects nan
        raise ValueError(f"mean photon number {mean} is not a number >= 0")
    if n_max is not None and operator.index(n_max) < 0:  # refuses 2.5
        raise ValueError(f"truncation photon number {n_max} is negative")
    if n_max is not None and n_max > DEFAULT_N_CAP:
        raise CapacityError(f"truncation photon number {n_max} exceeds cap {DEFAULT_N_CAP}")
    if n_max is None:
        check_tail_tol(tail_tol, "tail_tol")
    term = math.exp(-mean)
    if term < sys.float_info.min:
        raise CapacityError(f"exp(-{mean}) underflows: Poisson weights would vanish")
    weights = [term]
    cumulative = term
    n = 0
    while (n < n_max) if n_max is not None else (1.0 - cumulative >= tail_tol):
        n += 1
        if n_max is None and n > DEFAULT_N_CAP:
            raise CapacityError(
                f"Poisson truncation for mean {mean} exceeds cap {DEFAULT_N_CAP} "
                f"at tail tolerance {tail_tol}"
            )
        term *= mean / n
        cumulative += term
        weights.append(term)
    return weights


def poisson_series_grid(means: np.ndarray, tail_tol: float = DEFAULT_TAIL_TOL) -> np.ndarray:
    """`poisson_series` of every mean in a 1-D array, in one vectorised pass.

    Row i holds the weights of means[i], bit-identical to
    poisson_series(means[i], tail_tol), then zeros up to the longest
    row.  Each row is the same IEEE recurrence: p_0 = math.exp(-mean), then
    np.multiply.accumulate of [p_0, mean/1, mean/2, ...], stopped where the
    np.add.accumulate of the weights first leaves a tail below `tail_tol`.
    Where some mean fails (negative, NaN, underflow, past DEFAULT_N_CAP),
    raises the error poisson_series raises for the first such mean.
    """
    means = np.asarray(means, dtype=float)
    check_tail_tol(tail_tol, "tail_tol")
    if not means.size:
        return np.zeros((0, 1))
    ok = means >= 0  # also rejects nan
    first = np.array([math.exp(-m) if v else 0.0 for m, v in zip(means.tolist(), ok.tolist())])
    ok &= first >= sys.float_info.min
    # failing rows run as mean 0, so that no inf or nan arises; they raise below
    first, run = np.where(ok, first, 1.0), np.where(ok, means, 0.0)
    # The largest mean's series is the longest up to rounding, so its length
    # is the width tried first (105 of the cap's 151 terms on the three-mode
    # 0:4 curve); rows that need more are run again at the cap's width.
    full = DEFAULT_N_CAP + 1
    try:
        width = len(poisson_series(float(run.max()), tail_tol))
    except CapacityError:
        width = full
    weights, stops = _poisson_rows(first, run, tail_tol, width)
    if not stops.any(axis=1).all():
        weights, stops = _poisson_rows(first, run, tail_tol, full)
    ok &= stops.any(axis=1)
    if not ok.all():
        poisson_series(float(means[np.argmin(ok)]), tail_tol)
    last = np.argmax(stops, axis=1)
    weights[np.arange(weights.shape[1]) > last[:, None]] = 0.0
    return weights[:, : last.max() + 1]


def _poisson_rows(
    first: np.ndarray, means: np.ndarray, tail_tol: float, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weights p_0..p_{width-1} per row, and where each row's tail is below tail_tol."""
    weights = np.empty((means.size, width))
    weights[:, 0] = first
    np.divide(means[:, None], np.arange(1, width), out=weights[:, 1:])
    np.multiply.accumulate(weights, axis=1, out=weights)
    tail = np.add.accumulate(weights, axis=1)
    np.subtract(1.0, tail, out=tail)
    return weights, tail < tail_tol


def poisson_weights(mean: float, n_max: int) -> np.ndarray:
    """p_N = exp(-mean) mean^N / N! for N = 0..n_max."""
    return np.array(poisson_series(mean, n_max=n_max))


def truncation_photon_number(mean: float, tail_tol: float) -> int:
    """Smallest n_max whose Poisson tail mass beyond it is below tail_tol."""
    return len(poisson_series(mean, tail_tol)) - 1


@dataclass(frozen=True)
class SubspaceOverlapSeries:
    """Per-photon-number weights and Gram matrices of a coherent family."""

    weights: np.ndarray
    per_n_gram: tuple[np.ndarray, ...]

    @property
    def n_max(self) -> int:
        return len(self.weights) - 1

    @property
    def tail_mass(self) -> float:
        return float(1.0 - self.weights.sum())


def decompose(
    spec: SymmetricFamilySpec, tail_tol: float = DEFAULT_TAIL_TOL
) -> SubspaceOverlapSeries:
    """Photon-number decomposition of one phase-randomized coherent family.

    Truncates at the smallest N whose Poisson tail is below `tail_tol` and
    builds the Gram matrix of the four (or two) pure N-photon states in each
    retained subspace.
    """
    weights = np.array(poisson_series(spec.mean_photons, tail_tol))
    grams = tuple(symmetric.subspace_gram(spec, n) for n in range(len(weights)))
    return SubspaceOverlapSeries(weights, grams)


def subspace_state_blocks(
    spec: SymmetricFamilySpec, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """Poisson weights plus the per-N pure state vectors of a family.

    Returns (weights, blocks) with blocks[N] the list of L state vectors in
    the N-photon subspace basis, in the family's label order.
    """
    weights = np.array(poisson_series(spec.mean_photons, tail_tol))
    blocks = [symmetric.subspace_states(spec, n) for n in range(len(weights))]
    return weights, blocks


# ---------------------------------------------------------------------------
# block-diagonal density matrices


def direct_sum(vectors: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Dense sum over N of the blocks weights[N] |v_N><v_N|, v_N = vectors[N],
    on the diagonal in order.

    Each block is written in place into one zeroed array: the complex
    products v_i conj(v_j), with both parts then scaled by the weight through
    the float view (the values of complex * real, without the zero imaginary
    products).  Off-block entries are exact zeros.  Raises CapacityError
    past DENSE_DIMENSION_CAP, so only small embeddings are materialised.
    """
    dim = sum(len(v) for v in vectors)
    if dim > DENSE_DIMENSION_CAP:
        raise CapacityError(f"dense embedding of dimension {dim} > cap")
    out = np.zeros((dim, dim), dtype=np.complex128)
    offset = 0
    for vec, weight in zip(vectors, weights, strict=True):
        end = offset + len(vec)
        block = np.outer(vec, vec.conj(), out=out[offset:end, offset:end])
        parts = block.view(np.float64)
        parts *= weight
        offset = end
    return out


def mixed_state_matrix(spec: SymmetricFamilySpec, which: str, n_max: int) -> np.ndarray:
    """Phase-randomized density matrix of one family member, truncated at n_max.

    Dense, with block N equal to p_N |psi_N><psi_N| (p_N the Poisson weight)
    in photon-number order, so the trace is the retained mass 1 - tail.
    Built by the generic amplitude path from the member's mode amplitudes, so
    the oracle route's density matrices do not depend on
    `symmetric.subspace_states`.
    """
    labels = spec.family.labels
    if which not in labels:
        raise ValueError(f"label {which!r} not in {labels}")
    amplitudes = spec.amplitude_vectors()[labels.index(which)]
    return phase_randomized_state(CoherentStateVector(tuple(amplitudes)), n_max)


def subspace_component(state: CoherentStateVector, photons: int) -> np.ndarray:
    """Normalized N-photon component of a coherent state, or zeros if it vanishes."""
    basis = fock.enumerate_subspace(state.modes, photons)
    vec = fock.subspace_amplitudes(state.amplitudes, basis)
    norm = np.linalg.norm(vec)
    return vec if norm == 0.0 else vec / norm


def phase_randomized_state(state: CoherentStateVector, n_max: int) -> np.ndarray:
    """Phase-randomized density matrix of a generic coherent state: the
    `direct_sum` of p_N |psi_N><psi_N| for N = 0..n_max."""
    weights = poisson_weights(state.mean_photons, n_max)
    vectors = [subspace_component(state, n) for n in range(n_max + 1)]
    return direct_sum(vectors, weights)


# ---------------------------------------------------------------------------
# symmetry unitaries restricted to one subspace


def subspace_symmetry_unitary(family_tag: str, photons: int) -> np.ndarray:
    """The family's symmetry S lifted to the N-photon block.

    S sends mode amplitudes x to (S x)[m] = i^shift[m] x[perm[m]], so it sends
    the number state |n> to i^(n' . shift) |n'> with n' = n[perm]: a
    quarter-turn-signed permutation of the basis, which conserves total
    photon number and whose L-th power is the identity on the block.
    """
    family = SymmetricFamilySpec(family_tag).family
    image = fock.enumerate_subspace(family.modes, photons)[:, family.perm]
    values = np.array(symmetric._I_POWERS)[(image @ np.array(family.shift)) % 4]
    u = np.zeros((len(image), len(image)), dtype=np.complex128)
    u[fock.occupation_ranks(image, photons), np.arange(len(image))] = values
    return u
