"""Photon-number decomposition of phase-randomized multi-mode coherent states.

Averaging a multi-mode coherent state over a uniform global phase is applied
analytically: the phase integral enforces equality of total photon number
between ket and bra (a Kronecker delta), so the mixed state is an exact
direct sum over N-photon blocks, each block a Poisson weight p_N times a
rank-1 projector.  Matrices are therefore stored block-by-block and never as
one giant dense array.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import fock, symmetric
from .fock import CapacityError
from .symmetric import GramMatrix, SymmetricFamilySpec

#: Default Poisson tail mass at which the photon-number series is truncated.
DEFAULT_TAIL_TOL = 1e-12

#: Hard cap on the truncation photon number, whatever the tail demands.
DEFAULT_N_CAP = 150

#: Largest dimension BlockDiagonalMatrix.to_dense will embed into.
DENSE_DIMENSION_CAP = 10_000


def default_tail_tol() -> float:
    """Library-wide tail tolerance, overridable via QSD_TAIL_TOL."""
    raw = os.environ.get("QSD_TAIL_TOL")
    if raw is None:
        return DEFAULT_TAIL_TOL
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise ValueError(f"QSD_TAIL_TOL={raw!r} is not a number in (0, 1)")
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

    @property
    def modes(self) -> int:
        return len(self.amplitudes)

    @property
    def mean_photons(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes))


def poisson_series(
    mean: float,
    tail_tol: float | None = None,
    n_cap: int = DEFAULT_N_CAP,
    *,
    n_max: int | None = None,
) -> list[float]:
    """Poisson weights p_N = exp(-mean) mean^N / N! for N = 0, 1, ...

    With `n_max`, returns p_0..p_n_max.  Otherwise stops at the smallest
    n_max whose tail mass beyond it is below `tail_tol` (default: the
    library-wide tolerance) and raises CapacityError past `n_cap`.  Every
    weight comes from the recurrence p_N = p_{N-1} mean / N, so one point's
    series is bit-identical however it is reached.  Raises CapacityError
    when exp(-mean) underflows, which would silently zero every weight.
    """
    if mean < 0:
        raise ValueError(f"negative mean photon number {mean}")
    if n_max is None:
        if tail_tol is None:
            tail_tol = default_tail_tol()
        if not 0.0 < tail_tol < 1.0:
            raise ValueError(f"tail_tol {tail_tol} outside (0, 1)")
    term = math.exp(-mean)
    if term < sys.float_info.min:
        raise CapacityError(f"exp(-{mean}) underflows: Poisson weights would vanish")
    weights = [term]
    cumulative = term
    n = 0
    while (n < n_max) if n_max is not None else (1.0 - cumulative >= tail_tol):
        n += 1
        if n_max is None and n > n_cap:
            raise CapacityError(
                f"Poisson truncation for mean {mean} exceeds cap {n_cap} "
                f"at tail tolerance {tail_tol}"
            )
        term *= mean / n
        cumulative += term
        weights.append(term)
    return weights


def poisson_weights(mean: float, n_max: int) -> np.ndarray:
    """p_N = exp(-mean) mean^N / N! for N = 0..n_max."""
    return np.array(poisson_series(mean, n_max=n_max))


def truncation_photon_number(
    mean: float, tail_tol: float, n_cap: int = DEFAULT_N_CAP
) -> int:
    """Smallest n_max whose Poisson tail mass beyond it is below tail_tol."""
    return len(poisson_series(mean, tail_tol, n_cap)) - 1


@dataclass(frozen=True)
class SubspaceOverlapSeries:
    """Per-photon-number weights and Gram matrices of a coherent family."""

    family_tag: str
    n_max: int
    weights: np.ndarray
    per_n_gram: tuple[GramMatrix, ...]
    tail_mass: float


def decompose(
    spec: SymmetricFamilySpec,
    tail_tol: float | None = None,
    n_cap: int = DEFAULT_N_CAP,
) -> SubspaceOverlapSeries:
    """Photon-number decomposition of one phase-randomized coherent family.

    Truncates at the smallest N whose Poisson tail is below `tail_tol` and
    builds the Gram matrix of the four (or two) pure N-photon states in each
    retained subspace.
    """
    weights, blocks = subspace_state_blocks(spec, tail_tol, n_cap)
    return SubspaceOverlapSeries(
        family_tag=spec.family_tag,
        n_max=len(weights) - 1,
        weights=weights,
        per_n_gram=tuple(symmetric.gram_matrix(states) for states in blocks),
        tail_mass=float(1.0 - weights.sum()),
    )


def subspace_state_blocks(
    spec: SymmetricFamilySpec,
    tail_tol: float | None = None,
    n_cap: int = DEFAULT_N_CAP,
) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """Poisson weights plus the per-N pure state vectors of a family.

    Returns (weights, blocks) with blocks[N] the list of L state vectors in
    the N-photon subspace basis, label order matching spec.labels.
    """
    weights = np.array(poisson_series(spec.mean_photons, tail_tol, n_cap))
    blocks = [symmetric.subspace_states(spec, n) for n in range(len(weights))]
    return weights, blocks


# ---------------------------------------------------------------------------
# block-diagonal density matrices


@dataclass(frozen=True)
class BlockDiagonalMatrix:
    """Hermitian matrix stored as one dense block per photon number.

    Block N lives in the canonical N-photon subspace basis; off-block entries
    are identically zero, so they are never materialised unless `to_dense`
    is called for a small embedding.
    """

    modes: int
    blocks: tuple[np.ndarray, ...]

    @property
    def n_max(self) -> int:
        return len(self.blocks) - 1

    @property
    def dimension(self) -> int:
        return sum(b.shape[0] for b in self.blocks)

    def trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks))

    def to_dense(self) -> np.ndarray:
        """Embed into the direct-sum basis (blocks in photon-number order)."""
        dim = self.dimension
        if dim > DENSE_DIMENSION_CAP:
            raise CapacityError(f"dense embedding of dimension {dim} > cap")
        out = np.zeros((dim, dim), dtype=np.complex128)
        offset = 0
        for block in self.blocks:
            d = block.shape[0]
            out[offset : offset + d, offset : offset + d] = block
            offset += d
        return out


def mixed_state_matrix(
    spec: SymmetricFamilySpec, which: str, n_max: int
) -> BlockDiagonalMatrix:
    """Phase-randomized density matrix of one family member, truncated at n_max.

    Block N equals p_N |psi_N><psi_N| with p_N the Poisson weight, so the
    trace is the retained mass 1 - tail.  Built by the generic amplitude path
    from the member's mode amplitudes, so the oracle route's density matrices
    do not depend on `symmetric.subspace_states`.
    """
    labels = spec.labels
    if which not in labels:
        raise ValueError(f"label {which!r} not in {labels}")
    amplitudes = spec.amplitude_vectors()[labels.index(which)]
    return phase_randomized_state(CoherentStateVector(tuple(amplitudes)), n_max)


def _subspace_component(state: CoherentStateVector, photons: int) -> np.ndarray:
    """Normalized N-photon component of a coherent state, or zeros if it vanishes."""
    basis = fock.enumerate_subspace(state.modes, photons)
    vec = fock.subspace_amplitudes(state.amplitudes, basis)
    norm = np.linalg.norm(vec)
    return vec if norm == 0.0 else vec / norm


def randomized_blocks(
    state: CoherentStateVector, n_max: int
) -> Iterator[np.ndarray]:
    """Yield the blocks p_N |psi_N><psi_N| for N = 0..n_max, one at a time.

    Each block is a fresh array the caller owns and may overwrite; a caller
    that drops each block before asking for the next never holds the whole
    matrix.
    """
    for n, weight in enumerate(poisson_weights(state.mean_photons, n_max)):
        vec = _subspace_component(state, n)
        block = np.outer(vec, vec.conj())
        block *= weight  # in place: one block-sized temporary, not two
        yield block


def phase_randomized_state(
    state: CoherentStateVector, n_max: int
) -> BlockDiagonalMatrix:
    """Phase-randomized density matrix of a generic coherent state."""
    return BlockDiagonalMatrix(state.modes, tuple(randomized_blocks(state, n_max)))


# ---------------------------------------------------------------------------
# symmetry unitaries restricted to one subspace


def subspace_symmetry_unitary(family_tag: str, photons: int) -> np.ndarray:
    """Generating unitary of a coherent family, restricted to the N-photon block.

    Each is a signed mode permutation or a mode phase and therefore conserves
    total photon number; its fourth power (square for the two-mode family) is
    the identity on the block.
    """
    mode_counts = symmetric.COHERENT_FAMILY_MODES
    if family_tag not in mode_counts:
        raise ValueError(f"unknown coherent family {family_tag!r}")
    basis = fock.enumerate_subspace(mode_counts[family_tag], photons)
    dim = basis.dimension
    u = np.zeros((dim, dim), dtype=np.complex128)
    for col, occ in enumerate(basis.index_list):
        if family_tag == "two_mode":
            # sign flip of the second mode
            j, k = occ
            u[col, col] = -1.0 if k % 2 else 1.0
        elif family_tag == "three_mode":
            # |a,b,c> -> (-1)^b |a,c,b>
            a, b, c = occ
            row = basis.index((a, c, b))
            u[row, col] = -1.0 if b % 2 else 1.0
        elif family_tag == "four_mode":
            # cyclic mode shift |a,b,c,d> -> |b,c,d,a>
            a, b, c, d = occ
            row = basis.index((b, c, d, a))
            u[row, col] = 1.0
        else:  # phase_encoded: i^k phase on the second mode
            j, k = occ
            u[col, col] = symmetric._I_POWERS[k % 4]
    return u

