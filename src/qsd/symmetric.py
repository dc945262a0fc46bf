"""Symmetric state families and their Gram matrices.

A family {U^K |psi_0>} generated by a unitary with U^L = 1 has a circulant
Gram matrix, which the discrete Fourier transform diagonalises.  This module
builds the per-photon-number pure states of the coherent families, computes
Gram matrices numerically from state vectors as plain arrays, and evaluates
the square-root measurement success probability from the DFT eigenvalues of
a circulant Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import fock

#: Largest distance of a Gram entry from the circulant pattern of its first
#: row that `circulant_eigenvalues` accepts.
CIRCULANT_TOLERANCE = 1e-12

#: States handed to gram_matrix must have unit norm within this.
NORM_TOLERANCE = 1e-10

#: Gram eigenvalues: the largest imaginary part discarded as rounding, and the
#: distance from zero within which a value is an exact zero (further below
#: zero is an error).
EIGENVALUE_TOLERANCE = 1e-10

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


class InconsistentGramError(ValueError):
    """A Gram matrix failed a positivity or reality requirement."""


@dataclass(frozen=True)
class CoherentFamily:
    """A symmetric coherent family {S^k a_0, k = 0..L-1}, as data.

    a_0 has amplitude i^seed[m] |alpha| in mode m.  The symmetry S permutes
    the modes and turns each by a quarter-turn power: (S x)[m] =
    i^shift[m] x[perm[m]].  The members are the orbit of a_0 under S, in
    label order; exponents stay exact integers, so number-basis phases are
    bit-exact for any N.
    """

    seed: tuple[int, ...]
    perm: tuple[int, ...]
    shift: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def modes(self) -> int:
        return len(self.seed)

    @cached_property
    def orbit(self) -> tuple[tuple[int, ...], ...]:
        """Per-member, per-mode phases as powers of i: a_0, S a_0, ... until S^L a_0 = a_0."""
        members = [self.seed]
        while True:
            image = tuple((s + members[-1][p]) % 4 for p, s in zip(self.perm, self.shift))
            if image == self.seed:
                return tuple(members)
            members.append(image)

    @cached_property
    def gram_row(self) -> tuple[tuple[int, int], ...]:
        """z_k = sum_m i^(t_k,m - t_0,m) per member, as Gaussian integers (re, im).

        c_k = z_k / M = <a_0, a_k> / |a_0|^2 exactly, so the N-photon blocks
        overlap by c_k^N and the pure states by exp(-(M - z_k) |alpha|^2).
        """
        turns = [[(t - s) % 4 for s, t in zip(self.seed, member)] for member in self.orbit]
        return tuple((q.count(0) - q.count(2), q.count(1) - q.count(3)) for q in turns)

    def unit_vectors(self) -> list[np.ndarray]:
        """Member amplitude vectors of unit norm, i^t_k,m / sqrt(M): for
        three_mode and four_mode, the qutrit and ququart families of four
        fixed states."""
        root = np.sqrt(self.modes)
        return [np.array(_I_POWERS)[list(exps)] / root for exps in self.orbit]


_TWO_BITS = ("00", "01", "11", "10")

#: The coherent families, in CLI order: one row each, everything else derived.
FAMILIES = {
    "two_mode": CoherentFamily((0, 0), (0, 1), (0, 2), ("0", "1")),
    "three_mode": CoherentFamily((0, 0, 0), (0, 2, 1), (0, 0, 2), _TWO_BITS),
    "four_mode": CoherentFamily((0, 0, 0, 2), (1, 2, 3, 0), (0, 0, 0, 0), _TWO_BITS),
    "phase_encoded": CoherentFamily((0, 0), (0, 1), (0, 1), _TWO_BITS),
}


@dataclass(frozen=True)
class SymmetricFamilySpec:
    """One coherent family of `FAMILIES`, with its coherent amplitude |alpha|;
    everything that does not depend on |alpha| is read from `family`."""

    family_tag: str
    amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.family_tag not in FAMILIES:
            raise ValueError(f"unknown family {self.family_tag!r}")
        if not self.amplitude >= 0:  # also rejects nan
            raise ValueError(f"amplitude {self.amplitude} is not a number >= 0")

    @property
    def family(self) -> CoherentFamily:
        return FAMILIES[self.family_tag]

    @property
    def mean_photons(self) -> float:
        return self.family.modes * self.amplitude**2

    def amplitude_vectors(self) -> list[np.ndarray]:
        """Mode amplitude vectors of the coherent states, in label order."""
        alpha = self.amplitude
        return [np.array([_I_POWERS[t] * alpha for t in exps]) for exps in self.family.orbit]


def subspace_states(spec: SymmetricFamilySpec, photons: int) -> list[np.ndarray]:
    """Normalized N-photon components of a coherent family, in basis order.

    All member states share the same per-mode magnitude, so within one
    photon-number subspace the state is independent of |alpha|: component
    phases come from the per-mode i-powers and magnitudes from 1/sqrt(prod n!),
    normalized numerically.  The vectors are built once per (modes, phase
    exponents, N) and shared read-only; the list is the caller's own.
    """
    return list(_subspace_states(*_block_key(spec, photons)))


def _block_key(
    spec: SymmetricFamilySpec, photons: int
) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """(modes, phase exponents, N): all an N-photon block depends on."""
    if photons < 0:
        raise ValueError(f"negative photon number {photons}")
    return spec.family.modes, spec.family.orbit, photons


@lru_cache(maxsize=None)
def _subspace_states(
    modes: int, exponents: tuple[tuple[int, ...], ...], photons: int
) -> tuple[np.ndarray, ...]:
    occ = fock.enumerate_subspace(modes, photons)
    lf = fock.log_factorials(photons)
    log_mag = -0.5 * lf[occ].sum(axis=1)
    mag = np.exp(log_mag - log_mag.max())
    norm = np.linalg.norm(mag)
    states = []
    for exps in exponents:
        ipow = (occ @ np.array(exps, dtype=np.int64)) % 4
        phases = np.array(_I_POWERS)[ipow]
        state = mag * phases / norm
        state.flags.writeable = False
        states.append(state)
    return tuple(states)


def gram_matrix(states: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise inner products G_ij = <psi_i|psi_j>, as a Hermitian array."""
    size = len(states)
    if not size:
        raise ValueError("Gram matrix of no states")
    dim = states[0].shape[0]
    for s in states:
        if s.shape != (dim,):
            raise ValueError("states must share one dimension")
        if not abs(np.linalg.norm(s) - 1.0) <= NORM_TOLERANCE:  # also rejects nan, inf
            raise ValueError(f"state norm {np.linalg.norm(s):.12f} is not 1")
    gram = np.eye(size, dtype=np.complex128)
    for i in range(size):
        for j in range(i + 1, size):
            g = np.vdot(states[i], states[j])
            gram[i, j] = g
            gram[j, i] = g.conjugate()
    return gram


def subspace_gram(spec: SymmetricFamilySpec, photons: int) -> np.ndarray:
    """`gram_matrix(subspace_states(spec, photons))`, built once per
    (modes, phase exponents, N) and shared read-only, like the states."""
    return _subspace_gram(*_block_key(spec, photons))


@lru_cache(maxsize=None)
def _subspace_gram(
    modes: int, exponents: tuple[tuple[int, ...], ...], photons: int
) -> np.ndarray:
    gram = gram_matrix(_subspace_states(modes, exponents, photons))
    gram.flags.writeable = False
    return gram


def circulant_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Eigenvalues lambda_k = sum_l c_l omega^{kl} of a circulant Gram matrix.

    c = gram[0] and omega = exp(2 pi i / L); eigenvalues are returned in DFT
    index order k = 0..L-1.  Raises ValueError unless `gram` is square and
    every G_ik lies within CIRCULANT_TOLERANCE of c[(k - i) mod L].  A
    Hermitian PSD circulant must produce real non-negative values; residual
    imaginary parts below EIGENVALUE_TOLERANCE are discarded and negatives
    within it of zero are clipped.
    """
    gram = np.asarray(gram)
    size = len(gram)
    if gram.shape != (size, size):
        raise ValueError(f"Gram matrix of shape {gram.shape} is not square")
    if not size:
        raise ValueError("empty Gram matrix")
    row = gram[0]
    index = np.arange(size)
    # row[k - i] wraps negative differences to (k - i) mod L; nan fails the test
    if not np.max(np.abs(gram - row[index - index[:, None]])) <= CIRCULANT_TOLERANCE:
        raise ValueError("Gram matrix is not circulant")
    omega = np.exp(2j * np.pi / size)
    lam = np.array(
        [sum(row[l] * omega ** (k * l) for l in range(size)) for k in range(size)]
    )
    if np.max(np.abs(lam.imag)) >= EIGENVALUE_TOLERANCE:
        raise InconsistentGramError(
            f"circulant eigenvalue has imaginary part {np.max(np.abs(lam.imag)):.3e}"
        )
    values = lam.real.copy()
    if values.min() < -EIGENVALUE_TOLERANCE:
        raise InconsistentGramError(
            f"circulant eigenvalue {values.min():.3e} below -{EIGENVALUE_TOLERANCE:.1e}"
        )
    # eigenvalues within the PSD tolerance of zero are numerically zero;
    # letting sqrt see their rounding noise would manufacture ~1e-8 of mass
    values[np.abs(values) < EIGENVALUE_TOLERANCE] = 0.0
    return values


def srm_success_from_gram(gram: np.ndarray) -> float:
    """Square-root-measurement success for L equiprobable symmetric pure states.

    The SRM succeeds with (1/L) sum_i ((G^1/2)_ii)^2.  For a symmetric family
    G is circulant, every diagonal entry of G^1/2 equals tr(G^1/2) / L, and
    this is (1/L^2) (sum_k sqrt(lambda_k))^2 in the Gram eigenvalues (Ban et
    al. 1997).  Any other G raises ValueError from `circulant_eigenvalues`:
    there the eigenvalue formula is not the SRM success.
    """
    lam = circulant_eigenvalues(gram)
    total = float(np.sqrt(lam).sum())
    return (total / len(gram)) ** 2
