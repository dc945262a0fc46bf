"""Truncated Fock-space numerics for multi-mode bosonic states.

Provides enumeration of fixed-total-photon-number subspaces, coherent-state
amplitudes in the number basis, and dense complex-Hermitian linear algebra
(LAPACK's eigensolver behind a Hermiticity guard, and spectral matrix
functions).  Everything here is a pure function of immutable inputs, so
results are safe to share across threads and to cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

#: Refuse to enumerate subspaces larger than this (guards runaway M, N).
DEFAULT_DIMENSION_CAP = 2_000_000

#: Eigenvalues of a nominally PSD matrix may drift this far below zero.
PSD_TOLERANCE = 1e-10

#: Hermiticity / real-trace tolerance for dense matrices.
HERMITICITY_TOLERANCE = 1e-12


class CapacityError(ValueError):
    """A requested truncation exceeds the configured size cap."""


class NotPositiveSemidefiniteError(ValueError):
    """A matrix required to be PSD has an eigenvalue below tolerance."""


# ---------------------------------------------------------------------------
# log-factorials


@lru_cache(maxsize=None)
def log_factorials(n_max: int) -> np.ndarray:
    """Cached, read-only table of ln(n!) for n = 0..n_max."""
    table = np.zeros(n_max + 1)
    for n in range(2, n_max + 1):
        table[n] = table[n - 1] + math.log(n)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# subspace enumeration


class SubspaceBasis:
    """Ordered number basis of the N-photon sector of M modes.

    The canonical order is lexicographically descending on the occupation
    tuples, e.g. (N,0,...,0) first and (0,...,0,N) last, so that matrices
    built by different modules index identically.  The dimension is the
    stars-and-bars count C(N+M-1, M-1).  The basis is one read-only
    dimension x modes int64 array; positions come from a ranking formula.
    """

    def __init__(self, modes: int, photons: int):
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        if photons < 0:
            raise ValueError(f"negative photon number {photons}")
        self.modes = modes
        self.photons = photons
        # add one mode at a time: splitting each row's last entry L into
        # (L - j, j), j = 0..L, keeps the rows lex-descending
        occ = np.full((1, 1), photons, dtype=np.int64)
        for _ in range(modes - 1):
            parent = np.repeat(np.arange(len(occ)), occ[:, -1] + 1)
            moved = np.arange(len(parent)) - np.searchsorted(parent, parent)
            occ = np.column_stack([occ[parent], moved])
            occ[:, -2] -= moved
        occ.flags.writeable = False
        self.occupation_array = occ
        self.dimension = len(occ)

    def ranks(self, occupations: np.ndarray) -> np.ndarray:
        """Positions of rows of basis occupations: an occupation whose last k
        modes hold S_k photons follows sum_{k=1}^{M-1} C(S_k + k - 1, k) rows.
        """
        suffix = np.cumsum(occupations[:, ::-1], axis=1)
        rank = np.zeros(len(occupations), dtype=np.int64)
        for k in range(1, self.modes):
            comb = np.array([math.comb(s + k - 1, k) for s in range(self.photons + 1)])
            rank += comb[suffix[:, k - 1]]
        return rank

    def index(self, occupations: tuple[int, ...]) -> int:
        """Position of an occupation tuple in the canonical order."""
        occ = tuple(occupations)
        if len(occ) != self.modes or min(occ) < 0 or sum(occ) != self.photons:
            raise KeyError(occ)
        return int(self.ranks(np.array([occ]))[0])

    def __len__(self) -> int:
        return self.dimension

    def __repr__(self) -> str:
        return f"SubspaceBasis(modes={self.modes}, photons={self.photons}, dim={self.dimension})"


def subspace_dimension(modes: int, photons: int) -> int:
    """C(N+M-1, M-1) without enumerating anything."""
    return math.comb(photons + modes - 1, modes - 1)


@lru_cache(maxsize=None)
def _cached_basis(modes: int, photons: int) -> SubspaceBasis:
    return SubspaceBasis(modes, photons)


def enumerate_subspace(modes: int, photons: int) -> SubspaceBasis:
    """Canonical basis of the N-photon, M-mode subspace.

    Raises CapacityError before allocating anything if the dimension
    C(N+M-1, M-1) exceeds DEFAULT_DIMENSION_CAP.
    """
    if modes < 1:
        raise ValueError(f"need at least one mode, got {modes}")
    if photons < 0:
        raise ValueError(f"negative photon number {photons}")
    dim = subspace_dimension(modes, photons)
    if dim > DEFAULT_DIMENSION_CAP:
        raise CapacityError(
            f"subspace (modes={modes}, photons={photons}) has dimension {dim} "
            f"> cap {DEFAULT_DIMENSION_CAP}"
        )
    return _cached_basis(modes, photons)


# ---------------------------------------------------------------------------
# coherent-state amplitudes


def subspace_amplitudes(alphas: Sequence[complex], basis: SubspaceBasis) -> np.ndarray:
    """Number-basis amplitudes <n_1,...,n_M | alpha_1,...,alpha_M> over a basis.

    Each equals exp(-sum |alpha_m|^2 / 2) * prod_m alpha_m^{n_m} / sqrt(n_m!),
    evaluated for every ket at once in log-magnitude + phase form, so that
    large occupations (n ~ 100) neither overflow nor lose the phase.
    """
    alphas = [complex(a) for a in alphas]
    if len(alphas) != basis.modes:
        raise ValueError(f"{len(alphas)} amplitudes for {basis.modes}-mode basis")
    occ = basis.occupation_array
    lf = log_factorials(basis.photons)
    log_mag = np.full(basis.dimension, -0.5 * sum(abs(a) ** 2 for a in alphas))
    phase = np.zeros(basis.dimension)
    alive = np.ones(basis.dimension, dtype=bool)
    for m, a in enumerate(alphas):
        n = occ[:, m]
        mag = abs(a)
        if mag == 0.0:
            alive &= n == 0
            continue
        log_mag += n * math.log(mag) - 0.5 * lf[n]
        phase += n * math.atan2(a.imag, a.real)
    out = np.where(alive, np.exp(log_mag) * np.exp(1j * phase), 0.0 + 0.0j)
    return out


# ---------------------------------------------------------------------------
# Hermitian validation


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest absolute deviation of m from m-dagger."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate a dense Hermitian matrix and return it as complex ndarray."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m = m.astype(np.complex128, copy=False)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOLERANCE:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    if abs(np.trace(m).imag) > HERMITICITY_TOLERANCE:
        raise ValueError(f"trace has imaginary part {np.trace(m).imag:.3e}")
    return m


# ---------------------------------------------------------------------------
# eigensolver


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(m: np.ndarray) -> SpectralDecomposition:
    """Full spectral decomposition of a complex Hermitian matrix.

    LAPACK's divide-and-conquer solver (`numpy.linalg.eigh`) on the matrix
    `check_hermitian` accepts, reversed into descending order.
    """
    lam, v = np.linalg.eigh(check_hermitian(m))
    return SpectralDecomposition(lam[::-1], v[:, ::-1])


# ---------------------------------------------------------------------------
# spectral matrix functions


def psd_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and support mask of a PSD matrix.

    Eigenvalues in [-PSD_TOLERANCE, 0) are clipped to zero; anything lower
    raises NotPositiveSemidefiniteError.  An eigenvalue is on the support
    when it is positive and at least 1e-10 times the largest eigenvalue,
    which makes the support scale-invariant.
    """
    dec = hermitian_eig(m)
    lam = dec.eigenvalues.copy()
    if lam.size and lam[-1] < -PSD_TOLERANCE:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {lam[-1]:.3e} below -{PSD_TOLERANCE:.1e}"
        )
    lam[lam < 0.0] = 0.0
    on_support = (lam >= 1e-10 * (lam[0] if lam.size else 0.0)) & (lam > 0.0)
    return lam, dec.eigenvectors, on_support


def matrix_function(m: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a PSD matrix on its support.

    Eigenvalues on the support of `psd_spectrum` map through `f`, all others
    to zero (pseudo-function).
    """
    lam, v, on_support = psd_spectrum(m)
    mapped = np.array([f(x) if s else 0.0 for x, s in zip(lam, on_support)])
    out = (v * mapped) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def support_projector(m: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD matrix."""
    return matrix_function(m, lambda _x: 1.0)
