"""Truncated Fock-space numerics for multi-mode bosonic states.

Provides enumeration of fixed-total-photon-number subspaces, coherent-state
amplitudes in the number basis, and dense complex-Hermitian linear algebra
(LAPACK's eigensolver behind a Hermiticity guard, and spectral matrix
functions).  Everything here is a pure function of immutable inputs, so
results are safe to share across threads and to cache.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

#: Refuse to enumerate subspaces larger than this (guards runaway M, N).
DEFAULT_DIMENSION_CAP = 2_000_000

#: Eigenvalues of a nominally PSD matrix may drift this far below zero.
PSD_TOLERANCE = 1e-10

#: Occupations are stored in the first of these that holds N exactly.
OCCUPATION_TYPES = (np.int16, np.int32, np.int64)

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


def subspace_dimension(modes: int, photons: int) -> int:
    """C(N+M-1, M-1) without enumerating anything."""
    return math.comb(photons + modes - 1, modes - 1)


@lru_cache(maxsize=None)
def enumerate_subspace(modes: int, photons: int) -> np.ndarray:
    """Ordered number basis of the N-photon sector of M modes.

    One cached, read-only dimension x modes array of occupations, of the
    narrowest signed integer type that holds N exactly (int16 up to
    N = 32,767).  The canonical order is lexicographically descending,
    (N,0,...,0) first and (0,...,0,N) last, so that matrices built by
    different modules index identically; `occupation_ranks` gives positions.
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
    # add one mode at a time: splitting each row's last entry L into
    # (L - j, j), j = 0..L, keeps the rows lex-descending
    occ = np.full((1, 1), photons, dtype=np.int64)
    for _ in range(modes - 1):
        parent = np.repeat(np.arange(len(occ)), occ[:, -1] + 1)
        moved = np.arange(len(parent)) - np.searchsorted(parent, parent)
        occ = np.column_stack([occ[parent], moved])
        occ[:, -2] -= moved
    occ = occ.astype(next(t for t in OCCUPATION_TYPES if photons <= np.iinfo(t).max))
    occ.flags.writeable = False
    return occ


def occupation_ranks(occupations: np.ndarray, photons: int) -> np.ndarray:
    """Positions in `enumerate_subspace` of rows of N-photon occupations: a
    row whose last k modes hold S_k photons follows
    sum_{k=1}^{M-1} C(S_k + k - 1, k) rows.
    """
    suffix = np.cumsum(occupations[:, ::-1], axis=1)
    rank = np.zeros(len(occupations), dtype=np.int64)
    for k in range(1, occupations.shape[1]):
        comb = np.array([math.comb(s + k - 1, k) for s in range(photons + 1)])
        rank += comb[suffix[:, k - 1]]
    return rank


# ---------------------------------------------------------------------------
# coherent-state amplitudes


def subspace_amplitudes(alphas: Sequence[complex], basis: np.ndarray) -> np.ndarray:
    """Number-basis amplitudes <n_1,...,n_M | alpha_1,...,alpha_M> over the
    occupations of one `enumerate_subspace`.

    Each equals exp(-sum |alpha_m|^2 / 2) * prod_m alpha_m^{n_m} / sqrt(n_m!),
    evaluated for every ket at once in log-magnitude + phase form, so that
    large occupations (n ~ 100) neither overflow nor lose the phase.
    """
    alphas = [complex(a) for a in alphas]
    dim, modes = basis.shape
    if len(alphas) != modes:
        raise ValueError(f"{len(alphas)} amplitudes for {modes}-mode basis")
    lf = log_factorials(int(basis[0].sum()))  # every row sums to N
    log_mag = np.full(dim, -0.5 * sum(abs(a) ** 2 for a in alphas))
    phase = np.zeros(dim)
    alive = np.ones(dim, dtype=bool)
    for m, a in enumerate(alphas):
        n = basis[:, m]
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


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns
    of a complex Hermitian matrix.

    LAPACK's divide-and-conquer solver (`numpy.linalg.eigh`) on the matrix
    `check_hermitian` accepts, reversed into descending order.
    """
    lam, v = np.linalg.eigh(check_hermitian(m))
    return lam[::-1], v[:, ::-1]


# ---------------------------------------------------------------------------
# spectral matrix functions


def psd_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and support mask of a PSD matrix.

    Eigenvalues in [-PSD_TOLERANCE, 0) are clipped to zero; anything lower
    raises NotPositiveSemidefiniteError.  An eigenvalue is on the support
    when it is positive and at least 1e-10 times the largest eigenvalue,
    which makes the support scale-invariant.
    """
    lam, v = hermitian_eig(m)
    lam = lam.copy()
    if lam.size and lam[-1] < -PSD_TOLERANCE:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {lam[-1]:.3e} below -{PSD_TOLERANCE:.1e}"
        )
    lam[lam < 0.0] = 0.0
    on_support = (lam >= 1e-10 * (lam[0] if lam.size else 0.0)) & (lam > 0.0)
    return lam, v, on_support


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
