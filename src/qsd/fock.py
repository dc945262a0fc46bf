"""Truncated Fock-space numerics for multi-mode bosonic states.

Provides enumeration of fixed-total-photon-number subspaces, coherent-state
amplitudes in the number basis, and dense complex-Hermitian linear algebra
(a cyclic Jacobi eigensolver and spectral matrix functions).  Everything here
is a pure function of immutable inputs, so results are safe to share across
threads and to cache.
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

#: Jacobi stops once the off-diagonal norm is below this share of the norm.
OFF_DIAGONAL_TOLERANCE = 1e-12


class CapacityError(ValueError):
    """A requested truncation exceeds the configured size cap."""


class ConvergenceError(RuntimeError):
    """The Jacobi iteration failed to reach the target off-diagonal norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotPositiveSemidefiniteError(ValueError):
    """A matrix required to be PSD has an eigenvalue below tolerance."""


# ---------------------------------------------------------------------------
# log-factorials


@lru_cache(maxsize=None)
def _log_factorials(n_max: int) -> np.ndarray:
    """Table of ln(n!) for n = 0..n_max."""
    table = np.zeros(n_max + 1)
    for n in range(2, n_max + 1):
        table[n] = table[n - 1] + math.log(n)
    return table


def log_factorial(n: int) -> float:
    """ln(n!) from the cached table."""
    if n < 0:
        raise ValueError(f"negative occupation {n}")
    return _log_factorials(max(n, 64))[n]


def log_factorials(n_max: int) -> np.ndarray:
    """Cached table of ln(n!) for n = 0..n_max (at least; do not mutate)."""
    return _log_factorials(max(n_max, 64))


# ---------------------------------------------------------------------------
# subspace enumeration


class SubspaceBasis:
    """Ordered number basis of the N-photon sector of M modes.

    The canonical order is lexicographically descending on the occupation
    tuples, e.g. (N,0,...,0) first and (0,...,0,N) last, so that matrices
    built by different modules index identically.  The dimension is the
    stars-and-bars count C(N+M-1, M-1).
    """

    def __init__(self, modes: int, photons: int):
        if modes < 1:
            raise ValueError(f"need at least one mode, got {modes}")
        if photons < 0:
            raise ValueError(f"negative photon number {photons}")
        self.modes = modes
        self.photons = photons
        self.index_list = tuple(_compositions(photons, modes))
        self.dimension = len(self.index_list)
        self._position = {occ: i for i, occ in enumerate(self.index_list)}
        # dim x modes integer array, handy for vectorised amplitude work
        self.occupation_array = np.array(self.index_list, dtype=np.int64).reshape(
            self.dimension, modes
        )

    def index(self, occupations: tuple[int, ...]) -> int:
        """Position of an occupation tuple in the canonical order."""
        return self._position[tuple(occupations)]

    def __len__(self) -> int:
        return self.dimension

    def __repr__(self) -> str:
        return f"SubspaceBasis(modes={self.modes}, photons={self.photons}, dim={self.dimension})"


def _compositions(total: int, parts: int):
    """All `parts`-tuples of non-negative ints summing to `total`, lex descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def subspace_dimension(modes: int, photons: int) -> int:
    """C(N+M-1, M-1) without enumerating anything."""
    return math.comb(photons + modes - 1, modes - 1)


@lru_cache(maxsize=None)
def _cached_basis(modes: int, photons: int) -> SubspaceBasis:
    return SubspaceBasis(modes, photons)


def enumerate_subspace(
    modes: int, photons: int, dimension_cap: int = DEFAULT_DIMENSION_CAP
) -> SubspaceBasis:
    """Canonical basis of the N-photon, M-mode subspace.

    Raises CapacityError before allocating anything if the dimension
    C(N+M-1, M-1) exceeds `dimension_cap`.
    """
    if modes < 1:
        raise ValueError(f"need at least one mode, got {modes}")
    if photons < 0:
        raise ValueError(f"negative photon number {photons}")
    dim = subspace_dimension(modes, photons)
    if dim > dimension_cap:
        raise CapacityError(
            f"subspace (modes={modes}, photons={photons}) has dimension {dim} "
            f"> cap {dimension_cap}"
        )
    return _cached_basis(modes, photons)


# ---------------------------------------------------------------------------
# coherent-state amplitudes


def coherent_amplitude(
    alphas: Sequence[complex], occupations: Sequence[int]
) -> complex:
    """Number-basis amplitude <n_1,...,n_M | alpha_1,...,alpha_M>.

    Equals exp(-sum |alpha_m|^2 / 2) * prod_m alpha_m^{n_m} / sqrt(n_m!),
    evaluated in log-magnitude + phase form so that large occupations
    (n ~ 100) neither overflow nor lose the phase.
    """
    if len(alphas) != len(occupations):
        raise ValueError(
            f"{len(alphas)} amplitudes but {len(occupations)} occupations"
        )
    alphas = [complex(a) for a in alphas]
    log_mag = -0.5 * sum(abs(a) ** 2 for a in alphas)
    phase = 0.0
    for a, n in zip(alphas, occupations):
        if n < 0:
            raise ValueError(f"negative occupation {n}")
        if n == 0:
            continue
        mag = abs(a)
        if mag == 0.0:
            return 0.0 + 0.0j
        log_mag += n * math.log(mag) - 0.5 * log_factorial(n)
        phase += n * math.atan2(a.imag, a.real)
    value = math.exp(log_mag) * complex(math.cos(phase), math.sin(phase))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ArithmeticError(f"non-finite amplitude for occupations {occupations}")
    return value


def subspace_amplitudes(alphas: Sequence[complex], basis: SubspaceBasis) -> np.ndarray:
    """Vector of coherent amplitudes over a whole subspace basis.

    Vectorised version of `coherent_amplitude` for every ket in `basis`.
    """
    alphas = [complex(a) for a in alphas]
    if len(alphas) != basis.modes:
        raise ValueError(f"{len(alphas)} amplitudes for {basis.modes}-mode basis")
    occ = basis.occupation_array
    lf = _log_factorials(max(basis.photons, 64))
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


def check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOLERANCE) -> np.ndarray:
    """Validate a dense Hermitian matrix and return it as complex ndarray."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m = m.astype(np.complex128, copy=False)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    if abs(np.trace(m).imag) > tol:
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


def hermitian_eig(m: np.ndarray, sweep_cap: int = 100) -> SpectralDecomposition:
    """Full spectral decomposition of a complex Hermitian matrix.

    Cyclic Jacobi iteration with 2x2 unitary rotations; sweeps continue until
    the off-diagonal Frobenius norm drops below OFF_DIAGONAL_TOLERANCE times
    the initial Frobenius norm of the matrix.  Adequate for the dense sizes
    used here (up to a few hundred); raises ConvergenceError (carrying the
    residual) if `sweep_cap` sweeps do not suffice.
    """
    a = check_hermitian(m).copy()
    d = a.shape[0]
    v = np.eye(d, dtype=np.complex128)
    if d == 0:
        return SpectralDecomposition(np.zeros(0), v)
    norm0 = float(np.linalg.norm(a))
    if norm0 == 0.0 or d == 1:
        return _sorted_decomposition(np.real(np.diag(a)), v)
    target = OFF_DIAGONAL_TOLERANCE * norm0
    skip = target / d

    for _ in range(sweep_cap):
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p, q]) > skip:
                    _jacobi_rotate(a, v, p, q)
        off = _off_diagonal_norm(a)
        if off < target:
            eigenvalues = np.real(np.diag(a))
            return _sorted_decomposition(eigenvalues, v)
    raise ConvergenceError(
        f"Jacobi did not converge in {sweep_cap} sweeps "
        f"(off-diagonal residual {_off_diagonal_norm(a):.3e}, target {target:.3e})",
        residual=_off_diagonal_norm(a),
    )


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero a[p, q] with a 2x2 unitary similarity, updating a and v in place."""
    apq = a[p, q]
    mag = abs(apq)
    if mag == 0.0:
        return
    # Rotation U = [[c, s], [-conj(s), c]] with s = t*c*e^{i phi}; t solves
    # t^2 + 2*theta*t - 1 = 0 (smaller root for stability).
    phi = math.atan2(apq.imag, apq.real)
    theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
    c = 1.0 / math.hypot(t, 1.0)
    s = t * c * complex(math.cos(phi), math.sin(phi))

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - np.conj(s) * col_q
    a[:, q] = s * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = np.conj(s) * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp - np.conj(s) * vq
    v[:, q] = s * vp + c * vq


def _sorted_decomposition(
    eigenvalues: np.ndarray, vectors: np.ndarray
) -> SpectralDecomposition:
    order = np.argsort(-eigenvalues, kind="stable")
    return SpectralDecomposition(eigenvalues[order], vectors[:, order])


# ---------------------------------------------------------------------------
# spectral matrix functions


def psd_spectrum(
    m: np.ndarray, support_cutoff: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and support mask of a PSD matrix.

    Eigenvalues in [-PSD_TOLERANCE, 0) are clipped to zero; anything lower
    raises NotPositiveSemidefiniteError.  An eigenvalue is on the support
    when it is positive and at least `support_cutoff`, by default 1e-10 times
    the largest eigenvalue, which makes the support scale-invariant.
    """
    dec = hermitian_eig(m)
    lam = dec.eigenvalues.copy()
    if lam.size and lam[-1] < -PSD_TOLERANCE:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {lam[-1]:.3e} below -{PSD_TOLERANCE:.1e}"
        )
    lam[lam < 0.0] = 0.0
    if support_cutoff is None:
        support_cutoff = 1e-10 * (lam[0] if lam.size else 0.0)
    on_support = (lam >= support_cutoff) & (lam > 0.0)
    return lam, dec.eigenvectors, on_support


def matrix_function(
    m: np.ndarray,
    f: Callable[[float], float],
    support_cutoff: float | None = None,
) -> np.ndarray:
    """Apply a scalar function to a PSD matrix on its support.

    Eigenvalues on the support of `psd_spectrum` map through `f`, all others
    to zero (pseudo-function).
    """
    lam, v, on_support = psd_spectrum(m, support_cutoff)
    mapped = np.array([f(x) if s else 0.0 for x, s in zip(lam, on_support)])
    out = (v * mapped) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def support_projector(
    m: np.ndarray, support_cutoff: float | None = None
) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD matrix."""
    return matrix_function(m, lambda _x: 1.0, support_cutoff=support_cutoff)
