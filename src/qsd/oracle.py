"""Brute-force measurement oracles on dense truncated-Fock matrices.

The functions here never consult closed-form probabilities: they construct
the actual measurement operators numerically and evaluate traces.  They share
only the `fock` primitives (eigensolver, matrix functions) with the analytic
modules, which is what makes agreement between the two routes evidence rather
than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock, phase_rand
from .phase_rand import CoherentStateVector, default_tail_tol

#: Eigenvalue magnitude below which a Helstrom difference operator is "zero".
SIGN_THRESHOLD = 1e-12

#: Gram-Schmidt residual, relative to the vector's norm, below which a vector
#: adds nothing to the span.
RANK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Povm:
    """Measurement elements plus the support projector they resolve.

    Elements must be PSD (eigenvalues above -1e-9) and sum to the support
    projector of the average state within 1e-9 in Frobenius norm; `validate`
    checks both and returns the worst defects.
    """

    elements: tuple[np.ndarray, ...]
    support_projector: np.ndarray

    def validate(self, psd_tol: float = 1e-9, sum_tol: float = 1e-9) -> tuple[float, float]:
        worst_negative = 0.0
        for element in self.elements:
            lam = fock.hermitian_eig(element).eigenvalues
            if lam.size:
                worst_negative = min(worst_negative, float(lam[-1]))
        total = sum(self.elements)
        defect = float(np.linalg.norm(total - self.support_projector))
        if worst_negative < -psd_tol:
            raise ValueError(f"POVM element eigenvalue {worst_negative:.3e} < -{psd_tol:.1e}")
        if defect > sum_tol:
            raise ValueError(f"POVM completeness defect {defect:.3e} > {sum_tol:.1e}")
        return worst_negative, defect


def _as_density_matrix(state: np.ndarray) -> np.ndarray:
    """Accept a state vector or density matrix; return a density matrix."""
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim == 1:
        return np.outer(state, state.conj())
    return fock.check_hermitian(state)


def srm(
    states: Sequence[np.ndarray],
    priors: Sequence[float],
    support_cutoff: float | None = None,
) -> tuple[Povm, float]:
    """Square-root measurement for arbitrary density matrices.

    Builds rho = sum_i p_i rho_i, takes rho^(-1/2) on its support, and returns
    the POVM pi_i = rho^(-1/2) p_i rho_i rho^(-1/2) together with the success
    probability sum_i p_i tr(rho_i pi_i).  State vectors are accepted and
    promoted to projectors.
    """
    if len(states) != len(priors):
        raise ValueError("one prior per state required")
    if abs(sum(priors) - 1.0) > 1e-12:
        raise ValueError(f"priors sum to {sum(priors)}, not 1")
    rhos = [_as_density_matrix(s) for s in states]
    dim = rhos[0].shape[0]
    for rho in rhos:
        if rho.shape != (dim, dim):
            raise ValueError("states must share one dimension")
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"state trace {trace} is not 1")
    average = sum(p * rho for p, rho in zip(priors, rhos))

    lam, v, on_support = fock.psd_spectrum(average, support_cutoff)
    inv_sqrt_lam = np.where(on_support, 1.0 / np.sqrt(np.where(on_support, lam, 1.0)), 0.0)
    inv_sqrt = (v * inv_sqrt_lam) @ v.conj().T
    projector = (v * on_support.astype(float)) @ v.conj().T

    elements = []
    success = 0.0
    for p, rho in zip(priors, rhos):
        pi = inv_sqrt @ (p * rho) @ inv_sqrt
        pi = 0.5 * (pi + pi.conj().T)
        elements.append(pi)
        success += p * float(np.trace(rho @ pi).real)
    return Povm(tuple(elements), 0.5 * (projector + projector.conj().T)), success


def helstrom_two(rho0: np.ndarray, rho1: np.ndarray, p0: float) -> tuple[Povm, float]:
    """Optimal two-state minimum-error measurement.

    Diagonalises A = p0 rho0 - p1 rho1 and projects outcome 0 (1) onto its
    positive (negative) eigenspace.  Eigenvectors with |eigenvalue| below
    SIGN_THRESHOLD that lie inside the support of the average state are
    assigned to the larger-prior outcome (outcome 0 on a tie): the choice
    cannot change p_corr = p1 + tr(A Pi0) but makes the operators, and any
    golden files built from them, deterministic.  The support cutoff is the
    same absolute scale, so the two elements always sum to the support
    projector of the average state.
    """
    rho0 = _as_density_matrix(rho0)
    rho1 = _as_density_matrix(rho1)
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"prior {p0} outside (0, 1)")
    p1 = 1.0 - p0
    difference = p0 * rho0 - p1 * rho1
    average = p0 * rho0 + p1 * rho1
    dec = fock.hermitian_eig(difference)
    v = dec.eigenvectors

    # Classify every eigenvector of the difference operator in one pass, so
    # all projectors come from a single orthonormal basis and the two
    # elements are exactly PSD and sum exactly to the support projector.
    # Kernel directions carrying average-state weight go to the larger-prior
    # outcome (outcome 0 on a tie); weightless directions never occur and are
    # excluded from the measurement.
    to_zero = dec.eigenvalues > SIGN_THRESHOLD
    to_one = dec.eigenvalues < -SIGN_THRESHOLD
    in_kernel = ~(to_zero | to_one)
    if np.any(in_kernel):
        vk = v[:, in_kernel]
        weight = (vk.conj() * (average @ vk)).sum(axis=0).real
        occupied = np.zeros_like(in_kernel)
        occupied[in_kernel] = weight > SIGN_THRESHOLD
        if p0 >= p1:
            to_zero = to_zero | occupied
        else:
            to_one = to_one | occupied
    pi0 = (v * to_zero.astype(float)) @ v.conj().T
    pi1 = (v * to_one.astype(float)) @ v.conj().T
    support = (v * (to_zero | to_one).astype(float)) @ v.conj().T
    pi0 = 0.5 * (pi0 + pi0.conj().T)
    pi1 = 0.5 * (pi1 + pi1.conj().T)
    p_corr = p1 + float(dec.eigenvalues[to_zero].sum())
    return Povm((pi0, pi1), 0.5 * (support + support.conj().T)), p_corr


# ---------------------------------------------------------------------------
# span reduction of pure-state blocks


def span_orthonormal_basis(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal basis (columns) of the span, by modified Gram-Schmidt.

    Two orthogonalisation passes keep the basis orthonormal to machine
    precision; vectors whose residual falls below RANK_TOLERANCE relative to
    their norm are dropped, so rank-deficient families reduce cleanly.
    """
    columns: list[np.ndarray] = []
    for vec in vectors:
        w = np.asarray(vec, dtype=np.complex128).copy()
        scale = np.linalg.norm(w)
        if scale == 0.0:
            continue
        for _pass in range(2):
            for b in columns:
                w -= np.vdot(b, w) * b
        residual = np.linalg.norm(w)
        if residual > RANK_TOLERANCE * scale:
            columns.append(w / residual)
    if not columns:
        raise ValueError("all vectors are numerically zero")
    return np.column_stack(columns)


def srm_success_pure(
    vectors: Sequence[np.ndarray], priors: Sequence[float] | None = None
) -> float:
    """SRM success for pure states, computed inside their span.

    The SRM operators live on the support of the average state, which for
    pure inputs is exactly the span, so reducing to an orthonormal basis of
    it is lossless and keeps the dense work at most L x L.
    """
    if priors is None:
        priors = [1.0 / len(vectors)] * len(vectors)
    basis = span_orthonormal_basis(vectors)
    reduced = [basis.conj().T @ np.asarray(v, dtype=np.complex128) for v in vectors]
    _povm, success = srm(reduced, priors)
    return success


def block_srm(
    blocks: Sequence[Sequence[np.ndarray]],
    weights: Sequence[float],
) -> float:
    """Photon-counting strategy: per-block SRM successes, Poisson-averaged.

    `blocks[N]` holds the equiprobable pure states of the N-photon subspace
    (as vectors); the result is sum_N p_N * SRM success in block N, each
    block reduced exactly to the span of its states.
    """
    if len(blocks) != len(weights):
        raise ValueError("one weight per block required")
    weights = np.asarray(weights, dtype=float)
    if weights.min() < 0.0 or weights.sum() > 1.0 + 1e-12:
        raise ValueError("weights must be a (truncated) probability sequence")
    return float(sum(w * srm_success_pure(block) for block, w in zip(blocks, weights)))


def whole_matrix_srm(
    blocks: Sequence[Sequence[np.ndarray]],
    weights: Sequence[float],
    support_cutoff: float | None = None,
) -> tuple[Povm, float]:
    """One global SRM over the direct sum of all photon-number blocks.

    The mixed states are assembled as full matrices on an orthonormal basis
    of the union of the per-block spans (an exact, lossless embedding), and a
    single SRM is run on them: no per-block factorisation is assumed anywhere,
    so agreement with `block_srm` is the direct-sum theorem under test, not a
    restatement of it.

    The average state's retained spectrum spans the Poisson weights, so its
    condition number is ~ lambda_max / support_cutoff; POVM completeness in
    Frobenius norm can only be clean to ~ eps * kappa (near-cutoff
    eigendirections, which carry < 1e-9 of the probability mass).  The
    success probability weights those directions by their actual mass and is
    therefore accurate to the tail tolerance regardless.
    """
    if len(blocks) != len(weights):
        raise ValueError("one weight per block required")
    n_states = len(blocks[0])
    coords: list[list[np.ndarray]] = [[] for _ in range(n_states)]
    sizes = []
    for block in blocks:
        if len(block) != n_states:
            raise ValueError("all blocks must hold the same number of states")
        basis = span_orthonormal_basis(block)
        sizes.append(basis.shape[1])
        for i, vec in enumerate(block):
            coords[i].append(basis.conj().T @ np.asarray(vec, dtype=np.complex128))
    dim = int(np.sum(sizes))
    rhos = []
    for i in range(n_states):
        rho = np.zeros((dim, dim), dtype=np.complex128)
        offset = 0
        for size, weight, c in zip(sizes, weights, coords[i]):
            rho[offset : offset + size, offset : offset + size] = weight * np.outer(
                c, c.conj()
            )
            offset += size
        rhos.append(rho / np.trace(rho).real)
    priors = [1.0 / n_states] * n_states
    return srm(rhos, priors, support_cutoff=support_cutoff)


# ---------------------------------------------------------------------------
# two-mode SRM vs Helstrom comparison


@dataclass(frozen=True)
class AppendixBReport:
    """Numerical comparison of SRM and Helstrom for the beam-split two-mode states.

    After a balanced beam splitter the two phase-randomized states occupy
    orthogonal mode sectors except for the shared vacuum, so both optimal
    measurements are diagonal there: they differ only in how the vacuum
    projector is shared.  The SRM gives it weights (p0, p1); the Helstrom
    measurement hands it whole to the likelier outcome.
    """

    alpha_abs: float
    p0: float
    helstrom_success: float
    srm_success: float
    off_vacuum_distance: float
    vacuum_split: tuple[float, float]
    mixed_closed_form: float

    @property
    def success_gap(self) -> float:
        return self.srm_success - self.helstrom_success


def verify_appendix_b(
    alpha_abs: float, p0: float, tail_tol: float | None = None
) -> AppendixBReport:
    """Build both POVMs for the beam-split two-mode mixed states and compare.

    The states are produced by the generic phase-randomization path from the
    amplitude vectors (sqrt(2) alpha, 0) and (0, sqrt(2) alpha).  Reported:
    both success probabilities, the closed form 1 - min(p0,p1) e^{-2|alpha|^2},
    the Frobenius distance between the POVMs away from the vacuum projector
    (restricted to the SRM support), and the SRM's vacuum weights.
    """
    if tail_tol is None:
        tail_tol = default_tail_tol()
    amp = math.sqrt(2.0) * alpha_abs
    state0 = CoherentStateVector((amp, 0.0))
    state1 = CoherentStateVector((0.0, amp))
    n_max = phase_rand.truncation_photon_number(state0.mean_photons, tail_tol)
    rho0 = phase_rand.phase_randomized_state(state0, n_max).to_dense()
    rho1 = phase_rand.phase_randomized_state(state1, n_max).to_dense()

    srm_povm, srm_success = srm([rho0, rho1], [p0, 1.0 - p0])
    hel_povm, hel_success = helstrom_two(rho0, rho1, p0)

    # vacuum = the single N=0 basis ket, first in the direct-sum order
    vac = 0
    support = srm_povm.support_projector
    distances = []
    for pi_srm, pi_hel in zip(srm_povm.elements, hel_povm.elements):
        diff = support @ (pi_srm - pi_hel) @ support
        diff[vac, :] = 0.0
        diff[:, vac] = 0.0
        distances.append(float(np.linalg.norm(diff)))
    split = (
        float(srm_povm.elements[0][vac, vac].real),
        float(srm_povm.elements[1][vac, vac].real),
    )
    closed = 1.0 - min(p0, 1.0 - p0) * math.exp(-2.0 * alpha_abs**2)
    return AppendixBReport(
        alpha_abs=alpha_abs,
        p0=p0,
        helstrom_success=hel_success,
        srm_success=srm_success,
        off_vacuum_distance=max(distances),
        vacuum_split=split,
        mixed_closed_form=closed,
    )
