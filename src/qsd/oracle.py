"""Brute-force measurement oracles on dense matrices: truncated-Fock states,
or the same states in the span coordinates of their photon-number blocks.

The functions here never consult closed-form probabilities: they construct
the actual measurement operators numerically and evaluate traces.  They share
only the `fock` primitives (eigensolver, matrix functions) with the analytic
modules, which is what makes agreement between the two routes evidence rather
than tautology.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock, phase_rand
from .phase_rand import DEFAULT_TAIL_TOL, CoherentStateVector

#: Eigenvalue magnitude below which a Helstrom difference operator is "zero".
SIGN_THRESHOLD = 1e-12


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
            lam = fock.hermitian_eig(element)[0]
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
    """Accept a state vector or density matrix of unit trace (within 1e-10);
    return a density matrix."""
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim == 1:
        rho = np.outer(state, state.conj())
    else:
        rho = fock.check_hermitian(state)
    trace = float(np.trace(rho).real)
    if not abs(trace - 1.0) <= 1e-10:  # also rejects nan
        raise ValueError(f"state trace {trace} is not 1")
    return rho


def _column_projector(columns: np.ndarray) -> np.ndarray:
    """Exactly Hermitian projector onto orthonormal `columns`."""
    out = columns @ columns.conj().T
    return 0.5 * (out + out.conj().T)


def srm(states: Sequence[np.ndarray], priors: Sequence[float]) -> tuple[Povm, float]:
    """Square-root measurement for arbitrary density matrices.

    Builds rho = sum_i p_i rho_i, takes rho^(-1/2) on its support, and returns
    the POVM pi_i = rho^(-1/2) p_i rho_i rho^(-1/2) together with the success
    probability sum_i p_i tr(rho_i pi_i).  State vectors are accepted and
    promoted to projectors.  rho^(-1/2) and the support projector are formed
    from the support's eigenvector columns only, each element from two
    products, and each trace as an elementwise sum.
    """
    if len(states) != len(priors):
        raise ValueError("one prior per state required")
    if not all(p >= 0 for p in priors):  # also rejects nan
        raise ValueError(f"priors {list(priors)} are not all numbers >= 0")
    if abs(sum(priors) - 1.0) > 1e-12:
        raise ValueError(f"priors sum to {sum(priors)}, not 1")
    rhos = [_as_density_matrix(s) for s in states]
    dim = rhos[0].shape[0]
    for rho in rhos:
        if rho.shape != (dim, dim):
            raise ValueError("states must share one dimension")
    average = sum(p * rho for p, rho in zip(priors, rhos))

    lam, v, on_support = fock.psd_spectrum(average)
    support = v[:, on_support]
    inv_sqrt = (support / np.sqrt(lam[on_support])) @ support.conj().T

    elements = []
    success = 0.0
    for p, rho in zip(priors, rhos):
        pi = inv_sqrt @ (p * rho) @ inv_sqrt
        pi = 0.5 * (pi + pi.conj().T)
        elements.append(pi)
        # tr(rho pi) = sum_jk rho_jk conj(pi_jk), since pi is exactly Hermitian
        success += p * float(np.vdot(pi, rho).real)
    return Povm(tuple(elements), _column_projector(support)), success


def helstrom_two(rho0: np.ndarray, rho1: np.ndarray, p0: float) -> tuple[Povm, float]:
    """Optimal two-state minimum-error measurement.

    Takes unit-trace states, as `srm` does.  Diagonalises
    A = p0 rho0 - p1 rho1 and projects outcome 0 (1) onto its positive
    (negative) eigenspace.  Eigenvectors with |eigenvalue| below
    SIGN_THRESHOLD whose average-state weight exceeds SIGN_THRESHOLD are
    assigned to the larger-prior outcome (outcome 0 on a tie): the choice
    cannot change p_corr = p1 + tr(A Pi0) but makes the operators, and any
    golden files built from them, deterministic.  Each element is formed
    from its own eigenvector columns only, and the returned support
    projector is their sum.

    That support keeps every direction above the absolute SIGN_THRESHOLD,
    so it is not the support `srm` uses, which `fock.psd_spectrum` cuts at
    1e-10 lambda_max: on the beam-split pair at |alpha| = 0.8 the Helstrom
    support has rank 31 and the SRM support rank 29, the latter inside the
    former.  Compare the two POVMs inside the SRM support only, as
    `verify_appendix_b` does.
    """
    rho0 = _as_density_matrix(rho0)
    rho1 = _as_density_matrix(rho1)
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"prior {p0} outside (0, 1)")
    p1 = 1.0 - p0
    difference = p0 * rho0 - p1 * rho1
    average = p0 * rho0 + p1 * rho1
    lam, v = fock.hermitian_eig(difference)

    # Classify every eigenvector of the difference operator in one pass, so
    # all projectors come from a single orthonormal basis and the two
    # elements are exactly PSD and sum exactly to the support projector.
    # Kernel directions carrying average-state weight go to the larger-prior
    # outcome (outcome 0 on a tie); weightless directions never occur and are
    # excluded from the measurement.
    to_zero = lam > SIGN_THRESHOLD
    to_one = lam < -SIGN_THRESHOLD
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
    pi0 = _column_projector(v[:, to_zero])
    pi1 = _column_projector(v[:, to_one])
    p_corr = p1 + float(lam[to_zero].sum())
    return Povm((pi0, pi1), pi0 + pi1), p_corr


# ---------------------------------------------------------------------------
# span reduction of pure-state blocks


def span_orthonormal_basis(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal columns Q whose span holds the L states' span.

    Q is the Q factor of one Householder QR (LAPACK through
    `numpy.linalg.qr`) of the D x L array whose columns are the states, so
    it is min(D, L) wide whatever their rank.  The states' coordinates
    Q^H v_i are the columns of R of the same QR, which `span_coordinates`
    returns without forming Q.
    """
    return np.linalg.qr(np.column_stack(vectors))[0]


def span_coordinates(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinates (columns) of the states in `span_orthonormal_basis`.

    The R factor, min(D, L) x L, of the same Householder QR.  The map is an
    isometry on the span, so every inner product, and with it every SRM
    quantity, is the same in these coordinates.  When the rank is below
    min(D, L), the spare directions hold no state: they carry no weight of
    the average state and fall outside its support in `srm`.
    """
    return np.linalg.qr(np.column_stack(vectors), mode="r")


def srm_success_pure(vectors: Sequence[np.ndarray]) -> float:
    """SRM success for equiprobable pure states, computed in span coordinates.

    The SRM operators live on the support of the average state, which for
    pure inputs is the span, so running `srm` on the `span_coordinates`
    columns is lossless and keeps the dense work at most L x L.
    """
    coords = span_coordinates(vectors)
    n_states = coords.shape[1]
    _povm, success = srm(list(coords.T), [1.0 / n_states] * n_states)
    return success


def block_average(terms: Sequence[float], weights: Sequence[float]) -> float:
    """sum_N p_N * s_N in block order: per-block successes, Poisson-averaged.

    s_N, the SRM success of block N's states, does not depend on p_N, so a
    caller may compute each once and average it under many weight sequences.
    """
    if len(terms) != len(weights):
        raise ValueError("one weight per block required")
    if not len(weights):
        raise ValueError("no photon-number blocks to average")
    weights = np.asarray(weights, dtype=float)
    if not weights.min() >= 0.0 or weights.sum() > 1.0 + 1e-12:  # also rejects nan
        raise ValueError("weights must be a (truncated) probability sequence")
    return float(sum(w * s for s, w in zip(terms, weights)))


def block_srm(
    blocks: Sequence[Sequence[np.ndarray]],
    weights: Sequence[float],
) -> float:
    """Photon-counting strategy: per-block SRM successes, Poisson-averaged.

    `blocks[N]` holds the equiprobable pure states of the N-photon subspace
    (as vectors); the result is sum_N p_N * SRM success in block N, each
    block reduced exactly to the span of its states.
    """
    return block_average([srm_success_pure(block) for block in blocks], weights)


def block_span_states(
    blocks: Sequence[Sequence[np.ndarray]], weights: Sequence[float]
) -> list[np.ndarray]:
    """The L mixed states sum_N p_N |v_N,i><v_N,i|, in span coordinates.

    `blocks[N]` holds the L pure states of the N-photon subspace and
    `weights[N]` is p_N.  Each block enters as its `span_coordinates`
    (min(D_N, L) wide), and state i is the `phase_rand.direct_sum` of its
    coordinate columns, normalized to unit trace.  The embedding is an
    isometry on the direct sum of the blocks' spans, which holds every
    state, so every trace and every measurement built on the states is the
    same as on the dense truncated-Fock matrices normalized likewise; spare
    directions of a rank-deficient block hold no state.
    """
    if len(blocks) != len(weights):
        raise ValueError("one weight per block required")
    if not blocks:
        raise ValueError("no photon-number blocks for the states")
    n_states = len(blocks[0])
    if any(len(block) != n_states for block in blocks):
        raise ValueError("all blocks must hold the same number of states")
    coords = [span_coordinates(block) for block in blocks]
    rhos = []
    for i in range(n_states):
        rho = phase_rand.direct_sum([c[:, i] for c in coords], weights)
        rhos.append(rho / np.trace(rho).real)
    return rhos


def phase_randomized_span_states(
    states: Sequence[CoherentStateVector], tail_tol: float
) -> list[np.ndarray]:
    """`block_span_states` of phase-randomized coherent states.

    The states must share one mean photon number.  Block N holds their
    N-photon components from the generic amplitude path
    (`phase_rand.subspace_component`), for N up to the truncation at
    `tail_tol`, and is weighted by its Poisson weight: nothing is read from
    `symmetric` or `discrimination`.
    """
    mean = states[0].mean_photons
    n_max = phase_rand.truncation_photon_number(mean, tail_tol)
    blocks = [[phase_rand.subspace_component(s, n) for s in states] for n in range(n_max + 1)]
    return block_span_states(blocks, phase_rand.poisson_weights(mean, n_max))


def whole_matrix_srm(
    blocks: Sequence[Sequence[np.ndarray]], weights: Sequence[float]
) -> tuple[Povm, float]:
    """One global SRM over the direct sum of all photon-number blocks.

    The mixed states are assembled as full matrices on the direct sum of the
    blocks' span coordinates (`block_span_states`: an exact, lossless
    embedding, whose spare directions the SRM's support drops), and a single
    SRM is run on them: no per-block factorisation is assumed anywhere,
    so agreement with `block_srm` is the direct-sum theorem under test, not a
    restatement of it.  The average state is diagonalised as one dense
    matrix by `fock.hermitian_eig`, which never looks for its block
    structure: a cross-block entry that should vanish and does not changes
    the spectrum and the POVM.

    The average state's support keeps eigenvalues down to 1e-10 lambda_max
    (`fock.psd_spectrum`), and its retained spectrum spans the Poisson
    weights, so its condition number kappa can reach ~ 1e10; POVM
    completeness in Frobenius norm can only be clean to ~ eps * kappa
    (near-cutoff eigendirections, which carry < 1e-9 of the probability
    mass).  The success probability weights those directions by their
    actual mass and is therefore accurate to the tail tolerance regardless.
    """
    rhos = block_span_states(blocks, weights)
    return srm(rhos, [1.0 / len(rhos)] * len(rhos))


# ---------------------------------------------------------------------------
# phase averaging, blind to photon number


def phase_average(state: CoherentStateVector, n_max: int) -> np.ndarray:
    """Average of |v_j><v_j| over the K = n_max + 1 rotated states e^(2 pi i j/K) a.

    v_j is the coherent vector of the rotated amplitudes on the Fock space
    truncated at N <= n_max, over the kets of every
    `fock.enumerate_subspace(M, N)` in turn.  Each mode m contributes a
    K x (n_max + 1) table of single-mode amplitudes from the recurrence
    c_0 = e^(-|a_m|^2/2), c_n = c_(n-1) e^(2 pi i j/K) a_m / sqrt(n), whose
    entries are at most 1 in magnitude; v_j of a ket is the product over m of
    its table entries.  Nothing here knows about photon-number blocks: the
    (N, N') entries carry the phase sum (1/K) sum_j e^(2 pi i j (N - N')/K),
    which is exactly delta_{NN'} because |N - N'| <= n_max < K.  So the
    average equals the continuous phase average truncated at n_max, the
    direct sum `phase_rand.phase_randomized_state` builds block by block.

    Raises CapacityError before enumerating anything when the truncated
    dimension exceeds `phase_rand.DENSE_DIMENSION_CAP`, and when some
    e^(-|a_m|^2/2) underflows, which would silently zero its whole table.
    """
    if n_max < 0:
        raise ValueError(f"truncation photon number {n_max} is negative")
    dim = sum(fock.subspace_dimension(state.modes, n) for n in range(n_max + 1))
    if dim > phase_rand.DENSE_DIMENSION_CAP:
        raise fock.CapacityError(f"phase average of dimension {dim} > cap")
    vacuum = [math.exp(-0.5 * abs(a) ** 2) for a in state.amplitudes]
    if min(vacuum) < sys.float_info.min:
        raise fock.CapacityError(f"vacuum amplitude of {state.amplitudes} underflows")
    kets = np.concatenate([fock.enumerate_subspace(state.modes, n) for n in range(n_max + 1)])
    turns = n_max + 1
    phases = np.array([cmath.rect(1.0, 2.0 * math.pi * j / turns) for j in range(turns)])
    steps = np.empty((turns, n_max + 1), dtype=np.complex128)
    v = np.ones((turns, dim), dtype=np.complex128)  # row j is v_j
    for a, c_0, occupations in zip(state.amplitudes, vacuum, kets.T):
        steps[:, 0] = c_0
        np.divide((phases * a)[:, None], np.sqrt(np.arange(1, n_max + 1)), out=steps[:, 1:])
        v *= np.multiply.accumulate(steps, axis=1)[:, occupations]
    average = v.T @ v.conj()
    average /= turns
    return average


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

    helstrom_success: float
    srm_success: float
    off_vacuum_distance: float
    vacuum_split: tuple[float, float]

    @property
    def success_gap(self) -> float:
        return self.srm_success - self.helstrom_success


def verify_appendix_b(
    alpha_abs: float, p0: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> AppendixBReport:
    """Build both POVMs for the beam-split two-mode mixed states and compare.

    The states are the `phase_randomized_span_states` of the amplitude
    vectors (sqrt(2) alpha, 0) and (0, sqrt(2) alpha), truncated at
    `tail_tol` and renormalized to unit trace, as in `whole_matrix_srm`.
    Both measurements and the comparison run in those span coordinates, of
    dimension 2 n_max + 1
    (31 at |alpha| = 0.8, where the truncated Fock space has 136).  The map
    to the Fock space is an isometry that holds both POVMs, so the Frobenius
    distances are the ones of the dense matrices.  The N = 0 block is one
    coordinate, the vacuum, first in the direct-sum order.
    Reported: both success probabilities, the Frobenius distance between the
    POVMs away from the vacuum projector (restricted to the SRM support), and
    the SRM's vacuum weights.
    """
    amp = math.sqrt(2.0) * alpha_abs
    rho0, rho1 = phase_randomized_span_states(
        [CoherentStateVector((amp, 0.0)), CoherentStateVector((0.0, amp))], tail_tol
    )

    srm_povm, srm_success = srm([rho0, rho1], [p0, 1.0 - p0])
    hel_povm, hel_success = helstrom_two(rho0, rho1, p0)

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
    return AppendixBReport(
        helstrom_success=hel_success,
        srm_success=srm_success,
        off_vacuum_distance=max(distances),
        vacuum_split=split,
    )
