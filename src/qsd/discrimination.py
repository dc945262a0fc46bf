"""Closed-form discrimination probabilities for the coherent-state families.

Minimum-error (p_corr), unambiguous, one-bit Helstrom (p_1bit) and full
cheating (b_ot) probabilities, for the pure families and their
phase-randomized counterparts.  Mixed-state values are Poisson-weighted
series over photon-number subspaces; every alternating or trigonometric
factor inside a series is evaluated with exact parity logic so radicands
that vanish identically do so to the last bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phase_rand import DEFAULT_N_CAP, poisson_series
from .symmetric import COHERENT_FAMILY_MODES, SymmetricFamilySpec

#: Families encoding two bits in four states (p_1bit / b_ot are defined here).
FOUR_STATE_FAMILIES = ("three_mode", "four_mode", "phase_encoded")

COHERENT_FAMILIES = ("two_mode",) + FOUR_STATE_FAMILIES

VARIANTS = ("pure", "mixed")

METRICS = ("p_corr", "p_1bit", "b_ot", "p_unambiguous", "delta_p_corr")


class InvalidOverlapError(ValueError):
    """Overlap parameters produced a radicand too negative to clip."""


def _family_tag(family) -> str:
    tag = family.family_tag if isinstance(family, SymmetricFamilySpec) else family
    if tag not in COHERENT_FAMILIES:
        raise ValueError(f"unsupported family {tag!r}")
    return tag


def _intensity(alpha_abs: float) -> float:
    """|alpha|^2 of a non-negative |alpha|, saturating at the largest float.

    Past the float range, |alpha| = inf included, every exp(-k |alpha|^2) is
    exactly 0, so each closed form returns its exact limit and a Poisson
    series raises CapacityError, instead of the square raising OverflowError
    or a trigonometric factor raising on inf.  NaN raises ValueError.
    """
    if math.isnan(alpha_abs):
        raise ValueError("|alpha| is NaN")
    if alpha_abs < 0:
        raise ValueError(f"negative |alpha| {alpha_abs}")
    try:
        return min(float(alpha_abs) ** 2, sys.float_info.max)
    except OverflowError:
        return sys.float_info.max


def _normalized_prior(p: float) -> float:
    """Map a prior to p_min = min(p, 1-p); probabilities are symmetric in it."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"prior {p} outside (0, 1)")
    return min(p, 1.0 - p)


def _clip_radicand(x: float, tol: float = 1e-12) -> float:
    if x < -tol:
        raise InvalidOverlapError(f"radicand {x:.3e} below -{tol:.1e}")
    return max(x, 0.0)


@lru_cache(maxsize=None)
def _subspace_table(tag: str, metric: str) -> tuple[float, ...]:
    """s_N for N = 0..DEFAULT_N_CAP: the per-subspace success of a mixed metric.

    `metric` is "p_corr" (square-root measurement, optimal for symmetric pure
    states) or "p_1bit"; the vacuum entry is the random guess.  The table
    does not depend on |alpha|, so it is built once per (family, metric).
    """
    if metric == "p_1bit":
        vacuum, term = 0.5, _p1bit_subspace_term
    else:
        vacuum, term = 0.25, _pcorr_subspace_term
    return (vacuum,) + tuple(term(tag, n) for n in range(1, DEFAULT_N_CAP + 1))


def _mixed_series(
    tag: str, metric: str, alpha_abs: float, tail_tol: float | None
) -> tuple[float, int]:
    """Poisson series sum_N p_N s_N of a phase-randomized family.

    The mean photon number is M |alpha|^2 for an M-mode family; terms are
    summed left to right in N, so a point's value does not depend on the
    grid it sits on.  Returns (value, number of terms).
    """
    weights = poisson_series(COHERENT_FAMILY_MODES[tag] * _intensity(alpha_abs), tail_tol)
    total = 0.0
    for p_n, s_n in zip(weights, _subspace_table(tag, metric)):
        total += p_n * s_n
    return total, len(weights)


# ---------------------------------------------------------------------------
# two-mode family (one bit in the relative sign of two equal pulses)


def two_mode_mixed_pcorr(alpha_abs: float, p_min: float = 0.5) -> float:
    """Helstrom probability 1 - p_min exp(-2|alpha|^2) after phase randomization."""
    w = _intensity(alpha_abs)
    p = _normalized_prior(p_min)
    return 1.0 - p * math.exp(-2.0 * w)


def two_mode_pure_pcorr(alpha_abs: float, p_min: float = 0.5) -> float:
    """Helstrom probability for the pure two-mode states.

    1/2 + (1/2) sqrt(1 - 4 p (1-p) exp(-4|alpha|^2)).
    """
    w = _intensity(alpha_abs)
    p = _normalized_prior(p_min)
    radicand = _clip_radicand(1.0 - 4.0 * p * (1.0 - p) * math.exp(-4.0 * w))
    return 0.5 + 0.5 * math.sqrt(radicand)


def two_mode_unambiguous(alpha_abs: float) -> float:
    """Success of the optimal unambiguous measurement, 1 - exp(-2|alpha|^2)."""
    return 1.0 - math.exp(-2.0 * _intensity(alpha_abs))


# ---------------------------------------------------------------------------
# three-mode family


def three_mode_mixed_pcorr(
    alpha_abs: float, tail_tol: float | None = None
) -> tuple[float, int]:
    """Minimum-error probability for the phase-randomized three-mode states.

    Poisson series with per-subspace square-root-measurement success
    (1/16) [3 sqrt(1 - s 3^-N) + sqrt(1 + 3 s 3^-N)]^2, where s = (-1)^N is
    handled as an exact parity sign.  Returns (value, number of terms).
    """
    return _mixed_series("three_mode", "p_corr", alpha_abs, tail_tol)


def _signed_third_power(n: int) -> float:
    """(-3)^-N via parity sign and 1/3^N; 1 + 3*(-1/3) cancels to exactly 0.

    3^N overflows from N = 647 on; there 3^-N is the (sub)normal or zero
    magnitude it underflows to.
    """
    try:
        magnitude = 1.0 / 3.0**n
    except OverflowError:
        magnitude = 3.0**-n
    return -magnitude if n % 2 else magnitude


def three_mode_pure_pcorr(alpha_abs: float) -> float:
    """Minimum-error probability (1/4) (1 + sqrt(1 - exp(-4|alpha|^2)))^2."""
    root = math.sqrt(_clip_radicand(1.0 - math.exp(-4.0 * _intensity(alpha_abs))))
    return 0.25 * (1.0 + root) ** 2


# ---------------------------------------------------------------------------
# four-mode family


def four_mode_mixed_pcorr(alpha_abs: float) -> float:
    """Minimum-error probability 1 - (3/4) exp(-4|alpha|^2).

    A single photon anywhere identifies the state; only the vacuum forces a
    one-in-four guess, so the series collapses to a closed form.
    """
    return 1.0 - 0.75 * math.exp(-4.0 * _intensity(alpha_abs))


def four_mode_unambiguous(alpha_abs: float) -> float:
    """Unambiguous success probability 1 - exp(-4|alpha|^2)."""
    return 1.0 - math.exp(-4.0 * _intensity(alpha_abs))


def four_mode_pure_pcorr(alpha_abs: float) -> float:
    """Minimum-error probability for the pure four-mode states.

    (1/16) (sqrt(1 + 3 e) + 3 sqrt(1 - e))^2 with e = exp(-4|alpha|^2).
    """
    e = math.exp(-4.0 * _intensity(alpha_abs))
    return (math.sqrt(1.0 + 3.0 * e) + 3.0 * math.sqrt(_clip_radicand(1.0 - e))) ** 2 / 16.0


# ---------------------------------------------------------------------------
# phase-encoded two-mode family


def _cos2_quarter(n: int) -> float:
    """cos^2(N pi / 4) by parity: exact {1, 1/2, 0, 1/2} cycle."""
    return (1.0, 0.5, 0.0, 0.5)[n % 4]


def _sin2_quarter(n: int) -> float:
    """sin^2(N pi / 4) by parity: exact {0, 1/2, 1, 1/2} cycle."""
    return (0.0, 0.5, 1.0, 0.5)[n % 4]


def phase_encoded_mixed_pcorr(
    alpha_abs: float, tail_tol: float | None = None
) -> tuple[float, int]:
    """Minimum-error probability for the phase-randomized phase-encoded states.

    Poisson series whose N-th bracket is
    sqrt(1 + sqrt(1 - 2^(2-N) cos^2(N pi/4))) + sqrt(1 + sqrt(1 - 2^(2-N) sin^2(N pi/4))),
    squared and divided by 8; trigonometric squares come from the exact
    period-4 table so the N = 1, 2 radicands vanish identically.
    This same quantity is the receiver's full cheating probability b_ot.
    Returns (value, number of terms).
    """
    return _mixed_series("phase_encoded", "p_corr", alpha_abs, tail_tol)


def _pcorr_subspace_term(tag: str, n: int) -> float:
    """Square-root-measurement success in the N-photon subspace (N >= 1).

    The three-mode and phase-encoded brackets above, with exact parity
    logic so radicands that vanish identically do so in floating point.
    """
    if tag == "three_mode":
        g = _signed_third_power(n)
        bracket = 3.0 * math.sqrt(_clip_radicand(1.0 - g)) + math.sqrt(
            _clip_radicand(1.0 + 3.0 * g)
        )
        return bracket**2 / 16.0
    scale = math.ldexp(1.0, 2 - n)  # 2^(2-N), exact
    rc = _clip_radicand(1.0 - scale * _cos2_quarter(n))
    rs = _clip_radicand(1.0 - scale * _sin2_quarter(n))
    bracket = math.sqrt(1.0 + math.sqrt(rc)) + math.sqrt(1.0 + math.sqrt(rs))
    return bracket**2 / 8.0


def phase_encoded_pure_pcorr(alpha_abs: float) -> float:
    """Minimum-error probability for the pure phase-encoded states.

    (e^{-w}/4) (sqrt(cosh w + sqrt(cosh^2 w - cos^2 w))
               + sqrt(sinh w + sqrt(sinh^2 w - sin^2 w)))^2 with w = |alpha|^2;
    both inner radicands are non-negative for all w >= 0 and the value tends
    to 1/4 as w -> 0 (cosh, cos -> 1 and sinh, sin -> 0).  Where cosh^2 w
    overflows (w > 355.58) the value has long been 1 to rounding, and 1 is
    returned.
    """
    w = _intensity(alpha_abs)
    c, s = math.cos(w), math.sin(w)
    try:
        ch, sh = math.cosh(w), math.sinh(w)
        first = math.sqrt(ch + math.sqrt(_clip_radicand(ch**2 - c**2)))
        second = math.sqrt(sh + math.sqrt(_clip_radicand(sh**2 - s**2)))
    except OverflowError:
        return 1.0
    return math.exp(-w) * (first + second) ** 2 / 4.0


# ---------------------------------------------------------------------------
# minimum-error pcorr dispatch


def family_pcorr(
    family,
    variant: str,
    alpha_abs: float,
    prior: float = 0.5,
    tail_tol: float | None = None,
) -> float:
    """Minimum-error probability of a coherent family, pure or mixed."""
    tag = _family_tag(family)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if tag == "two_mode":
        if variant == "mixed":
            return two_mode_mixed_pcorr(alpha_abs, prior)
        return two_mode_pure_pcorr(alpha_abs, prior)
    if tag == "three_mode":
        if variant == "mixed":
            return three_mode_mixed_pcorr(alpha_abs, tail_tol)[0]
        return three_mode_pure_pcorr(alpha_abs)
    if tag == "four_mode":
        if variant == "mixed":
            return four_mode_mixed_pcorr(alpha_abs)
        return four_mode_pure_pcorr(alpha_abs)
    if variant == "mixed":
        return phase_encoded_mixed_pcorr(alpha_abs, tail_tol)[0]
    return phase_encoded_pure_pcorr(alpha_abs)


def delta_pcorr(
    family, alpha_abs: float, prior: float = 0.5, tail_tol: float | None = None
) -> float:
    """Gap p_corr(pure) - p_corr(mixed): what phase randomization costs."""
    return family_pcorr(family, "pure", alpha_abs, prior, tail_tol) - family_pcorr(
        family, "mixed", alpha_abs, prior, tail_tol
    )


def delta_pcorr_max(
    family,
    alpha_max: float = 3.0,
    step: float = 0.005,
    tail_tol: float | None = None,
) -> tuple[float, float]:
    """Grid-scan maximum of delta_pcorr on [0, alpha_max].

    The curves are smooth and unimodal at plot resolution, so a fixed-step
    scan suffices; returns (alpha_at_max, max_value).
    """
    best_alpha, best = 0.0, 0.0
    steps = int(round(alpha_max / step))
    for i in range(steps + 1):
        a = i * step
        d = delta_pcorr(family, a, tail_tol=tail_tol)
        if d > best:
            best_alpha, best = a, d
    return best_alpha, best


# ---------------------------------------------------------------------------
# oblivious-transfer figures of merit


def p1bit_from_overlaps(f_overlap: complex, g_overlap: float) -> float:
    """Honest receiver's one-bit success for four equiprobable symmetric states.

    In terms of the pairwise overlaps F = <psi_00|psi_01> and the (real)
    G = <psi_00|psi_11>:

        P = 1/2 [1 + 1/2 sqrt(1 - G^2 + 2 sqrt(R)) + 1/2 sqrt(1 - G^2 - 2 sqrt(R))],
        R = (1+G)^2 (Im F)^2 + (1-G)^2 (Re F)^2 - 4 (Re F)^2 (Im F)^2.

    Radicands within 1e-12 of zero are clipped; anything lower raises
    InvalidOverlapError.
    """
    f = complex(f_overlap)
    g = float(g_overlap)
    if abs(f) > 1.0 + 1e-12 or abs(g) > 1.0 + 1e-12:
        raise InvalidOverlapError(f"overlaps |F|={abs(f)}, |G|={g} exceed 1")
    re2, im2 = f.real**2, f.imag**2
    r = (1.0 + g) ** 2 * im2 + (1.0 - g) ** 2 * re2 - 4.0 * re2 * im2
    root = math.sqrt(_clip_radicand(r))
    plus = math.sqrt(_clip_radicand(1.0 - g**2 + 2.0 * root))
    minus = math.sqrt(_clip_radicand(1.0 - g**2 - 2.0 * root))
    return 0.5 * (1.0 + 0.5 * plus + 0.5 * minus)


def pure_overlaps(family, alpha_abs: float) -> tuple[complex, float]:
    """(F, G) pairwise overlaps of the pure four-state coherent families."""
    tag = _family_tag(family)
    w = _intensity(alpha_abs)
    if tag == "three_mode":
        return complex(math.exp(-2.0 * w)), math.exp(-4.0 * w)
    if tag == "four_mode":
        e = math.exp(-4.0 * w)
        return complex(e), e
    if tag == "phase_encoded":
        return math.exp(-w) * complex(math.cos(w), math.sin(w)), math.exp(-2.0 * w)
    raise ValueError(f"{tag} does not encode two bits in four states")


def subspace_overlaps(family, photons: int) -> np.ndarray:
    """First Gram row <psi_0|psi_k> of the N-photon subspace states, in closed form.

    Independent of the numerically computed Gram matrices: overlaps follow
    from multinomial sums of the per-mode phases, evaluated with exact parity
    logic.  For the four-state families the row is (1, F_N, G_N, conj F_N).
    All states coincide with the vacuum at N = 0, so that row is all ones.
    """
    tag = _family_tag(family)
    n = photons
    if n < 0:
        raise ValueError(f"negative photon number {n}")
    if n == 0:
        return np.ones(2 if tag == "two_mode" else 4, dtype=np.complex128)
    if tag == "two_mode":
        return np.array([1.0, 0.0], dtype=np.complex128)
    if tag == "three_mode":
        g = _signed_third_power(n)
        return np.array([1.0, abs(g), g, abs(g)], dtype=np.complex128)
    if tag == "four_mode":
        return np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    mag = math.sqrt(math.ldexp(1.0, -n))  # 2^(-N/2)
    f = mag * complex(
        math.copysign(math.sqrt(_cos2_quarter(n)), math.cos(n * math.pi / 4.0)),
        math.copysign(math.sqrt(_sin2_quarter(n)), math.sin(n * math.pi / 4.0)),
    )
    return np.array([1.0, f, 0.0, f.conjugate()], dtype=np.complex128)


def _p1bit_subspace_term(tag: str, n: int) -> float:
    """One-bit Helstrom success in the N-photon subspace (N >= 1).

    Uses per-family factored radicands so terms that vanish identically
    (e.g. 1 + 3 G_N at N = 1 for the three-mode family) cancel exactly in
    floating point; equivalent to the generic overlap formula.
    """
    if tag == "four_mode":
        # subspace states are orthonormal: the bit is read perfectly
        return 1.0
    if tag == "three_mode":
        g = _signed_third_power(n)
        root = math.sqrt(_clip_radicand((1.0 - g) * (1.0 + 3.0 * g)))
        return 0.5 + 0.25 * ((1.0 - g) + root)
    # phase_encoded: G_N = 0 and |F_N|^2 = 2^-N with exact quarter-turn parts
    re2 = math.ldexp(_cos2_quarter(n), -n)
    im2 = math.ldexp(_sin2_quarter(n), -n)
    r = re2 + im2 - 4.0 * re2 * im2
    root = math.sqrt(_clip_radicand(r))
    plus = math.sqrt(_clip_radicand(1.0 + 2.0 * root))
    minus = math.sqrt(_clip_radicand(1.0 - 2.0 * root))
    return 0.5 * (1.0 + 0.5 * plus + 0.5 * minus)


def family_p1bit(
    family, variant: str, alpha_abs: float, tail_tol: float | None = None
) -> float:
    """Probability that an honest receiver learns their chosen bit.

    Pure variant: the overlap formula on the family's pure overlaps.  Mixed
    variant: Poisson-weighted sum of per-subspace values, with the vacuum
    term fixed at 1/2 (indistinguishable states force a coin flip).
    """
    tag = _family_tag(family)
    if tag not in FOUR_STATE_FAMILIES:
        raise ValueError(f"{tag} does not encode two bits in four states")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "pure":
        f, g = pure_overlaps(tag, alpha_abs)
        return p1bit_from_overlaps(f, g)
    return _mixed_series(tag, "p_1bit", alpha_abs, tail_tol)[0]


def family_bot(
    family, variant: str, alpha_abs: float, tail_tol: float | None = None
) -> float:
    """Dishonest receiver's probability of learning both bits.

    Cheating means discriminating all four states at once, so this is the
    corresponding minimum-error probability.
    """
    tag = _family_tag(family)
    if tag not in FOUR_STATE_FAMILIES:
        raise ValueError(f"{tag} does not encode two bits in four states")
    return family_pcorr(tag, variant, alpha_abs, tail_tol=tail_tol)


# ---------------------------------------------------------------------------
# phase-encoded mixed-vs-pure crossover


@dataclass(frozen=True)
class CrossoverReport:
    """Where phase randomization lowers the cheating probability.

    Intervals are in the honest-success variable p_1bit; within each,
    b_ot(mixed) < b_ot(pure) at equal p_1bit.
    """

    intervals: tuple[tuple[float, float], ...]
    alpha_max: float
    grid_points: int

    @property
    def lower_bound(self) -> float | None:
        return self.intervals[0][0] if self.intervals else None


def _invert_monotone(fn, target: float, lo: float, hi: float, iterations: int = 80) -> float:
    """Bisection inverse of a non-decreasing function on [lo, hi]."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phase_encoded_ot_crossover(
    alpha_max: float = 4.0,
    grid_points: int = 801,
    tail_tol: float | None = None,
    min_advantage: float = 1e-9,
) -> CrossoverReport:
    """Compare mixed and pure cheating probabilities at equal p_1bit.

    Both (p_1bit, b_ot) curves are parametric in |alpha| and monotone in it.
    A coarse interpolated scan locates candidate p_1bit intervals where the
    mixed curve lies below the pure one; each candidate is then confirmed by
    exact bisection inversion of both p_1bit curves at its deepest point
    (interpolation noise near p_1bit = 1/2, where the curves launch from a
    common point, cannot survive that check), and the confirmed interval
    endpoints are refined the same way.
    """
    pure_p_of = lambda a: family_p1bit("phase_encoded", "pure", a, tail_tol)
    mixed_p_of = lambda a: family_p1bit("phase_encoded", "mixed", a, tail_tol)

    def exact_advantage(v: float) -> float:
        a_pure = _invert_monotone(pure_p_of, v, 0.0, alpha_max)
        a_mixed = _invert_monotone(mixed_p_of, v, 0.0, alpha_max)
        return family_bot("phase_encoded", "pure", a_pure, tail_tol) - family_bot(
            "phase_encoded", "mixed", a_mixed, tail_tol
        )

    alphas = np.linspace(0.0, alpha_max, grid_points)
    pure_p = np.array([pure_p_of(a) for a in alphas])
    pure_b = np.array([family_bot("phase_encoded", "pure", a, tail_tol) for a in alphas])
    mixed_p = np.array([mixed_p_of(a) for a in alphas])
    mixed_b = np.array([family_bot("phase_encoded", "mixed", a, tail_tol) for a in alphas])

    lo = max(pure_p[0], mixed_p[0])
    hi = min(pure_p[-1], mixed_p[-1])
    grid = np.linspace(lo, hi, grid_points)
    advantage = np.interp(grid, pure_p, pure_b) - np.interp(grid, mixed_p, mixed_b)
    below = advantage > 0.0

    candidates: list[tuple[int, int]] = []
    start_idx = None
    for i, flag in enumerate(below):
        if flag and start_idx is None:
            start_idx = i
        elif not flag and start_idx is not None:
            candidates.append((start_idx, i))
            start_idx = None
    if start_idx is not None:
        candidates.append((start_idx, len(grid) - 1))

    intervals: list[tuple[float, float]] = []
    for i0, i1 in candidates:
        peak = i0 + int(np.argmax(advantage[i0 : i1 + 1]))
        if exact_advantage(float(grid[peak])) < min_advantage:
            continue
        lower = float(grid[i0])
        if i0 > 0:
            lower = _invert_monotone(
                exact_advantage, 0.0, float(grid[i0 - 1]), float(grid[peak]), 40
            )
        upper = float(grid[i1])
        if i1 < len(grid) - 1:
            upper = _invert_monotone(
                lambda v: -exact_advantage(v),
                0.0,
                float(grid[peak]),
                float(grid[i1 + 1]),
                40,
            )
        intervals.append((lower, upper))
    return CrossoverReport(tuple(intervals), alpha_max, grid_points)
