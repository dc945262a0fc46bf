"""Closed-form discrimination probabilities for the coherent-state families.

Minimum-error (p_corr), unambiguous, one-bit Helstrom (p_1bit) and full
cheating (b_ot) probabilities, for the pure families and their
phase-randomized counterparts.  Mixed-state values are Poisson-weighted
series over photon-number subspaces.  Every overlap is read from the exact
integer family row `CoherentFamily.gram_row`, and block overlaps are rounded
once, so radicands that vanish identically do so to the last bit.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache, wraps

import numpy as np

from .phase_rand import DEFAULT_N_CAP, DEFAULT_TAIL_TOL, poisson_series, poisson_series_grid
from .symmetric import FAMILIES

COHERENT_FAMILIES = tuple(FAMILIES)

#: Families encoding two bits in four states (p_1bit / b_ot are defined here).
FOUR_STATE_FAMILIES = tuple(t for t, f in FAMILIES.items() if len(f.orbit) == 4)

VARIANTS = ("pure", "mixed")

#: Grid points per vectorised Poisson pass.  A pass holds two (points x 151)
#: float arrays, so this bounds them near 2.5 MB whatever the grid's length;
#: every grid the library scans itself (at most 801 points) is one pass.  The
#: weights of the last four passes stay in `_grid_weights`: at most 1.2 MB
#: for a full chunk, and 190-310 KB for a 301-point grid on |alpha| in [0, 4].
GRID_CHUNK = 1024


class InvalidOverlapError(ValueError):
    """Overlap parameters produced a radicand too negative to clip."""


def _family_tag(family) -> str:
    if family not in COHERENT_FAMILIES:
        raise ValueError(f"unsupported family {family!r}")
    return family


def _intensities(alphas: np.ndarray) -> np.ndarray:
    """|alpha|^2 of each entry of a grid checked by `_grid`, saturating at the
    largest float.

    Past the float range, |alpha| = inf included, every exp(-k |alpha|^2) is
    exactly 0, so each closed form returns its exact limit and a Poisson
    series raises CapacityError, instead of a trigonometric factor raising on
    inf.  The square is x * x, never libm pow, which differs from the product
    on some inputs.
    """
    with np.errstate(over="ignore"):  # x * x overflows to inf, then saturates
        square = alphas * alphas
    return np.minimum(square, sys.float_info.max, out=square)


def _normalized_prior(p: float) -> float:
    """Map a prior to p_min = min(p, 1-p); probabilities are symmetric in it."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"prior {p} outside (0, 1)")
    return min(p, 1.0 - p)


def _clip_radicands(x: np.ndarray) -> np.ndarray:
    """Each radicand clipped at 0; the first entry below -1e-12 raises.

    max(-0.0, 0.0) is -0.0, so this takes np.where, not np.maximum, to keep
    that zero.
    """
    low = x < -1e-12
    if low.any():
        raise InvalidOverlapError(f"radicand {x[np.argmax(low)]:.3e} below -1e-12")
    return np.where(x < 0.0, 0.0, x)


def _libm_each(fn):
    """A `math` function applied to each entry of an array.

    numpy's own exp, cos, cosh, ... round differently from libm on some
    inputs (its SIMD versions do), and the reference curves were written
    with libm, so every kernel calls libm entry by entry.  np.sqrt is
    correctly rounded like math.sqrt, and arithmetic is IEEE in both.
    """
    return lambda x: np.fromiter(map(fn, x.tolist()), float, x.size)


_exp, _cos, _sin, _cosh, _sinh = map(
    _libm_each, (math.exp, math.cos, math.sin, math.cosh, math.sinh)
)


def _grid(alpha_abs) -> tuple[np.ndarray, bool]:
    """A 1-D |alpha| grid as a float array, and whether it was a single point.

    A single |alpha| is a one-entry grid.  A grid is checked before any
    point is evaluated: its first NaN or negative entry raises ValueError.
    """
    alphas = np.asarray(alpha_abs, dtype=float)
    point = alphas.ndim == 0
    if point:
        alphas = alphas.reshape(1)
    elif alphas.ndim != 1:
        raise ValueError(f"|alpha| grid has shape {alphas.shape}, not 1-D")
    invalid = ~(alphas >= 0)
    if invalid.any():
        bad = float(alphas[np.argmax(invalid)])
        raise ValueError("|alpha| is NaN" if math.isnan(bad) else f"negative |alpha| {bad}")
    return alphas, point


def _closed_form(kernel):
    """Make kernel(w, *args) of an array w = |alpha|^2 a function of |alpha|.

    The function takes one |alpha| (and returns a float) or a 1-D grid
    (checked first by `_grid`; returns an array); a single point runs as a
    one-entry grid.  The kernel works entry by entry and every square in it
    is x * x, so a value does not depend on the grid around it.  numpy warns
    where a product overflows to inf, which is the intended value here, so
    the kernel runs with overflow warnings off.  A grid whose kernel raises
    InvalidOverlapError runs its points again as one-entry grids, so the
    error raised is the first failing point's own.
    """

    @wraps(kernel)
    def closed_form(alpha_abs, *args, **kwargs):
        alphas, point = _grid(alpha_abs)
        try:
            with np.errstate(over="ignore"):
                values = kernel(_intensities(alphas), *args, **kwargs)
        except InvalidOverlapError:
            if not point:
                for a in alphas.tolist():
                    closed_form(a, *args, **kwargs)
            raise
        return float(values[0]) if point else values

    return closed_form


@lru_cache(maxsize=None)
def _block_overlaps(tag: str) -> tuple[tuple[float, float, float], ...]:
    """(Re F_N, Im F_N, G_N) for N = 1..DEFAULT_N_CAP, each rounded once.

    F_N = c_1^N and G_N = c_2^N (real for four states, c_2 = conj(c_2)), by
    one exact Gaussian-integer multiply per N from the family row; both
    metric tables of a family read this one sequence.
    """
    family = FAMILIES[tag]
    (a, b), (z2, _) = family.gram_row[1:3]
    rows, re, im, g, scale = [], a, b, z2, family.modes
    for _ in range(DEFAULT_N_CAP):
        rows.append((re / scale, im / scale, g / scale))
        re, im, g, scale = re * a - im * b, re * b + im * a, g * z2, scale * family.modes
    return tuple(rows)


def _block_success(tag: str, metric: str, re, im, g):
    """Success of `metric` in N-photon subspaces (N >= 1), entry by entry.

    From arrays of the block overlaps F_N = re + i im and G_N = g: the
    square-root-measurement brackets of `three_mode_mixed_pcorr` and
    `phase_encoded_mixed_pcorr` for p_corr, and the overlap formula for
    p_1bit, whose three-mode radicand stays factored so that 1 + 3 G_N
    cancels exactly at N = 1.
    """
    if metric == "p_1bit":
        if tag != "three_mode":
            return _p1bit_from_squares(re * re, im * im, g)
        return 0.5 + 0.25 * ((1.0 - g) + np.sqrt(_clip_radicands((1.0 - g) * (1.0 + 3.0 * g))))
    if tag == "three_mode":
        bracket = 3.0 * np.sqrt(_clip_radicands(1.0 - g)) + np.sqrt(_clip_radicands(1.0 + 3.0 * g))
        return bracket * bracket / 16.0
    rc = np.sqrt(_clip_radicands(1.0 - 4.0 * (re * re)))
    rs = np.sqrt(_clip_radicands(1.0 - 4.0 * (im * im)))
    bracket = np.sqrt(1.0 + rc) + np.sqrt(1.0 + rs)
    return bracket * bracket / 8.0


@lru_cache(maxsize=None)
def _subspace_table(tag: str, metric: str) -> np.ndarray:
    """s_N for N = 0..DEFAULT_N_CAP: the per-subspace success of a mixed metric.

    `metric` is "p_corr" (square-root measurement, optimal for symmetric pure
    states) or "p_1bit"; the vacuum entry is the random guess, 1/L among the
    L states or 1/2 for one bit, and entry N is `_block_success` at the
    block overlaps `_block_overlaps`.  The table does not depend on |alpha|,
    so it is built once per (family, metric), and is read-only.
    """
    vacuum = 0.5 if metric == "p_1bit" else 1.0 / len(FAMILIES[tag].orbit)
    re, im, g = np.array(_block_overlaps(tag)).T
    table = np.concatenate(([vacuum], _block_success(tag, metric, re, im, g)))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4)
def _grid_weights(means: bytes, tail_tol: float) -> np.ndarray:
    """Read-only `poisson_series_grid` of one chunk of means, given as bytes.

    The weights depend on the mean photon numbers only, so every mixed
    metric of a family over one grid reads the same pass: a process keeps
    the last four (means, tail tolerance) passes.  A failing pass raises
    and is not kept.
    """
    weights = poisson_series_grid(np.frombuffer(means), tail_tol)
    weights.flags.writeable = False
    return weights


@_closed_form
def _mixed_column(w, tag: str, metric: str, tail_tol: float):
    """Poisson series sum_N p_N s_N of a phase-randomized family.

    The mean photon number is M |alpha|^2 for an M-mode family.  One shared
    `_grid_weights` pass per chunk of points; each row's terms p_N s_N are
    summed left to right by np.add.accumulate, and the zero weights past a
    row's truncation leave its sum unchanged.
    """
    means = FAMILIES[tag].modes * w  # M times the largest float is inf
    table = _subspace_table(tag, metric)
    out = np.empty(means.size)
    for start in range(0, means.size, GRID_CHUNK):
        weights = _grid_weights(means[start : start + GRID_CHUNK].tobytes(), tail_tol)
        terms = weights * table[: weights.shape[1]]  # p_N s_N, in a fresh array
        out[start : start + GRID_CHUNK] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return out


def _mixed_pcorr(tag: str, alpha_abs: float, tail_tol: float) -> tuple[float, int]:
    """(value, number of Poisson terms) of a mixed p_corr series at one |alpha|."""
    value = _mixed_column(alpha_abs, tag, "p_corr", tail_tol)
    return value, len(poisson_series(FAMILIES[tag].modes * (alpha_abs * alpha_abs), tail_tol))


# ---------------------------------------------------------------------------
# two-mode family (one bit in the relative sign of two equal pulses)


# Each closed form below is a kernel of w = |alpha|^2 made by `_closed_form`
# into a function of one |alpha| or a 1-D grid, as for `family_pcorr`.


@_closed_form
def two_mode_mixed_pcorr(w, p_min: float = 0.5):
    """Helstrom probability 1 - p_min exp(-2|alpha|^2) after phase randomization."""
    p = _normalized_prior(p_min)
    return 1.0 - p * _exp(-2.0 * w)


@_closed_form
def two_mode_pure_pcorr(w, p_min: float = 0.5):
    """Helstrom probability for the pure two-mode states.

    1/2 + (1/2) sqrt(1 - 4 p (1-p) exp(-4|alpha|^2)).
    """
    p = _normalized_prior(p_min)
    radicand = _clip_radicands(1.0 - 4.0 * p * (1.0 - p) * _exp(-4.0 * w))
    return 0.5 + 0.5 * np.sqrt(radicand)


# ---------------------------------------------------------------------------
# three-mode family


def three_mode_mixed_pcorr(
    alpha_abs: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[float, int]:
    """Minimum-error probability for the phase-randomized three-mode states.

    Poisson series with per-subspace square-root-measurement success
    (1/16) [3 sqrt(1 - G_N) + sqrt(1 + 3 G_N)]^2, where G_N = (-1/3)^N is
    the block overlap c_2^N.  Returns (value, number of terms).
    """
    return _mixed_pcorr("three_mode", alpha_abs, tail_tol)


@_closed_form
def three_mode_pure_pcorr(w):
    """Minimum-error probability (1/4) (1 + sqrt(1 - exp(-4|alpha|^2)))^2."""
    bracket = 1.0 + np.sqrt(_clip_radicands(1.0 - _exp(-4.0 * w)))
    return 0.25 * (bracket * bracket)


# ---------------------------------------------------------------------------
# four-mode family


@_closed_form
def four_mode_mixed_pcorr(w):
    """Minimum-error probability 1 - (3/4) exp(-4|alpha|^2).

    A single photon anywhere identifies the state; only the vacuum forces a
    one-in-four guess, so the series collapses to a closed form.
    """
    return 1.0 - 0.75 * _exp(-4.0 * w)


@_closed_form
def four_mode_unambiguous(w):
    """Unambiguous success probability 1 - exp(-4|alpha|^2)."""
    return 1.0 - _exp(-4.0 * w)


@_closed_form
def four_mode_pure_pcorr(w):
    """Minimum-error probability for the pure four-mode states.

    (1/16) (sqrt(1 + 3 e) + 3 sqrt(1 - e))^2 with e = exp(-4|alpha|^2).
    """
    e = _exp(-4.0 * w)
    bracket = np.sqrt(1.0 + 3.0 * e) + 3.0 * np.sqrt(_clip_radicands(1.0 - e))
    return bracket * bracket / 16.0


# ---------------------------------------------------------------------------
# phase-encoded two-mode family


def phase_encoded_mixed_pcorr(
    alpha_abs: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[float, int]:
    """Minimum-error probability for the phase-randomized phase-encoded states.

    Poisson series whose N-th bracket is
    sqrt(1 + sqrt(1 - 4 (Re F_N)^2)) + sqrt(1 + sqrt(1 - 4 (Im F_N)^2)),
    squared and divided by 8, where F_N = ((1 + i)/2)^N is the block overlap
    c_1^N; it is exact, so the N = 1, 2 radicands vanish identically.
    This same quantity is the receiver's full cheating probability b_ot.
    Returns (value, number of terms).
    """
    return _mixed_pcorr("phase_encoded", alpha_abs, tail_tol)


@_closed_form
def phase_encoded_pure_pcorr(w):
    """Minimum-error probability for the pure phase-encoded states.

    (e^{-w}/4) (sqrt(cosh w + sqrt(cosh^2 w - cos^2 w))
               + sqrt(sinh w + sqrt(sinh^2 w - sin^2 w)))^2 with w = |alpha|^2;
    both inner radicands are non-negative for all w >= 0 and the value tends
    to 1/4 as w -> 0 (cosh, cos -> 1 and sinh, sin -> 0).  Where cosh^2 w
    overflows (w > 355.58) the value has long been 1 to rounding, and 1 is
    returned.
    """
    c, s = _cos(w), _sin(w)
    # cosh and sinh raise past w = 710.47; cosh(710)^2 already overflows, so
    # past 710 the capped w gives the same 1 and every factor stays finite
    capped = np.where(w > 710.0, 710.0, w)
    ch, sh = _cosh(capped), _sinh(capped)
    ch2 = ch * ch
    first = np.sqrt(ch + np.sqrt(_clip_radicands(ch2 - c * c)))
    second = np.sqrt(sh + np.sqrt(_clip_radicands(sh * sh - s * s)))
    bracket = first + second
    value = _exp(-capped) * (bracket * bracket) / 4.0
    return np.where(ch2 < math.inf, value, 1.0)


# ---------------------------------------------------------------------------
# minimum-error pcorr dispatch


def family_pcorr(
    family,
    variant: str,
    alpha_abs,
    prior: float = 0.5,
    tail_tol: float = DEFAULT_TAIL_TOL,
):
    """Minimum-error probability of a coherent family, pure or mixed.

    `alpha_abs` is one |alpha| (returns a float) or a 1-D grid (returns an
    array, each entry bit-identical to the single-point call).  `prior` is
    one state's prior; every family but two_mode takes only 1/2.
    """
    tag = _family_tag(family)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if tag == "two_mode":
        if variant == "mixed":
            return two_mode_mixed_pcorr(alpha_abs, prior)
        return two_mode_pure_pcorr(alpha_abs, prior)
    if prior != 0.5:
        raise ValueError(f"prior {prior} applies to the two_mode family only, not {tag}")
    if variant == "mixed":
        if tag == "four_mode":
            return four_mode_mixed_pcorr(alpha_abs)
        return _mixed_column(alpha_abs, tag, "p_corr", tail_tol)
    pure = {
        "three_mode": three_mode_pure_pcorr,
        "four_mode": four_mode_pure_pcorr,
        "phase_encoded": phase_encoded_pure_pcorr,
    }[tag]
    return pure(alpha_abs)


def delta_pcorr(
    family, alpha_abs, prior: float = 0.5, tail_tol: float = DEFAULT_TAIL_TOL
):
    """Gap p_corr(pure) - p_corr(mixed): what phase randomization costs.

    One |alpha| or a 1-D grid, as for `family_pcorr`.
    """
    return family_pcorr(family, "pure", alpha_abs, prior, tail_tol) - family_pcorr(
        family, "mixed", alpha_abs, prior, tail_tol
    )


def delta_pcorr_max(family) -> tuple[float, float]:
    """Grid-scan maximum of delta_pcorr on [0, 3] at step 0.005.

    The curves are smooth and unimodal at plot resolution, so a fixed-step
    scan suffices; returns (alpha_at_max, max_value), the first grid point
    of a tie, or (0, 0) when no gap is positive.
    """
    alphas = np.arange(601) * 0.005
    gaps = delta_pcorr(family, alphas)
    i = int(np.argmax(gaps))
    if not gaps[i] > 0.0:
        return 0.0, 0.0
    return float(alphas[i]), float(gaps[i])


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
    squares = (np.array([x]) for x in (f.real * f.real, f.imag * f.imag, g))
    return float(_p1bit_from_squares(*squares)[0])


def _p1bit_from_squares(re2, im2, g):
    """`p1bit_from_overlaps` in terms of (Re F)^2, (Im F)^2 and G, entry by entry."""
    one_plus, one_minus = 1.0 + g, 1.0 - g
    r = one_plus * one_plus * im2 + one_minus * one_minus * re2 - 4.0 * re2 * im2
    root = np.sqrt(_clip_radicands(r))
    g2 = g * g
    plus = np.sqrt(_clip_radicands(1.0 - g2 + 2.0 * root))
    minus = np.sqrt(_clip_radicands(1.0 - g2 - 2.0 * root))
    return 0.5 * (1.0 + 0.5 * plus + 0.5 * minus)


def _pure_overlap_parts(tag: str, w):
    """(Re F, Im F, G) of the pure overlaps at each entry of w = |alpha|^2.

    <a_0|a_k> = exp(-(M - Re z_k) w) e^{i Im z_k w} from the family row z_k,
    with exact integer coefficients; G is real, as in `_subspace_table`.
    """
    family = FAMILIES[tag]
    (f_re, f_im), (g_re, _) = family.gram_row[1:3]
    decay = _exp(-(family.modes - f_re) * w)
    g = _exp(-(family.modes - g_re) * w)
    if not f_im:
        return decay, 0.0, g
    return decay * _cos(f_im * w), decay * _sin(f_im * w), g


@_closed_form
def _pure_p1bit(w, tag: str):
    """Pure-state p_1bit of a four-state family: the overlap formula."""
    re, im, g = _pure_overlap_parts(tag, w)
    return _p1bit_from_squares(re * re, im * im, g)


def _gaussian_power(z: tuple[int, int], n: int) -> tuple[int, int]:
    """z^n of a Gaussian integer z = (a, b), by repeated squaring."""
    (a, b), (re, im) = z, (1, 0)
    if not b:
        return a**n, 0
    while n:
        if n & 1:
            re, im = re * a - im * b, re * b + im * a
        a, b, n = a * a - b * b, 2 * a * b, n >> 1
    return re, im


def subspace_overlaps(family, photons: int) -> np.ndarray:
    """First Gram row <psi_0|psi_k> = c_k^N of the N-photon subspace states.

    Independent of the numerically computed Gram matrices: each z_k^N / M^N
    from the family row is raised in Python integers and rounded once, so it
    is correctly rounded for any N.  For the four-state families the row is
    (1, F_N, G_N, conj F_N).
    """
    family = FAMILIES[_family_tag(family)]
    photons = operator.index(photons)  # exact Python powers; refuses 2.5
    if photons < 0:
        raise ValueError(f"negative photon number {photons}")
    scale = family.modes**photons
    powers = [_gaussian_power(z, photons) for z in family.gram_row]
    return np.array([complex(re / scale, im / scale) for re, im in powers])


def family_p1bit(family, variant: str, alpha_abs, tail_tol: float = DEFAULT_TAIL_TOL):
    """Probability that an honest receiver learns their chosen bit.

    Pure variant: the overlap formula on the family's pure overlaps.  Mixed
    variant: Poisson-weighted sum of per-subspace values, with the vacuum
    term fixed at 1/2 (indistinguishable states force a coin flip).  One
    |alpha| or a 1-D grid, as for `family_pcorr`.
    """
    tag = _family_tag(family)
    if tag not in FOUR_STATE_FAMILIES:
        raise ValueError(f"{tag} does not encode two bits in four states")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "pure":
        return _pure_p1bit(alpha_abs, tag)
    return _mixed_column(alpha_abs, tag, "p_1bit", tail_tol)


def family_bot(family, variant: str, alpha_abs, tail_tol: float = DEFAULT_TAIL_TOL):
    """Dishonest receiver's probability of learning both bits.

    Cheating means discriminating all four states at once, so this is the
    corresponding minimum-error probability.  One |alpha| or a 1-D grid, as
    for `family_pcorr`.
    """
    tag = _family_tag(family)
    if tag not in FOUR_STATE_FAMILIES:
        raise ValueError(f"{tag} does not encode two bits in four states")
    return family_pcorr(tag, variant, alpha_abs, tail_tol=tail_tol)


# ---------------------------------------------------------------------------
# phase-encoded mixed-vs-pure crossover


def _bracketed_root(fn, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A root of fn in [lo, hi] by Illinois regula falsi (Dowell & Jarratt 1971).

    f_lo = fn(lo) and f_hi = fn(hi) differ in sign.  Each step evaluates fn at
    the secant point of the bracket (the midpoint where that rounds onto an
    end) and keeps the part where fn changes sign; an end kept twice in a row
    has its value halved, so that it moves too.  Stops where fn is exactly 0,
    once the bracket is four ulps wide, or after 100 steps, and returns the
    last point evaluated (the midpoint of a bracket that starts that narrow).
    """
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    x, kept = 0.5 * (lo + hi), None
    for _ in range(100):
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f_x = fn(x)
        if f_x == 0.0:
            break
        if (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f_x
            f_hi *= 0.5 if kept == "hi" else 1.0
            kept = "hi"
        else:
            hi, f_hi = x, f_x
            f_lo *= 0.5 if kept == "lo" else 1.0
            kept = "lo"
    return x


def phase_encoded_ot_crossover() -> tuple[tuple[float, float], ...]:
    """Where phase randomization lowers the cheating probability.

    Returns the intervals of the honest-success variable p_1bit within
    which b_ot(mixed) < b_ot(pure) at equal p_1bit, in increasing order.

    Both (p_1bit, b_ot) curves are parametric in |alpha| and monotone in it.
    A coarse interpolated scan of 801 points of |alpha| in [0, 4] locates
    candidate p_1bit intervals where the mixed curve lies below the pure
    one.  Each candidate is then confirmed by the exact advantage at its
    deepest point, which must reach 1e-9 (interpolation noise near
    p_1bit = 1/2, where the curves launch from a common point, cannot
    survive that check), and its inner endpoints are refined to roots of
    the exact advantage.  The exact advantage is taken at the p_1bit of the
    pure states at one |alpha|, so only the mixed curve is inverted there;
    every inversion and every root is one `_bracketed_root` call, an
    inversion inside the scan cell that brackets its p_1bit.
    """
    alphas = np.linspace(0.0, 4.0, 801)
    pure_p = family_p1bit("phase_encoded", "pure", alphas)
    pure_b = family_bot("phase_encoded", "pure", alphas)
    mixed_p = family_p1bit("phase_encoded", "mixed", alphas)
    mixed_b = family_bot("phase_encoded", "mixed", alphas)

    def inverse(variant: str, scan: np.ndarray, v: float) -> float:
        """|alpha| where the p_1bit of `variant` is v, within one scan cell."""
        i = min(max(int(np.searchsorted(scan, v)), 1), len(scan) - 1)
        a_lo, a_hi = alphas[i - 1 : i + 1].tolist()
        f_lo, f_hi = (scan[i - 1 : i + 1] - v).tolist()
        fn = lambda a: family_p1bit("phase_encoded", variant, a) - v  # noqa: E731
        return _bracketed_root(fn, a_lo, a_hi, f_lo, f_hi)

    def advantage(a: float) -> float:
        """b_ot(pure) - b_ot(mixed) at the p_1bit of the pure states at |alpha| = a."""
        a_mixed = inverse("mixed", mixed_p, family_p1bit("phase_encoded", "pure", a))
        return family_bot("phase_encoded", "pure", a) - family_bot(
            "phase_encoded", "mixed", a_mixed
        )

    lo = max(pure_p[0], mixed_p[0])
    hi = min(pure_p[-1], mixed_p[-1])
    grid = np.linspace(lo, hi, len(alphas))
    scanned = np.interp(grid, pure_p, pure_b) - np.interp(grid, mixed_p, mixed_b)
    below = scanned > 0.0

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
        peak = i0 + int(np.argmax(scanned[i0 : i1 + 1]))
        a_peak = inverse("pure", pure_p, float(grid[peak]))
        f_peak = advantage(a_peak)
        if f_peak < 1e-9:
            continue
        lower, upper = float(grid[i0]), float(grid[i1])
        if i0 > 0:
            a = inverse("pure", pure_p, float(grid[i0 - 1]))
            a = _bracketed_root(advantage, a, a_peak, advantage(a), f_peak)
            lower = family_p1bit("phase_encoded", "pure", a)
        if i1 < len(grid) - 1:
            a = inverse("pure", pure_p, float(grid[i1 + 1]))
            a = _bracketed_root(advantage, a_peak, a, f_peak, advantage(a))
            upper = family_p1bit("phase_encoded", "pure", a)
        intervals.append((lower, upper))
    return tuple(intervals)
