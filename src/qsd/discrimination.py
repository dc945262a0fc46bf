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
from types import SimpleNamespace

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


def _intensity(alpha_abs: float) -> float:
    """|alpha|^2 of a non-negative |alpha|, saturating at the largest float.

    Past the float range, |alpha| = inf included, every exp(-k |alpha|^2) is
    exactly 0, so each closed form returns its exact limit and a Poisson
    series raises CapacityError, instead of a trigonometric factor raising on
    inf.  NaN raises ValueError.  The square is x * x, as in
    `_intensities`: x ** 2 is libm pow, which differs from the product on
    some inputs and raises OverflowError where the product gives inf.
    """
    if math.isnan(alpha_abs):
        raise ValueError("|alpha| is NaN")
    if alpha_abs < 0:
        raise ValueError(f"negative |alpha| {alpha_abs}")
    x = float(alpha_abs)
    return min(x * x, sys.float_info.max)


def _intensities(alphas: np.ndarray) -> np.ndarray:
    """`_intensity` of each entry of a grid checked by `_grid`, bit for bit."""
    with np.errstate(over="ignore"):  # x * x overflows to inf, then saturates
        square = alphas * alphas
    return np.minimum(square, sys.float_info.max, out=square)


def _normalized_prior(p: float) -> float:
    """Map a prior to p_min = min(p, 1-p); probabilities are symmetric in it."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"prior {p} outside (0, 1)")
    return min(p, 1.0 - p)


def _clip_radicand(x: float) -> float:
    if x < -1e-12:
        raise InvalidOverlapError(f"radicand {x:.3e} below -1e-12")
    return max(x, 0.0)


def _clip_radicands(x: np.ndarray) -> np.ndarray:
    """`_clip_radicand` of each entry; the first entry below -1e-12 raises.

    max(-0.0, 0.0) is -0.0, so this takes np.where, not np.maximum, to give
    the same zero.
    """
    low = x < -1e-12
    if low.any():
        _clip_radicand(float(x[np.argmax(low)]))
    return np.where(x < 0.0, 0.0, x)


def _libm_each(fn):
    """A `math` function applied to each entry of an array.

    numpy's own exp, cos, cosh, ... round differently from libm on some
    inputs (its SIMD versions do), so a grid calls the same libm function
    as a single point, and each entry is bit-identical to the point's value.
    """
    return lambda x: np.fromiter(map(fn, x.tolist()), float, x.size)


#: The operations a closed-form kernel uses besides arithmetic, for one
#: point (libm itself) and for a grid (libm per entry; np.sqrt is correctly
#: rounded like math.sqrt).  Arithmetic is IEEE in Python and numpy alike.
_POINT_OPS = SimpleNamespace(
    exp=math.exp, cos=math.cos, sin=math.sin, cosh=math.cosh, sinh=math.sinh,
    sqrt=math.sqrt, clip=_clip_radicand, where=lambda c, x, y: x if c else y,
)
_GRID_OPS = SimpleNamespace(
    exp=_libm_each(math.exp), cos=_libm_each(math.cos), sin=_libm_each(math.sin),
    cosh=_libm_each(math.cosh), sinh=_libm_each(math.sinh),
    sqrt=np.sqrt, clip=_clip_radicands, where=np.where,
)


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


@lru_cache(maxsize=None)
def _subspace_table(tag: str, metric: str) -> tuple[float, ...]:
    """s_N for N = 0..DEFAULT_N_CAP: the per-subspace success of a mixed metric.

    `metric` is "p_corr" (square-root measurement, optimal for symmetric pure
    states) or "p_1bit"; the vacuum entry is the random guess, 1/L among the
    L states or 1/2 for one bit, and entry N is the metric's term at the
    block overlaps `_block_overlaps`.  The table does not depend on |alpha|,
    so it is built once per (family, metric).
    """
    if metric == "p_1bit":
        vacuum, term = 0.5, _p1bit_subspace_term
    else:
        vacuum, term = 1.0 / len(FAMILIES[tag].orbit), _pcorr_subspace_term
    return (vacuum, *(term(tag, re, im, g) for re, im, g in _block_overlaps(tag)))


def _mixed_series(
    tag: str, metric: str, alpha_abs: float, tail_tol: float
) -> tuple[float, int]:
    """Poisson series sum_N p_N s_N of a phase-randomized family.

    The mean photon number is M |alpha|^2 for an M-mode family; terms are
    summed left to right in N, so a point's value does not depend on the
    grid it sits on.  Returns (value, number of terms).
    """
    weights = poisson_series(FAMILIES[tag].modes * _intensity(alpha_abs), tail_tol)
    total = 0.0
    for p_n, s_n in zip(weights, _subspace_table(tag, metric)):
        total += p_n * s_n
    return total, len(weights)


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


def _mixed_column(
    tag: str, metric: str, alphas: np.ndarray, tail_tol: float
) -> np.ndarray:
    """`_mixed_series` values over a 1-D |alpha| grid, bit-identical per point.

    One shared `_grid_weights` pass per chunk of points; each row's terms
    p_N s_N are summed left to right by np.add.accumulate, and the zero
    weights past a row's truncation leave its sum unchanged.
    """
    with np.errstate(over="ignore"):  # M times the largest float is inf, as for a point
        means = FAMILIES[tag].modes * _intensities(alphas)
    table = np.array(_subspace_table(tag, metric))
    out = np.empty(means.size)
    for start in range(0, means.size, GRID_CHUNK):
        weights = _grid_weights(means[start : start + GRID_CHUNK].tobytes(), tail_tol)
        terms = weights * table[: weights.shape[1]]  # p_N s_N, in a fresh array
        out[start : start + GRID_CHUNK] = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return out


def _grid(alpha_abs) -> np.ndarray | None:
    """A 1-D |alpha| grid as a float array, or None for a single point.

    A grid is checked before any point is evaluated: its first NaN or
    negative entry raises the ValueError that point raises on its own.
    """
    if isinstance(alpha_abs, (float, int)) or np.ndim(alpha_abs) == 0:
        return None
    alphas = np.asarray(alpha_abs, dtype=float)
    if alphas.ndim != 1:
        raise ValueError(f"|alpha| grid has shape {alphas.shape}, not 1-D")
    invalid = ~(alphas >= 0)
    if invalid.any():
        _intensity(float(alphas[np.argmax(invalid)]))
    return alphas


def _closed_form(kernel):
    """Make kernel(ops, w, *args) of w = |alpha|^2 a function of |alpha|.

    The function takes one |alpha| (and returns a float, with `_POINT_OPS`)
    or a 1-D grid (checked first by `_grid`; returns an array, with
    `_GRID_OPS`).  The kernel is one body of code for both, and every square
    in it is x * x, so each grid entry is bit-identical to its point's
    value.  numpy warns where a product overflows to inf and Python does
    not, so a grid runs with overflow warnings off.  A grid whose kernel
    raises InvalidOverlapError runs its points one at a time, so the error
    raised is the first failing point's own.
    """

    @wraps(kernel)
    def closed_form(alpha_abs, *args, **kwargs):
        alphas = _grid(alpha_abs)
        if alphas is None:
            return kernel(_POINT_OPS, _intensity(alpha_abs), *args, **kwargs)
        try:
            with np.errstate(over="ignore"):
                return kernel(_GRID_OPS, _intensities(alphas), *args, **kwargs)
        except InvalidOverlapError:
            for a in alphas.tolist():
                kernel(_POINT_OPS, _intensity(a), *args, **kwargs)
            raise

    return closed_form


def _mixed(tag: str, metric: str, alpha_abs, tail_tol: float):
    """Mixed-series value at one point (scalar loop) or over a grid (column pass)."""
    alphas = _grid(alpha_abs)
    if alphas is None:
        return _mixed_series(tag, metric, alpha_abs, tail_tol)[0]
    return _mixed_column(tag, metric, alphas, tail_tol)


# ---------------------------------------------------------------------------
# two-mode family (one bit in the relative sign of two equal pulses)


# Each closed form below is a kernel of w = |alpha|^2 made by `_closed_form`
# into a function of one |alpha| or a 1-D grid, as for `family_pcorr`.


@_closed_form
def two_mode_mixed_pcorr(m, w, p_min: float = 0.5):
    """Helstrom probability 1 - p_min exp(-2|alpha|^2) after phase randomization."""
    p = _normalized_prior(p_min)
    return 1.0 - p * m.exp(-2.0 * w)


@_closed_form
def two_mode_pure_pcorr(m, w, p_min: float = 0.5):
    """Helstrom probability for the pure two-mode states.

    1/2 + (1/2) sqrt(1 - 4 p (1-p) exp(-4|alpha|^2)).
    """
    p = _normalized_prior(p_min)
    radicand = m.clip(1.0 - 4.0 * p * (1.0 - p) * m.exp(-4.0 * w))
    return 0.5 + 0.5 * m.sqrt(radicand)


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
    return _mixed_series("three_mode", "p_corr", alpha_abs, tail_tol)


@_closed_form
def three_mode_pure_pcorr(m, w):
    """Minimum-error probability (1/4) (1 + sqrt(1 - exp(-4|alpha|^2)))^2."""
    bracket = 1.0 + m.sqrt(m.clip(1.0 - m.exp(-4.0 * w)))
    return 0.25 * (bracket * bracket)


# ---------------------------------------------------------------------------
# four-mode family


@_closed_form
def four_mode_mixed_pcorr(m, w):
    """Minimum-error probability 1 - (3/4) exp(-4|alpha|^2).

    A single photon anywhere identifies the state; only the vacuum forces a
    one-in-four guess, so the series collapses to a closed form.
    """
    return 1.0 - 0.75 * m.exp(-4.0 * w)


@_closed_form
def four_mode_unambiguous(m, w):
    """Unambiguous success probability 1 - exp(-4|alpha|^2)."""
    return 1.0 - m.exp(-4.0 * w)


@_closed_form
def four_mode_pure_pcorr(m, w):
    """Minimum-error probability for the pure four-mode states.

    (1/16) (sqrt(1 + 3 e) + 3 sqrt(1 - e))^2 with e = exp(-4|alpha|^2).
    """
    e = m.exp(-4.0 * w)
    bracket = m.sqrt(1.0 + 3.0 * e) + 3.0 * m.sqrt(m.clip(1.0 - e))
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
    return _mixed_series("phase_encoded", "p_corr", alpha_abs, tail_tol)


def _pcorr_subspace_term(tag: str, re: float, im: float, g: float) -> float:
    """Square-root-measurement success in an N-photon subspace (N >= 1).

    The three-mode and phase-encoded brackets above, from the block overlaps
    F_N = re + i im and G_N = g.
    """
    if tag == "three_mode":
        bracket = 3.0 * math.sqrt(_clip_radicand(1.0 - g)) + math.sqrt(
            _clip_radicand(1.0 + 3.0 * g)
        )
        return bracket**2 / 16.0
    rc = _clip_radicand(1.0 - 4.0 * (re * re))
    rs = _clip_radicand(1.0 - 4.0 * (im * im))
    bracket = math.sqrt(1.0 + math.sqrt(rc)) + math.sqrt(1.0 + math.sqrt(rs))
    return bracket**2 / 8.0


@_closed_form
def phase_encoded_pure_pcorr(m, w):
    """Minimum-error probability for the pure phase-encoded states.

    (e^{-w}/4) (sqrt(cosh w + sqrt(cosh^2 w - cos^2 w))
               + sqrt(sinh w + sqrt(sinh^2 w - sin^2 w)))^2 with w = |alpha|^2;
    both inner radicands are non-negative for all w >= 0 and the value tends
    to 1/4 as w -> 0 (cosh, cos -> 1 and sinh, sin -> 0).  Where cosh^2 w
    overflows (w > 355.58) the value has long been 1 to rounding, and 1 is
    returned.
    """
    c, s = m.cos(w), m.sin(w)
    # cosh and sinh raise past w = 710.47; cosh(710)^2 already overflows, so
    # past 710 the capped w gives the same 1 and every factor stays finite
    capped = m.where(w > 710.0, 710.0, w)
    ch, sh = m.cosh(capped), m.sinh(capped)
    ch2 = ch * ch
    first = m.sqrt(ch + m.sqrt(m.clip(ch2 - c * c)))
    second = m.sqrt(sh + m.sqrt(m.clip(sh * sh - s * s)))
    bracket = first + second
    value = m.exp(-capped) * (bracket * bracket) / 4.0
    return m.where(ch2 < math.inf, value, 1.0)


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
        return _mixed(tag, "p_corr", alpha_abs, tail_tol)
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
    return _p1bit_from_squares(_POINT_OPS, f.real * f.real, f.imag * f.imag, g)


def _p1bit_from_squares(m, re2, im2, g):
    """`p1bit_from_overlaps` in terms of (Re F)^2, (Im F)^2 and G.

    Floats, or arrays of one grid's values entry by entry.
    """
    one_plus, one_minus = 1.0 + g, 1.0 - g
    r = one_plus * one_plus * im2 + one_minus * one_minus * re2 - 4.0 * re2 * im2
    root = m.sqrt(m.clip(r))
    g2 = g * g
    plus = m.sqrt(m.clip(1.0 - g2 + 2.0 * root))
    minus = m.sqrt(m.clip(1.0 - g2 - 2.0 * root))
    return 0.5 * (1.0 + 0.5 * plus + 0.5 * minus)


def _pure_overlap_parts(m, tag: str, w):
    """(Re F, Im F, G) of the pure overlaps at w = |alpha|^2, a float or an array.

    <a_0|a_k> = exp(-(M - Re z_k) w) e^{i Im z_k w} from the family row z_k,
    with exact integer coefficients; G is real, as in `_subspace_table`.
    """
    family = FAMILIES[tag]
    (f_re, f_im), (g_re, _) = family.gram_row[1:3]
    decay = m.exp(-(family.modes - f_re) * w)
    g = m.exp(-(family.modes - g_re) * w)
    if not f_im:
        return decay, 0.0, g
    return decay * m.cos(f_im * w), decay * m.sin(f_im * w), g


@_closed_form
def _pure_p1bit(m, w, tag: str):
    """Pure-state p_1bit of a four-state family: the overlap formula."""
    re, im, g = _pure_overlap_parts(m, tag, w)
    return _p1bit_from_squares(m, re * re, im * im, g)


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


def _p1bit_subspace_term(tag: str, re: float, im: float, g: float) -> float:
    """One-bit Helstrom success in an N-photon subspace (N >= 1).

    From the block overlaps F_N = re + i im and G_N = g.  The three-mode
    radicand stays factored, so 1 + 3 G_N cancels exactly at N = 1.
    """
    if tag == "three_mode":
        root = math.sqrt(_clip_radicand((1.0 - g) * (1.0 + 3.0 * g)))
        return 0.5 + 0.25 * ((1.0 - g) + root)
    return _p1bit_from_squares(_POINT_OPS, re * re, im * im, g)


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
    return _mixed(tag, "p_1bit", alpha_abs, tail_tol)


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


def _invert_monotone(fn, target: float, lo: float, hi: float, iterations: int = 80) -> float:
    """Bisection inverse of a non-decreasing function on [lo, hi].

    Stops early once a step leaves (lo, hi) unchanged: the midpoint then
    rounds to an end, so every later step would repeat it, and the result is
    the one all `iterations` steps give.
    """
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if fn(mid) < target else (lo, mid)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    return 0.5 * (lo + hi)


def phase_encoded_ot_crossover() -> tuple[tuple[float, float], ...]:
    """Where phase randomization lowers the cheating probability.

    Returns the intervals of the honest-success variable p_1bit within
    which b_ot(mixed) < b_ot(pure) at equal p_1bit, in increasing order.

    Both (p_1bit, b_ot) curves are parametric in |alpha| and monotone in it.
    A coarse interpolated scan locates candidate p_1bit intervals where the
    mixed curve lies below the pure one; each candidate is then confirmed by
    exact bisection inversion of both p_1bit curves at its deepest point
    (interpolation noise near p_1bit = 1/2, where the curves launch from a
    common point, cannot survive that check), and the confirmed interval
    endpoints are refined the same way.  The scan takes 801 points of
    |alpha| in [0, 4]; a candidate needs an exact advantage of 1e-9.
    """
    alpha_max, grid_points = 4.0, 801

    # the bisections of nearby targets share their first midpoints, so each
    # single |alpha| is evaluated once
    @lru_cache(maxsize=None)
    def pure_p_of(a: float) -> float:
        return family_p1bit("phase_encoded", "pure", a)

    @lru_cache(maxsize=None)
    def mixed_p_of(a: float) -> float:
        return family_p1bit("phase_encoded", "mixed", a)

    def exact_advantage(v: float) -> float:
        a_pure = _invert_monotone(pure_p_of, v, 0.0, alpha_max)
        a_mixed = _invert_monotone(mixed_p_of, v, 0.0, alpha_max)
        return family_bot("phase_encoded", "pure", a_pure) - family_bot(
            "phase_encoded", "mixed", a_mixed
        )

    alphas = np.linspace(0.0, alpha_max, grid_points)
    pure_p = family_p1bit("phase_encoded", "pure", alphas)
    pure_b = family_bot("phase_encoded", "pure", alphas)
    mixed_p = family_p1bit("phase_encoded", "mixed", alphas)
    mixed_b = family_bot("phase_encoded", "mixed", alphas)

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
        if exact_advantage(float(grid[peak])) < 1e-9:
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
    return tuple(intervals)
