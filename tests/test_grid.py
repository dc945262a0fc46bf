"""Grid (column) evaluation against single points, bit for bit.

A single point runs as a one-entry grid, so these pin that a value does not
depend on the grid around it.
"""

import io
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd import cli
from qsd import discrimination as disc
from qsd import phase_rand
from qsd.fock import CapacityError

#: Every curve function of (family, variant, alphas, tail_tol), by name.
FUNCTIONS = {
    "p_corr": lambda f, v, a, tol: disc.family_pcorr(f, v, a, tail_tol=tol),
    "p_1bit": lambda f, v, a, tol: disc.family_p1bit(f, v, a, tol),
    "b_ot": lambda f, v, a, tol: disc.family_bot(f, v, a, tol),
    "delta_p_corr": lambda f, _v, a, tol: disc.delta_pcorr(f, a, tail_tol=tol),
}

SERIES = [
    (metric, family, variant)
    for metric in FUNCTIONS
    for family in (disc.FOUR_STATE_FAMILIES if metric in ("p_1bit", "b_ot") else disc.COHERENT_FAMILIES)
    for variant in (("-",) if metric == "delta_p_corr" else disc.VARIANTS)
]

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def scalar_values(fn, alphas):
    """Single-point values up to the first failure, and that failure's text."""
    values = []
    for a in alphas:
        try:
            values.append(fn(float(a)))
        except (CapacityError, ValueError) as exc:
            return values, f"{type(exc).__name__}: {exc}"
    return values, None


def assert_column_matches_points(fn, alphas):
    values, failure = scalar_values(fn, alphas)
    if failure is None:
        column = fn(np.array(alphas))
        assert isinstance(column, np.ndarray) and column.shape == (len(alphas),)
        assert np.array_equal(column, np.array(values))
        return
    with pytest.raises((CapacityError, ValueError)) as excinfo:
        fn(np.array(alphas))
    assert f"{excinfo.type.__name__}: {excinfo.value}" == failure


@deterministic
@given(
    series=st.sampled_from(SERIES),
    tail_tol=st.sampled_from((1e-14, 1e-12, 1e-6)),
    alphas=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=40),
)
def test_column_equals_single_points(series, tail_tol, alphas):
    metric, family, variant = series
    fn = lambda a: FUNCTIONS[metric](family, variant, a, tail_tol)  # noqa: E731
    assert_column_matches_points(fn, alphas)


@pytest.mark.parametrize("metric, family, variant", SERIES)
def test_documented_grid_column_equals_single_points(metric, family, variant):
    fn = lambda a: FUNCTIONS[metric](family, variant, a, phase_rand.DEFAULT_TAIL_TOL)  # noqa: E731
    assert_column_matches_points(fn, np.linspace(0.0, 4.0, 301))


#: Points of the 0:8:1610 grid where a ** 2 (libm pow) and a * a differ.
POW_SQUARE_DIFFERS = [1.0490988191423243, 2.0981976382846486, 4.196395276569297]


@pytest.mark.parametrize("metric, family, variant", SERIES)
def test_column_equals_single_points_where_pow_differs(metric, family, variant):
    # a point squared by pow and a grid by multiplication differ here
    assert all(a**2 != a * a for a in POW_SQUARE_DIFFERS)
    fn = lambda a: FUNCTIONS[metric](family, variant, a, phase_rand.DEFAULT_TAIL_TOL)  # noqa: E731
    assert_column_matches_points(fn, POW_SQUARE_DIFFERS)


#: Every public function of one |alpha| (or of overlaps) that returns a value.
SINGLE_POINT = {
    "two_mode_mixed_pcorr": lambda a: disc.two_mode_mixed_pcorr(a, 0.3),
    "two_mode_pure_pcorr": lambda a: disc.two_mode_pure_pcorr(a, 0.3),
    "three_mode_pure_pcorr": disc.three_mode_pure_pcorr,
    "four_mode_mixed_pcorr": disc.four_mode_mixed_pcorr,
    "four_mode_pure_pcorr": disc.four_mode_pure_pcorr,
    "phase_encoded_pure_pcorr": disc.phase_encoded_pure_pcorr,
    "three_mode_mixed_pcorr": lambda a: disc.three_mode_mixed_pcorr(a)[0],
    "phase_encoded_mixed_pcorr": lambda a: disc.phase_encoded_mixed_pcorr(a)[0],
    "four_mode_unambiguous": disc.four_mode_unambiguous,
    "delta_pcorr": lambda a: disc.delta_pcorr("three_mode", a),
    "p1bit_from_overlaps": lambda a: disc.p1bit_from_overlaps(0.5j * a, -0.25 * a),
} | {
    f"{metric} {family} {variant}": lambda a, m=metric, f=family, v=variant: FUNCTIONS[m](
        f, v, a, phase_rand.DEFAULT_TAIL_TOL
    )
    for metric, family, variant in SERIES
}


def test_float_in_float_out():
    # a single point runs as a one-entry grid and comes back a Python float,
    # from a Python float, an int or a numpy scalar alike
    for name, fn in SINGLE_POINT.items():
        for alpha in (0.7, 1, np.float64(0.7)):
            assert type(fn(alpha)) is float, (name, alpha)
        assert fn(np.float64(0.7)) == fn(0.7), name


def test_unambiguous_column_equals_single_points():
    alphas = np.linspace(0.0, 8.0, 97)
    column = disc.four_mode_unambiguous(alphas)
    assert np.array_equal(column, [disc.four_mode_unambiguous(a) for a in alphas.tolist()])
    assert type(disc.four_mode_unambiguous(0.7)) is float


def test_grid_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        disc.family_pcorr("three_mode", "mixed", np.zeros((2, 2)))


@pytest.mark.parametrize("bad, message", [(math.nan, "NaN"), (-0.5, "negative")])
def test_invalid_grid_entry_raises_before_any_point(bad, message):
    # 8.0 alone would raise CapacityError: the grid is checked first
    for metric, family, variant in SERIES:
        with pytest.raises(ValueError, match=message):
            FUNCTIONS[metric](family, variant, [0.5, 8.0, bad], phase_rand.DEFAULT_TAIL_TOL)


class TestPoissonSeriesGrid:
    @pytest.mark.parametrize("tail_tol", (1e-14, 1e-12, 1e-6))
    def test_rows_equal_scalar_series(self, tail_tol):
        means = np.concatenate(([0.0, 1e-300, 5e-324], np.linspace(0.0, 60.0, 241)))
        weights = phase_rand.poisson_series_grid(means, tail_tol)
        series = [phase_rand.poisson_series(m, tail_tol) for m in means.tolist()]
        assert weights.shape == (len(means), max(map(len, series)))
        for row, scalar in zip(weights, series):
            assert np.array_equal(row[: len(scalar)], scalar)
            assert not row[len(scalar) :].any()

    def test_smaller_mean_with_a_longer_series(self):
        # rounding: the smaller mean needs 64 terms, the largest mean only 63,
        # so the width tried first is too short for one row
        means = np.array([22.119899999999998, 3.0, 22.120199999999997])
        lengths = [len(phase_rand.poisson_series(m)) for m in means.tolist()]
        assert lengths[0] > lengths[2]
        weights = phase_rand.poisson_series_grid(means)
        assert weights.shape == (3, lengths[0])
        for row, mean in zip(weights, means.tolist()):
            scalar = phase_rand.poisson_series(mean)
            assert np.array_equal(row[: len(scalar)], scalar)

    @pytest.mark.parametrize(
        "means, bad",
        [
            ([1.0, 120.0, 800.0, 200.0], 120.0),  # photon cap first
            ([1.0, 800.0, 120.0], 800.0),  # exp(-mean) underflow first
            ([1.0, -1.0, 800.0], -1.0),
            ([1.0, math.nan, 120.0], math.nan),
            ([1.0, 200.0, math.nan], 200.0),  # cap before a later NaN
            ([1.0, 800.0, -1.0], 800.0),  # underflow before a later negative
        ],
    )
    def test_first_failing_mean_raises_its_error(self, means, bad):
        with pytest.raises((CapacityError, ValueError)) as expected:
            phase_rand.poisson_series(bad)
        with pytest.raises(expected.type) as excinfo:
            phase_rand.poisson_series_grid(np.array(means))
        assert str(excinfo.value) == str(expected.value)

    def test_empty_grid(self):
        assert phase_rand.poisson_series_grid(np.array([])).shape == (0, 1)


@pytest.mark.parametrize("family", ("three_mode", "phase_encoded"))
def test_grid_crossing_the_cap_raises_first_failing_point(family):
    alphas = np.linspace(0.0, 8.0, 97)
    fn = lambda a: disc.family_pcorr(family, "mixed", a)  # noqa: E731
    _values, failure = scalar_values(fn, alphas)
    assert failure is not None and failure.startswith("CapacityError: Poisson truncation")
    with pytest.raises(CapacityError) as excinfo:
        fn(alphas)
    assert f"CapacityError: {excinfo.value}" == failure


@pytest.mark.parametrize("stop", (4.0, 8.0))  # 8.0 crosses the cap in a later pass
def test_grid_of_several_passes_equals_single_points(monkeypatch, stop):
    monkeypatch.setattr(disc, "GRID_CHUNK", 7)
    fn = lambda a: disc.family_p1bit("phase_encoded", "mixed", a)  # noqa: E731
    assert_column_matches_points(fn, np.linspace(0.0, stop, 97))


@pytest.fixture
def series_calls(monkeypatch):
    """Every poisson_series call, from discrimination or phase_rand."""
    calls = []
    series = phase_rand.poisson_series

    def counting(*args, **kwargs):
        calls.append(args)
        return series(*args, **kwargs)

    monkeypatch.setattr(phase_rand, "poisson_series", counting)
    monkeypatch.setattr(disc, "poisson_series", counting)
    return calls


def test_curve_makes_no_per_point_poisson_series_call(series_calls):
    # at most one call per column (the width probe), however long the grid
    for metric, families in cli.CURVE_METRICS.items():
        for family in families:
            calls = []
            for steps in (2, 301):
                disc._grid_weights.cache_clear()  # count a cold column's calls
                request = cli.CurveRequest(family, metric, np.linspace(0.0, 4.0, steps))
                text = io.StringIO()
                cli.cmd_curve(request, text)
                assert text.getvalue().count("\n") == steps + 1
                calls.append(len(series_calls))
                series_calls.clear()
            assert calls[0] == calls[1] <= len(request.variants) * 2


#: Every (metric, family) with a mixed value, and those of them that are
#: Poisson series (the rest are closed forms, with no memoized pass).
MIXED = [(metric, family) for metric, family, variant in SERIES if variant != "pure"]
MIXED_SERIES = [
    (metric, family) for metric, family in MIXED
    if metric == "p_1bit" or family in ("three_mode", "phase_encoded")
]

SWEEP = np.linspace(0.0, 4.0, 301)


def _mixed(metric, family, alphas, tail_tol=phase_rand.DEFAULT_TAIL_TOL):
    return FUNCTIONS[metric](family, "mixed", alphas, tail_tol)


class TestGridWeightsMemo:
    @pytest.mark.parametrize("metric, family", MIXED)
    def test_warm_column_equals_cold_column(self, metric, family):
        disc._grid_weights.cache_clear()
        cold = _mixed(metric, family, SWEEP)
        hits = disc._grid_weights.cache_info().hits
        warm = _mixed(metric, family, SWEEP)
        assert warm.tobytes() == cold.tobytes()
        if (metric, family) in MIXED_SERIES:
            assert disc._grid_weights.cache_info().hits > hits

    @pytest.mark.parametrize("family", ("three_mode", "phase_encoded"))
    def test_b_ot_reads_the_pass_p_1bit_made(self, family):
        disc._grid_weights.cache_clear()
        cold = disc.family_bot(family, "mixed", SWEEP)
        disc._grid_weights.cache_clear()
        disc.family_p1bit(family, "mixed", SWEEP)
        before = disc._grid_weights.cache_info()
        warm = disc.family_bot(family, "mixed", SWEEP)
        after = disc._grid_weights.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert warm.tobytes() == cold.tobytes()

    def test_kept_weights_are_read_only(self):
        disc._grid_weights.cache_clear()
        expected = disc.family_pcorr("three_mode", "mixed", SWEEP)
        means = 3.0 * disc._intensities(SWEEP)
        weights = disc._grid_weights(means.tobytes(), phase_rand.DEFAULT_TAIL_TOL)
        assert disc._grid_weights.cache_info().hits == 1
        assert not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[:, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            weights *= 2.0
        # a returned column is the caller's own array, not a view of the memo
        again = disc.family_pcorr("three_mode", "mixed", SWEEP)
        again[:] = 0.0
        assert disc.family_pcorr("three_mode", "mixed", SWEEP).tobytes() == expected.tobytes()

    def test_changed_tail_tol_is_not_a_stale_hit(self):
        disc._grid_weights.cache_clear()
        default = disc.family_p1bit("phase_encoded", "mixed", SWEEP)
        loose = disc.family_p1bit("phase_encoded", "mixed", SWEEP, 1e-6)
        assert not np.array_equal(loose, default)
        assert disc.family_p1bit("phase_encoded", "mixed", SWEEP).tobytes() == default.tobytes()
        assert disc._grid_weights.cache_info().misses == 2
        # each single point is a one-entry pass of its own
        points = [disc.family_p1bit("phase_encoded", "mixed", a, 1e-6) for a in SWEEP.tolist()]
        assert np.array_equal(loose, points)

    def test_memo_stays_within_its_bound(self):
        disc._grid_weights.cache_clear()
        for k in range(20):
            disc.family_p1bit("three_mode", "mixed", np.linspace(0.0, 1.0 + k / 20, 11))
        info = disc._grid_weights.cache_info()
        assert info.misses == 20
        assert info.currsize == info.maxsize == 4

    def test_failing_pass_is_never_kept(self):
        # a grid past the photon cap raises the same error every time
        alphas = np.linspace(0.0, 8.0, 97)
        disc._grid_weights.cache_clear()
        messages = set()
        for _ in range(3):
            with pytest.raises(CapacityError) as excinfo:
                disc.family_pcorr("three_mode", "mixed", alphas)
            messages.add(str(excinfo.value))
        assert len(messages) == 1
        info = disc._grid_weights.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


@pytest.mark.parametrize("metric, family", MIXED_SERIES)
def test_huge_grid_raises_first_points_capacity_error_without_warning(metric, family):
    # M |alpha|^2 overflows to inf past the float range; a point does so
    # silently, and the grid must too, then raise that point's error
    alphas = np.linspace(0.0, 1e300, 5)
    fn = lambda a: _mixed(metric, family, a)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _values, failure = scalar_values(fn, alphas)
        with pytest.raises(CapacityError) as excinfo:
            fn(alphas)
    assert failure == "CapacityError: exp(-inf) underflows: Poisson weights would vanish"
    assert f"CapacityError: {excinfo.value}" == failure


def _last_float_where(holds, lo: float, hi: float) -> float:
    """Largest float in [lo, hi) where a monotone predicate holds (it does at lo)."""
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = math.nextafter(lo, math.inf)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def _cosh_square_finite(a: float) -> bool:
    ch = math.cosh(min(a * a, 710.0))
    return ch * ch < math.inf


#: Last |alpha| where cosh^2 |alpha|^2 is finite (18.857), and last where
#: |alpha|^2 is (sqrt of the largest float, 1.34e154).
COSH_BORDER = _last_float_where(_cosh_square_finite, 18.0, 20.0)
SQUARE_BORDER = _last_float_where(lambda a: a * a < math.inf, 1e154, 2e154)

EDGE_GRID = [
    0.0, 5e-324, 1e-160,
    COSH_BORDER, math.nextafter(COSH_BORDER, math.inf),
    SQUARE_BORDER, math.nextafter(SQUARE_BORDER, math.inf),
    1e300, math.inf,
]

#: Every closed form a curve can ask for: name, function of |alpha|, value
#: at |alpha| = 0 (the guessing level) and in the large-|alpha| limit.
CLOSED_FORMS = [
    (f"p_corr {family} pure", lambda a, f=family: disc.family_pcorr(f, "pure", a), guess, 1.0)
    for family, guess in (("two_mode", 0.5), ("three_mode", 0.25), ("four_mode", 0.25),
                          ("phase_encoded", 0.25))
] + [
    ("p_corr two_mode mixed", lambda a: disc.family_pcorr("two_mode", "mixed", a), 0.5, 1.0),
    ("p_corr two_mode mixed prior 0.25",
     lambda a: disc.family_pcorr("two_mode", "mixed", a, prior=0.25), 0.75, 1.0),
    ("p_corr two_mode pure prior 0.25",
     lambda a: disc.family_pcorr("two_mode", "pure", a, prior=0.25), 0.75, 1.0),
    ("p_corr four_mode mixed", lambda a: disc.family_pcorr("four_mode", "mixed", a), 0.25, 1.0),
    ("p_unambiguous four_mode", disc.four_mode_unambiguous, 0.0, 1.0),
    ("delta_p_corr two_mode", lambda a: disc.delta_pcorr("two_mode", a), 0.0, 0.0),
    ("delta_p_corr four_mode", lambda a: disc.delta_pcorr("four_mode", a), 0.0, 0.0),
] + [
    (f"{metric} {family} pure", lambda a, f=family, fn=fn: fn(f, "pure", a), guess, 1.0)
    for metric, fn, guess in (("p_1bit", disc.family_p1bit, 0.5), ("b_ot", disc.family_bot, 0.25))
    for family in disc.FOUR_STATE_FAMILIES
]


@pytest.mark.parametrize("name, fn, guess, limit", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def test_closed_form_edges(name, fn, guess, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = [fn(a) for a in EDGE_GRID]
        column = fn(np.array(EDGE_GRID))
    assert all(type(v) is float for v in points)
    assert np.array_equal(column, points)
    # |alpha|^2 underflows to 0 or exp(-k |alpha|^2) rounds to 1 below 1e-160;
    # from the cosh^2 border up (|alpha|^2 > 355) each exp(-k |alpha|^2) is
    # below 1e-154, and every value rounds to its limit
    assert points[:3] == [guess] * 3
    assert points[3:] == [limit] * (len(EDGE_GRID) - 3)


def test_intensity_saturates_at_the_largest_float():
    squares = disc._intensities(np.array(EDGE_GRID))
    assert squares.tolist() == [min(a * a, sys.float_info.max) for a in EDGE_GRID]
    assert squares[-3:].tolist() == [sys.float_info.max] * 3
    assert squares[-4] == SQUARE_BORDER * SQUARE_BORDER < sys.float_info.max


def test_column_raises_first_failing_points_overlap_error():
    # the first radicand fails at |alpha| = 1.5 only, the second at 0.1 only:
    # a column evaluated radicand by radicand would report 1.5
    @disc._closed_form
    def kernel(w):
        return np.sqrt(disc._clip_radicands(1.0 - w)) + np.sqrt(disc._clip_radicands(w - 0.25))

    alphas = [0.9, 0.1, 1.5]
    with pytest.raises(disc.InvalidOverlapError) as point:
        for a in alphas:
            kernel(a)
    with pytest.raises(disc.InvalidOverlapError) as column:
        kernel(np.array(alphas))
    assert str(column.value) == str(point.value) == "radicand -2.400e-01 below -1e-12"
