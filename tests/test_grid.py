"""Grid (column) evaluation against single-point evaluation, bit for bit."""

import io
import math

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
    fn = lambda a: FUNCTIONS[metric](family, variant, a, None)  # noqa: E731
    assert_column_matches_points(fn, np.linspace(0.0, 4.0, 301))


def test_float_in_float_out():
    for family in ("three_mode", "phase_encoded"):
        assert type(disc.family_pcorr(family, "mixed", 0.7)) is float
        assert type(disc.family_p1bit(family, "mixed", 0.7)) is float


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
            FUNCTIONS[metric](family, variant, [0.5, 8.0, bad], None)


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
                request = cli.CurveRequest(family, metric, np.linspace(0.0, 4.0, steps))
                text = io.StringIO()
                cli.cmd_curve(request, text)
                assert text.getvalue().count("\n") == steps + 1
                calls.append(len(series_calls))
                series_calls.clear()
            assert calls[0] == calls[1] <= len(request.variants) * 2
