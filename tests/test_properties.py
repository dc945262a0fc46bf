"""Property tests of the paper's invariants over family, metric and |alpha|."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from qsd import discrimination as disc
from qsd import oracle, phase_rand

SLACK = 1e-12

#: (metric, family) pairs with a mixed variant, and their guessing level.
GUESSING = {
    ("p_corr", "two_mode"): 0.5,
    **{("p_corr", f): 0.25 for f in disc.FOUR_STATE_FAMILIES},
    **{("p_1bit", f): 0.5 for f in disc.FOUR_STATE_FAMILIES},
    **{("b_ot", f): 0.25 for f in disc.FOUR_STATE_FAMILIES},
}

#: (metric, family) pairs whose mixed value is the series over an s_N table.
SERIES_TABLES = [("p_corr", "three_mode"), ("p_corr", "phase_encoded")] + [
    ("p_1bit", f) for f in disc.FOUR_STATE_FAMILIES
]

#: A truncated series may undershoot by up to the default tail tolerance.
MONOTONE_SLACK = 2e-12

CASES = st.sampled_from(sorted(GUESSING))
MONOTONE_CASES = st.sampled_from(
    [c for c in sorted(GUESSING) if c[0] in ("p_corr", "p_1bit")]
)
PCORR_FAMILIES = st.sampled_from(("two_mode",) + disc.FOUR_STATE_FAMILIES)
ALPHAS = st.floats(0.0, 4.0)
TAIL_TOLS = st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3))

# fixed example sequence and no example database: the suite stays deterministic
deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def value(metric, family, variant, alpha):
    if metric == "p_1bit":
        return disc.family_p1bit(family, variant, alpha)
    if metric == "b_ot":
        return disc.family_bot(family, variant, alpha)
    return disc.family_pcorr(family, variant, alpha)


@deterministic
@given(case=CASES, alpha=ALPHAS)
def test_mixed_between_guessing_and_one(case, alpha):
    metric, family = case
    mixed = value(metric, family, "mixed", alpha)
    assert GUESSING[case] - SLACK <= mixed <= 1.0 + SLACK


@deterministic
@given(family=PCORR_FAMILIES, alpha=ALPHAS)
def test_mixed_pcorr_below_pure(family, alpha):
    mixed = disc.family_pcorr(family, "mixed", alpha)
    assert mixed <= disc.family_pcorr(family, "pure", alpha) + SLACK


@deterministic
@given(alpha=ALPHAS, tail_tol=TAIL_TOLS)
def test_series_terms_match_truncation(alpha, tail_tol):
    _value, terms = disc.three_mode_mixed_pcorr(alpha, tail_tol)
    assert terms == phase_rand.truncation_photon_number(3.0 * alpha**2, tail_tol) + 1


@pytest.mark.parametrize("metric, family", SERIES_TABLES)
def test_subspace_table_between_guessing_and_one(metric, family):
    # fixed-|alpha| tests never reach high N, where p_N hides s_N
    table = disc._subspace_table(family, metric)
    assert len(table) == phase_rand.DEFAULT_N_CAP + 1
    guess = GUESSING[(metric, family)]
    assert [n for n, s_n in enumerate(table) if not guess <= s_n <= 1.0 + SLACK] == []


@deterministic
@given(case=MONOTONE_CASES, alphas=st.tuples(ALPHAS, ALPHAS).map(sorted))
def test_mixed_non_decreasing_in_alpha(case, alphas):
    metric, family = case
    lower, upper = (value(metric, family, "mixed", a) for a in alphas)
    assert lower <= upper + MONOTONE_SLACK


#: A coherent state of 1 to 3 modes with no symmetry: |a_m| <= 1.2, any phase.
AMPLITUDES = st.lists(
    st.builds(complex.__mul__, st.floats(0.0, 1.2).map(complex),
              st.floats(0.0, 2.0 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))),
    min_size=1, max_size=3,
)


@settings(deterministic, max_examples=40)
@given(amplitudes=AMPLITUDES, n_max=st.integers(0, 5))
def test_any_phase_randomized_state_is_the_direct_sum(amplitudes, n_max):
    # the reduction of Appendix A holds for every coherent state, not only
    # for the symmetric families
    state = phase_rand.CoherentStateVector(tuple(amplitudes))
    average = oracle.phase_average(state, n_max)
    direct = phase_rand.phase_randomized_state(state, n_max)
    assert np.max(np.abs(average - direct)) <= 1e-12
