import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bernoulli_signed, eval_B

from crossfv import ConfigurationError, UsageError, WeightKind, eval_B_kappa

ALL_KINDS = list(WeightKind)

# 1/(e-1) evaluated with 30-digit arithmetic (mpmath), rounded to double.
B1_BERNOULLI = 0.5819767068693264


def test_trivial_values():
    assert eval_B(WeightKind.BERNOULLI, 0.0) == 1.0
    assert eval_B(WeightKind.UPWIND, 7.3) == 1.0
    assert eval_B(WeightKind.SIGMOID, 0.0) == 1.0
    assert eval_B(WeightKind.GEOMETRIC_MEAN, 0.0) == 1.0


def test_bernoulli_at_one_matches_extended_precision():
    assert eval_B(WeightKind.BERNOULLI, 1.0) == pytest.approx(B1_BERNOULLI, abs=5e-16)


def test_rejects_invalid_arguments():
    with pytest.raises(UsageError):
        eval_B(WeightKind.BERNOULLI, -1.0)
    with pytest.raises(UsageError):
        eval_B(WeightKind.BERNOULLI, np.inf)
    with pytest.raises(ConfigurationError):
        eval_B_kappa(WeightKind.BERNOULLI, 0.0, 1.0)


def test_scaled_weight_values():
    for kind in ALL_KINDS:
        assert eval_B_kappa(kind, 0.25, 0.0) == pytest.approx(0.25, rel=1e-15)
    assert eval_B_kappa(WeightKind.UPWIND, 0.01, 5.0) == pytest.approx(0.01, rel=1e-15)
    # Zero-diffusion behavior: kappa*B(s/kappa) collapses for s > 0.
    assert eval_B_kappa(WeightKind.BERNOULLI, 1e-6, 1.0) <= 1e-6
    assert eval_B_kappa(WeightKind.BERNOULLI, 1e-6, 1.0) >= 0.0


def test_no_overflow_for_huge_arguments():
    # Underflow to the mathematically correct limit is allowed; overflow is not.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for kind in ALL_KINDS:
            val = eval_B(kind, 1e4)
            assert 0.0 <= val <= 1.0
            if kind is not WeightKind.UPWIND:
                assert val < 1e-300  # underflows to the mathematical limit


def test_scaled_weight_takes_its_limit_where_the_argument_overflows():
    # s / kappa overflows to inf: kappa * B(inf) is 0, or kappa for upwind.
    kappa = 1e-320
    s = np.array([0.0, 1.0, 1e300])
    with np.errstate(over="raise", invalid="raise"):
        for kind in ALL_KINDS:
            val = eval_B_kappa(kind, kappa, s)
            assert val[0] == kappa
            limit = kappa if kind is WeightKind.UPWIND else 0.0
            assert np.all(val[1:] == limit)
    with pytest.raises(UsageError):
        eval_B_kappa(WeightKind.BERNOULLI, kappa, np.nan)


def test_reflection_identity_bernoulli():
    s = np.linspace(-30.0, 30.0, 2001)
    lhs = bernoulli_signed(-s)
    rhs = bernoulli_signed(s) + s
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_continuity_at_switchovers():
    for cut in (1e-5, 30.0):
        below = eval_B(WeightKind.BERNOULLI, cut * (1 - 1e-12))
        above = eval_B(WeightKind.BERNOULLI, cut * (1 + 1e-12))
        assert abs(below - above) <= 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_coercivity_bound_sampled(kind):
    alpha = kind.alpha
    upper = 1.0 / alpha if alpha > 0 else 50.0
    s = np.linspace(0.0, upper, 4001)
    vals = eval_B(kind, s)
    assert np.all(vals >= 1.0 - alpha * s - 1e-12)


@settings(max_examples=200)
@given(
    st.sampled_from(ALL_KINDS),
    st.floats(min_value=0.0, max_value=700.0, allow_nan=False),
)
def test_range_property(kind, s):
    val = eval_B(kind, s)
    assert 0.0 < val <= 1.0 or (val == 0.0 and s > 600)
    # strictly positive in exact arithmetic; underflow to 0 only far out
    if s <= 600:
        assert val > 0.0


@settings(max_examples=100)
@given(
    st.sampled_from(ALL_KINDS),
    st.floats(min_value=1e-8, max_value=10.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_scaled_weight_range(kind, kappa, s):
    val = eval_B_kappa(kind, kappa, s)
    assert 0.0 <= val <= kappa * (1 + 1e-15)


def test_vectorized_matches_scalar():
    s = np.array([0.0, 1e-6, 1e-5, 0.5, 1.0, 29.0, 30.0, 31.0, 700.0])
    for kind in ALL_KINDS:
        vec = eval_B(kind, s)
        scal = np.array([eval_B(kind, float(x)) for x in s])
        assert np.array_equal(vec, scal)
