"""Extreme inputs that numpy warns about are handled where they arise: each
layer gives its value or its documented error, and no RuntimeWarning escapes."""

import math
import warnings

import numpy as np
import pytest

from irregmc import avikainen, diagnostics, mlmc
from irregmc.errors import FitFailureError, InvalidArgumentError, NumericFailureError
from irregmc.payoff import euclidean_norm, make_payoff
from irregmc.sde import make_model
from irregmc.stats import Welford


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def test_heat_kernel_on_a_tiny_horizon():
    g = diagnostics.gaussian_kernel(0.5, 1e-300, 0.0, [0.0, 0.02, 1e5])
    assert g[0] == 1.0 / math.sqrt(2.0 * math.pi * 0.5e-300)
    assert g[1] == g[2] == 0.0


def test_envelope_on_a_tiny_horizon_is_a_fit_failure():
    # the terminals sit in one 0.04-wide bin, where the kernel at c T = 1e-300 is 0
    model = make_model("sincos", T=1e-300)
    hist = diagnostics.terminal_histogram(model, 16, 10_000, 200, seed=0, value_range=(-4, 4))
    with pytest.raises(FitFailureError, match="no admissible envelope"):
        diagnostics.fit_gaussian_envelope(hist, 0.0, model.T)


def test_a_range_past_the_largest_float_cannot_be_binned():
    model = make_model("constant", mu=0.0, sigma=4.5e307)
    with pytest.raises(InvalidArgumentError, match="cannot bin the range"):
        diagnostics.terminal_histogram(model, 1, 10_000, 200, seed=0)


def test_block_moments_of_huge_payoffs_are_infinite():
    acc = Welford()
    acc.update(np.tile([1e160, -1e160], 600), 0)
    assert acc.mean == 0.0 and acc.variance == math.inf


def test_mlmc_counts_from_an_infinite_variance_are_a_numeric_failure():
    with pytest.raises(NumericFailureError, match="no int64 sample counts"):
        mlmc.allocate_samples([math.inf, 0.0], [1.0, 0.25], 0.2)


def test_ball_indicator_far_out():
    ball = make_payoff("ball_indicator", d=2)
    assert ball(np.array([[1e300, 1e300], [0.5, 0.0]])).tolist() == [0.0, 1.0]
    huge = make_payoff("ball_indicator", d=2, radius=1e300)
    inside = [[5e299, 5e299], [-7e299, 0.0], [0.0, 0.0]]
    outside = [[8e299, 8e299], [1.5e308, 1.5e308], [np.inf, 0.0]]
    assert huge(np.array(inside + outside)).tolist() == [1.0] * 3 + [0.0] * 3


def test_norms_past_the_squares_range():
    v = np.array([[3e300, 4e300], [3.0, 4.0], [1.5e308, 1.5e308], [np.inf, 1.0], [np.nan, 1.0]])
    norm = euclidean_norm(v)
    assert norm[0] == pytest.approx(5e300, rel=1e-15) and norm[1] == 5.0
    assert norm[2] == math.inf and norm[3] == math.inf and math.isnan(norm[4])
    assert euclidean_norm(np.array([-1e300])) == 1e300


@pytest.mark.parametrize("p, moment", [(1.0, 1e300), (2.0, 1e200)])
def test_inequality_pairs_at_scale_1e300(p, moment):
    # each shifted point leaves the ball, by a gap of 1e300 whose square overflows
    rep = avikainen.inequality_check("gaussian_shift", make_payoff("ball_indicator", d=1),
                                     p, 1.0, "bv", [1e300], 100, seed=0)
    # bv: the base is E|X - Xhat|^p to the 1/(p+1), 1e300^(p/(p+1))
    base = moment ** (1.0 / 2.0) if p == 1.0 else moment
    assert 0.5 < rep.lhs[0] < 0.9
    assert rep.rhs_base[0] == pytest.approx(base, rel=1e-12)
    assert rep.ratios[0] == pytest.approx(rep.lhs[0] / base, rel=1e-12)
