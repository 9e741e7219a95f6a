import math

import numpy as np
import pytest
from scipy.stats import norm

from irregmc import avikainen as av
from irregmc.avikainen import (
    ErrorCurve,
    exponent_rule,
    fit_rate,
    inequality_check,
    qerror_curve,
    qerror_curves,
)
from irregmc.errors import DegenerateCurveError, InvalidArgumentError
from irregmc.payoff import make_payoff
from irregmc.randomkit import increment_batch
from irregmc.sde import make_model


def _curve(values, stderr=None, n=None):
    values = np.asarray(values, dtype=float)
    n = np.asarray(n if n is not None else 2 ** np.arange(3, 3 + values.size))
    stderr = np.zeros_like(values) if stderr is None else np.asarray(stderr)
    return ErrorCurve(n=n, value=values, stderr=stderr, q=2.0,
                      payoff_name="p", model_name="m", N=1000, n_ref=4096, seed=0)


def test_fit_exact_power_law():
    n = np.array([8, 16, 32, 64, 128])
    fit = fit_rate(_curve(n ** -0.5, n=n))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_curve():
    fit = fit_rate(_curve([0.3, 0.3, 0.3, 0.3]))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)


def test_fit_degenerate_zero_curve():
    with pytest.raises(DegenerateCurveError):
        fit_rate(_curve([0.0, 0.0, 0.0]))


def test_fit_noise_floor_exclusion():
    values = np.array([1.0, 0.5, 0.25, 1e-6])
    stderr = np.array([1e-4, 1e-4, 1e-4, 1e-3])  # last point below 10x stderr
    fit = fit_rate(_curve(values, stderr))
    assert fit.excluded_n == [64]
    assert fit.n_used == 3


def test_fit_all_below_floor():
    with pytest.raises(DegenerateCurveError):
        fit_rate(_curve([1e-9, 1e-9, 1e-9], [1e-3, 1e-3, 1e-3]))


def test_curve_validation():
    with pytest.raises(InvalidArgumentError):
        _curve([1.0, 0.5], n=np.array([8, 8]))
    with pytest.raises(InvalidArgumentError):
        _curve([-1.0, 0.5])


def test_qerror_constant_model_is_zero():
    # scheme is exact for constant coefficients: indicator curves are exactly
    # zero; smooth payoffs only see coupling roundoff (different summation
    # order between the fine and coarse paths)
    model = make_model("constant", mu=0.1, sigma=0.2)
    curve = qerror_curve(model, make_payoff("interval_indicator"), 2.0,
                         [8, 16, 32], 1000, 256, seed=3)
    assert np.all(curve.value == 0.0)
    with pytest.raises(DegenerateCurveError):
        fit_rate(curve)
    ramp_curve = qerror_curve(model, make_payoff("clamp_ramp"), 2.0,
                              [8, 16, 32], 1000, 256, seed=3)
    assert np.all(ramp_curve.value <= 1e-28)


def test_qerror_preconditions():
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    with pytest.raises(InvalidArgumentError):
        qerror_curve(model, pay, 2.0, [7], 1000, 256, seed=0)  # 7 does not divide 256
    with pytest.raises(InvalidArgumentError):
        qerror_curve(model, pay, 2.0, [8], 100, 256, seed=0)  # N too small


def test_curves_do_not_depend_on_the_window_size(monkeypatch):
    # folding each window as one batch gave 0.000544686832027609 at 1024-path
    # windows and ...6089 at 4096 for n = 32
    model, pay = make_model("sincos"), make_payoff("clamp_ramp")
    curves, windows = [], []
    for size in (1024, 4096):
        monkeypatch.setattr(av, "DEFAULT_BATCH", size)
        cut = []

        def recording(*args, cut=cut):
            cut.append(args[-1])  # paths in the window
            return increment_batch(*args)

        monkeypatch.setattr(av, "increment_batch", recording)
        curves.append(qerror_curve(model, pay, 2.0, [8, 32], N=8192, n_ref=64, seed=5))
        windows.append(cut)
    assert windows == [[1024] * 8, [4096] * 2]
    assert curves[0].value.tolist() == curves[1].value.tolist()
    assert curves[0].stderr.tolist() == curves[1].stderr.tolist()


def test_power_trick_bit_identity():
    model = make_model("sincos")
    indicator = make_payoff("interval_indicator")
    curves = qerror_curves(model, [(indicator, q) for q in (1.0, 2.0, 3.0)],
                           [8, 32], 2000, 256, seed=5)
    assert np.array_equal(curves[0].value, curves[1].value)
    assert np.array_equal(curves[0].value, curves[2].value)


def test_estimator_consistency_doubling_N():
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    c1 = qerror_curve(model, pay, 2.0, [8, 32], 4000, 256, seed=9)
    c2 = qerror_curve(model, pay, 2.0, [8, 32], 8000, 256, seed=9)
    for v1, s1, v2, s2 in zip(c1.value, c1.stderr, c2.value, c2.stderr):
        assert abs(v1 - v2) < 4 * math.hypot(s1, s2)


def _refinement_fits(curve=qerror_curve):
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    n_list = [8, 16, 32, 64]
    f1 = fit_rate(curve(model, pay, 2.0, n_list, 20_000, 512, seed=11))
    f2 = fit_rate(curve(model, pay, 2.0, n_list, 20_000, 1024, seed=11))
    return f1, f2


def _refinement_does_not_steepen(f1, f2) -> bool:
    # EM's truth-proxy bias is about c (1/n - 1/n_ref): a finer reference lifts
    # the error at large n and flattens the curve. It may not steepen it by
    # more than the two fits' combined standard error.
    return f2.slope >= f1.slope - math.hypot(f1.slope_stderr, f2.slope_stderr)


def test_monotone_refinement_of_truth_proxy():
    assert _refinement_does_not_steepen(*_refinement_fits())


def test_refinement_gate_fails_on_steeper_refined_curve():
    # tilt the n_ref=1024 curve by n^-0.2: the gate must catch the steepening
    def tilted(*args, **kwargs):
        curve = qerror_curve(*args, **kwargs)
        if curve.n_ref == 1024:
            curve.value = curve.value * (curve.n / curve.n[0]) ** -0.2
        return curve

    f1, f2 = _refinement_fits(tilted)
    assert f2.slope < f1.slope
    assert not _refinement_does_not_steepen(f1, f2)


def test_qerror_2d_model_with_ball_indicator():
    model = make_model("sincos2d")
    ball = make_payoff("ball_indicator", d=2, radius=1.0)
    curve = qerror_curve(model, ball, 2.0, [8, 16, 32, 64], 20_000, 512, seed=21)
    assert np.all(np.diff(curve.value) < 0)
    fit = fit_rate(curve)
    assert -1.1 <= fit.slope <= -0.25


def test_curve_csv_rows():
    rows = _curve([1.0, 0.5, 0.25]).csv_rows()
    assert rows[0] == "model,payoff,q,n,value,stderr,N,seed"
    assert len(rows) == 4


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------


def test_exponent_rules():
    # bv at r = inf: moment p, power 1/(p+1)
    assert exponent_rule("bv", 1.0, 1.0) == (1.0, 0.5)
    assert exponent_rule("bv", 3.0, 2.0) == (3.0, 0.25)
    # bv at finite r: power (1 - q/r)/(p+1)
    m, e = exponent_rule("bv", 1.0, 1.0, r=2.0)
    assert (m, e) == (1.0, 0.25)
    # sobolev: moment q, power p(1-q/r)/(q + p(1-q/r))
    m, e = exponent_rule("sobolev", 2.0, 2.0)
    assert m == 2.0 and e == pytest.approx(0.5)
    # fractional: moment q*s
    m, e = exponent_rule("fractional", 2.0, 2.0, s=0.5)
    assert m == 1.0 and e == pytest.approx(0.5)
    with pytest.raises(InvalidArgumentError):
        exponent_rule("bv", 1.0, 3.0, r=2.0)
    with pytest.raises(InvalidArgumentError):
        exponent_rule("fractional", 1.0, 1.0)


def test_gaussian_shift_closed_form():
    indicator = make_payoff("interval_indicator")
    rep = inequality_check("gaussian_shift", indicator, p=1.0, q=1.0, rule="bv",
                           scale_grid=[0.1], N=200_000, seed=1)
    exact = (norm.cdf(0.1) - norm.cdf(0.0)) + (norm.cdf(1.0) - norm.cdf(0.9))
    assert rep.lhs[0] == pytest.approx(exact, abs=3 * rep.lhs_stderr[0])
    assert rep.rhs_base[0] == pytest.approx(math.sqrt(0.1), rel=1e-12)
    assert rep.ratios[0] == pytest.approx(exact / math.sqrt(0.1), rel=0.05)


def test_shift_zero_scale_is_exact_zero():
    indicator = make_payoff("interval_indicator")
    rep = inequality_check("gaussian_shift", indicator, p=1.0, q=1.0, rule="bv",
                           scale_grid=[0.0, 0.1], N=5000, seed=2)
    assert rep.lhs[0] == 0.0


def test_gaussian_scale_family_runs():
    indicator = make_payoff("interval_indicator")
    rep = inequality_check("gaussian_scale", indicator, p=1.0, q=1.0, rule="bv",
                           scale_grid=[0.2, 0.1], N=20_000, seed=3)
    assert np.all(rep.lhs >= 0)
    assert rep.max_ratio >= rep.min_ratio


def test_unbounded_family_ratio_with_finite_r():
    # truncated |x|^{-1/4} family checked with the r < inf exponent only
    pay = make_payoff("inverse_quarter", cap=10.0)
    rep = inequality_check("gaussian_shift", pay, p=1.0, q=1.0, rule="bv",
                           scale_grid=[0.2, 0.1, 0.05], N=50_000, seed=4, r=2.0)
    assert rep.outer_exponent == pytest.approx(0.25)
    assert math.isfinite(rep.max_ratio)


def test_unknown_family():
    with pytest.raises(InvalidArgumentError):
        inequality_check("cauchy_shift", make_payoff("interval_indicator"),
                         p=1.0, q=1.0, rule="bv", scale_grid=[0.1], N=5000, seed=0)
