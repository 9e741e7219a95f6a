import math

import numpy as np
import pytest

from irregmc.errors import InvalidArgumentError
from irregmc.payoff import (
    make_payoff,
    orlicz_bound_minimize,
    predicted_mlmc_exponent,
    predicted_strong_exponent,
    young_complement,
    young_inverse,
    young_plog,
    young_power,
)


def test_registry_unknown():
    with pytest.raises(InvalidArgumentError):
        make_payoff("no_such")


def test_sup_norm_probe():
    rng = np.random.default_rng(0)
    for name in ("interval_indicator", "clamp_ramp", "tent", "tent_power",
                 "capped_hat", "inverse_quarter"):
        pay = make_payoff(name)
        x = rng.normal(scale=3.0, size=(100_000, 1))
        assert np.max(np.abs(pay(x))) <= pay.sup_norm + 1e-12


def test_payoff_dimension_contract():
    # a payoff of the first coordinate takes any d; the ball takes only its own
    ramp, ball = make_payoff("clamp_ramp"), make_payoff("ball_indicator", d=2)
    assert ramp.d is None and ball.d == 2
    x = np.array([[0.8, 0.0], [0.2, 0.3]])
    assert np.array_equal(ramp(x), ramp(x[:, :1]))
    assert np.array_equal(ball(x), [1.0, 1.0])
    for bad in (x[:, :1], np.zeros((2, 3)), 0.8):
        with pytest.raises(InvalidArgumentError, match="d=2"):
            ball(bad)


def test_indicator_power_invariance():
    # |f(x)-f(y)|^q == |f(x)-f(y)|^p exactly for indicator payoffs
    pay = make_payoff("ball_indicator", d=2)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5000, 2))
    y = rng.normal(size=(5000, 2))
    diff = np.abs(pay(x) - pay(y))
    for p, q in ((1.0, 3.0), (0.5, 2.7), (2.0, 7.0)):
        assert np.array_equal(diff**q, diff**p)


# ---------------------------------------------------------------------------
# Predicted exponents
# ---------------------------------------------------------------------------


def test_strong_exponents_match_tables():
    assert predicted_strong_exponent("bv", 1.0, 0.9) == pytest.approx(0.45)
    assert predicted_strong_exponent("sobolev", 2.0) == pytest.approx(1.0 / 3.0)
    assert predicted_strong_exponent("orlicz", 2.0) == pytest.approx(1.0 / 3.0)
    assert predicted_strong_exponent("variable", 2.0) == pytest.approx(1.0 / 3.0)
    assert predicted_strong_exponent("fractional", 2.0, p=2.0, s=0.5) == pytest.approx(0.25)
    assert predicted_strong_exponent("lipschitz", 2.0) == pytest.approx(1.0)


def test_strong_exponent_errors():
    with pytest.raises(InvalidArgumentError):
        predicted_strong_exponent("bv", 1.0, delta=1.5)
    with pytest.raises(InvalidArgumentError):
        predicted_strong_exponent("bv", 0.5, delta=0.5)
    with pytest.raises(InvalidArgumentError):
        predicted_strong_exponent("fractional", 1.0)


def test_strong_exponent_monotonicity():
    deltas = np.linspace(0.05, 0.95, 10)
    vals = [predicted_strong_exponent("bv", 1.0, d) for d in deltas]
    assert np.all(np.diff(vals) >= 0)
    ss = np.linspace(0.1, 0.9, 9)
    vals = [predicted_strong_exponent("fractional", 2.0, p=2.0, s=s) for s in ss]
    assert np.all(np.diff(vals) >= 0)
    ps = np.linspace(1.0, 8.0, 8)
    vals = [predicted_strong_exponent("fractional", 2.0, p=p, s=0.5) for p in ps]
    assert np.all(np.diff(vals) >= 0)


def test_mlmc_exponents_weak1():
    assert predicted_mlmc_exponent("bv", 1.0 - 1e-12) == pytest.approx(2.5)
    assert predicted_mlmc_exponent("sobolev") == pytest.approx(8.0 / 3.0)
    assert predicted_mlmc_exponent("fractional", p=2.0, s=0.5) == pytest.approx(2.75)
    assert predicted_mlmc_exponent("lipschitz") == pytest.approx(2.0)


def test_mlmc_exponent_is_three_minus_the_l2_strong_exponent():
    # Giles at alpha = gamma = 1: c = 3 - beta, with beta the q = 2 strong exponent
    for space in ("bv", "sobolev", "orlicz", "variable", "fractional", "lipschitz"):
        for delta in (0.1, 0.5, 0.9, 1.0 - 1e-12):
            for p in (1.0, 1.5, 2.0, 3.0):
                for s in (0.1, 0.5, 0.9):
                    want = 3.0 - predicted_strong_exponent(space, 2.0, delta, p=p, s=s)
                    assert predicted_mlmc_exponent(space, delta, p=p, s=s) == want
    for space, delta, p, s in [("holder", 0.5, None, None), ("bv", 1.0, None, None),
                               ("fractional", 0.9, None, 0.5), ("fractional", 0.9, 2.0, 1.0)]:
        with pytest.raises(InvalidArgumentError):
            predicted_mlmc_exponent(space, delta, p=p, s=s)


def test_predicted_exponents_from_payoff_fields():
    # the CLI reads a payoff's class and (p, s) into the exponent tables
    pay = make_payoff("tent_power", s=0.5, p=2.0)
    assert pay.space == "fractional"
    strong = predicted_strong_exponent(pay.space, 2.0, 0.9, p=pay.p, s=pay.s)
    weak1 = predicted_mlmc_exponent(pay.space, 0.9, p=pay.p, s=pay.s)
    assert strong == pytest.approx(0.25)
    assert weak1 == pytest.approx(2.75)


# ---------------------------------------------------------------------------
# Young-function toolkit
# ---------------------------------------------------------------------------


def test_complement_power_closed_form():
    # conjugate of x^2/2 is itself
    assert young_complement(young_power(2.0), 3.0) == pytest.approx(4.5)
    # p=3: conjugate exponent 3/2
    y = young_complement(young_power(3.0), 2.0)
    assert y == pytest.approx(2.0 ** 1.5 / 1.5)


def test_complement_at_zero():
    for young in (young_power(2.0), young_plog(2.0, 1.0)):
        assert young_complement(young, 0.0) == 0.0


def test_complement_brute_force_oracle():
    # independent dense-scan maximization of x*y - Phi(y), at x whose
    # maximiser lies inside the scan (for plog(1.5, -0.4) it passes 50 at x = 6)
    ys = np.linspace(0.0, 50.0, 400_001)
    for young, xs in ((young_plog(2.0, 1.0), (0.3, 1.0, 7.5)),
                      (young_plog(1.5, -0.4), (0.5, 1.0, 3.0, 5.0))):
        for x in xs:
            brute = float(np.max(x * ys - young.phi(ys)))
            assert young_complement(young, x) == pytest.approx(brute, rel=1e-6)


def test_complement_doubling_plog():
    # Psi(2x) <= 2^{p/(p-1)} Psi(x) = 4 Psi(x) for p = 2
    young = young_plog(2.0, 1.0)
    xs = np.geomspace(1e-3, 1e3, 31)
    for x in xs:
        assert young_complement(young, 2 * x) <= 4.0 * young_complement(young, x) * (1 + 1e-9)


def test_young_inequality_on_grid():
    young = young_plog(2.0, 1.0)
    pts = np.geomspace(1e-2, 1e2, 9)
    for y in pts:
        for x in pts:
            lhs = x * y
            rhs = float(young.phi(y)) + young_complement(young, x)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_inverse_power():
    assert young_inverse(young_power(2.0), 2.0) == pytest.approx(2.0, rel=1e-9)
    assert young_inverse(young_power(2.0), 0.0) == 0.0


def test_inverse_roundtrip_plog():
    young = young_plog(2.0, 1.0)
    for y in (0.1, 1.0, 10.0):
        x = float(young.phi(y))
        assert young_inverse(young, x) == pytest.approx(y, abs=1e-8, rel=1e-8)


def test_orlicz_bound_hand_oracle():
    # q=2, Phi=x^2/2, E=1: objective is 1/lam + 2*lam, minimized at 1/sqrt(2)
    bound, lam = orlicz_bound_minimize(2.0, math.inf, 1.0, young_power(2.0))
    assert bound == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-6)
    assert lam == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)


def test_orlicz_bound_brute_force_q1():
    # independent 1D scans for q=1; for x^2/2 the objective is 1/lam + sqrt(2*lam)
    young = young_power(2.0)
    bound, _ = orlicz_bound_minimize(1.0, math.inf, 1.0, young)
    lams = np.geomspace(1e-4, 1e4, 2_000_001)
    brute = float(np.min(1.0 / lams + np.sqrt(2.0 * lams)))
    assert bound == pytest.approx(brute, rel=1e-6)
    # x^2 log(e+x) has no closed-form inverse: scan y = Phi^{-1}(lam) instead,
    # where the objective is 1/Phi(y) + y
    young = young_plog(2.0, 1.0)
    bound, _ = orlicz_bound_minimize(1.0, math.inf, 1.0, young)
    ys = np.geomspace(1e-4, 1e4, 2_000_001)
    brute = float(np.min(1.0 / young.phi(ys) + ys))
    assert bound == pytest.approx(brute, rel=1e-6)


def test_orlicz_bound_monotone_in_E():
    young = young_power(2.0)
    bounds = [orlicz_bound_minimize(2.0, math.inf, E, young)[0]
              for E in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(bounds) > 0)


def test_orlicz_bound_scaling_closed_form():
    # bound scales like E^{p/(p+q)} for Phi = x^p/p at r = inf
    young = young_power(2.0)
    ratios = [orlicz_bound_minimize(2.0, math.inf, E, young)[0] / E**0.5
              for E in (1e-2, 1e-4, 1e-6)]
    assert max(ratios) / min(ratios) - 1.0 < 0.01


def test_orlicz_bound_errors():
    with pytest.raises(InvalidArgumentError):
        orlicz_bound_minimize(2.0, math.inf, 0.0, young_power(2.0))
    with pytest.raises(InvalidArgumentError):
        orlicz_bound_minimize(3.0, 2.0, 1.0, young_power(2.0))


def test_young_function_shape_flags():
    # convex, vanishing at zero, nondecreasing on a grid
    for young in (young_power(2.0), young_plog(2.0, 1.0), young_plog(1.5, -0.4)):
        xs = np.linspace(0.0, 10.0, 201)
        vals = np.asarray(young.phi(xs))
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-12)
        mid = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] <= mid + 1e-9)
