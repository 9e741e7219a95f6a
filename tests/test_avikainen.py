import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from irregmc import avikainen as av
from irregmc import randomkit, sde
from irregmc.avikainen import (
    ErrorCurve,
    exponent_rule,
    fit_rate,
    inequality_check,
    qerror_curves,
)
from irregmc.errors import DegenerateCurveError, InvalidArgumentError
from irregmc.payoff import make_payoff
from irregmc.randomkit import increment_batch
from irregmc.sde import StepCounter, block_sums, em_terminal_batch, make_model
from irregmc.stats import Welford


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
    curve = qerror_curves(model, [(make_payoff("interval_indicator"), 2.0)],
                          [8, 16, 32], 1000, 256, seed=3)[0]
    assert np.all(curve.value == 0.0)
    with pytest.raises(DegenerateCurveError):
        fit_rate(curve)
    ramp_curve = qerror_curves(model, [(make_payoff("clamp_ramp"), 2.0)],
                               [8, 16, 32], 1000, 256, seed=3)[0]
    assert np.all(ramp_curve.value <= 1e-28)


def test_qerror_preconditions():
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    with pytest.raises(InvalidArgumentError):
        qerror_curves(model, [(pay, 2.0)], [7], 1000, 256, seed=0)[0]  # 7 does not divide 256
    with pytest.raises(InvalidArgumentError):
        qerror_curves(model, [(pay, 2.0)], [8], 100, 256, seed=0)[0]  # N too small


def test_a_repeated_step_count_is_rejected_before_any_path_is_stepped():
    # rejected with the other argument checks, not by ErrorCurve after the sweep
    counter = sde.StepCounter()
    with pytest.raises(InvalidArgumentError, match="repeat"):
        qerror_curves(make_model("sincos"), [(make_payoff("clamp_ramp"), 2.0)], [8, 8, 16],
                      20000, 256, 1, counter=counter)
    assert counter.steps == 0


def test_the_reference_step_count_is_rejected_before_any_path_is_stepped():
    # at n = n_ref the curve reads 0, and fit_rate would blame the scheme
    counter = sde.StepCounter()
    with pytest.raises(InvalidArgumentError, match="smaller"):
        qerror_curves(make_model("sincos"), [(make_payoff("interval_indicator"), 2.0)],
                      [8, 16, 64], 2000, 64, 1, counter=counter)
    assert counter.steps == 0


def test_curves_do_not_depend_on_the_window_size(monkeypatch):
    # folding each window as one batch gave 0.000544686832027609 at 1024-path
    # windows and ...6089 at 4096 for n = 32
    model, pay = make_model("sincos"), make_payoff("clamp_ramp")
    curves, windows = [], []
    # factors 8 and 2: the window width is CHUNK_NORMALS // 16 at most
    for budget in (1 << 14, 1 << 16, randomkit.CHUNK_NORMALS):
        monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
        cut = {}

        def recording(*args, cut=cut, **kwargs):
            cut.setdefault(args[4], args[5])  # paths in the window
            return increment_batch(*args, **kwargs)

        monkeypatch.setattr(av, "increment_batch", recording)
        curves.append(qerror_curves(model, [(pay, 2.0)], [8, 32], N=8192, n_ref=64, seed=5)[0])
        windows.append(list(cut.values()))
    assert windows == [[1024] * 8, [4096] * 2, [8192]]
    assert len({(tuple(c.value), tuple(c.stderr)) for c in curves}) == 1


def _whole_window_curves(model, targets, n_list, n_ref, seed, widths):
    """(values, stderrs) per target from the whole-window sweep that preceded
    time chunking: each window's (B, n_ref, d) increments drawn in one call."""
    n_list = sorted(n_list)
    accs = {(i, n): Welford() for i in range(len(targets)) for n in n_list}
    done = 0
    for b in widths:
        inc = increment_batch(seed, model.d, model.T, n_ref, done, b)
        ref = em_terminal_batch(model, inc)
        f_ref = [pay(ref) for pay, _ in targets]
        for n in n_list:
            xn = em_terminal_batch(model, block_sums(inc, n_ref // n))
            for i, (pay, q) in enumerate(targets):
                accs[(i, n)].update(np.abs(f_ref[i] - pay(xn)) ** q, done)
        done += b
    return [([accs[(i, n)].mean for n in n_list], [accs[(i, n)].stderr for n in n_list])
            for i in range(len(targets))]


# chunk lengths of the first window, by the CHUNK_NORMALS and _DRAW_NORMALS
# that give each: over 1024-path windows 8 steps, which cut the coarse steps
# of the factors 256 // n = 32, 8 and 4 across chunks, and 32, the lcm; over
# one window 40 steps, which cut them too, 96 steps, which do not, and n_ref
@pytest.mark.parametrize("chunk, budget, draw, widths", [
    (8, 1 << 16, 1 << 16, [1024, 1024, 952]), (32, 1 << 18, 1024, [1024, 1024, 952]),
    (40, 960_000, 1 << 16, [3000]), (96, 2_304_000, 1 << 16, [3000]),
    (256, 1 << 23, 1 << 16, [3000])], ids=["8", "32", "40", "96", "256"])
def test_chunked_curves_equal_whole_window_curves(monkeypatch, chunk, budget, draw, widths):
    model = make_model("sincos")
    targets = [(make_payoff("clamp_ramp"), 2.0), (make_payoff("interval_indicator"), 1.0)]
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    monkeypatch.setattr(randomkit, "_DRAW_NORMALS", draw)
    lengths = []

    def recording(*args, **kwargs):
        inc = increment_batch(*args, **kwargs)
        lengths.append(inc.shape[1])
        return inc

    monkeypatch.setattr(av, "increment_batch", recording)
    curves = qerror_curves(model, targets, [8, 32, 64], 3000, 256, seed=4)
    assert lengths[0] == chunk
    assert [b for _, b, _ in randomkit.path_layout(0, 3000, 256, 32)[0]] == widths
    for curve, (values, stderrs) in zip(
            curves, _whole_window_curves(model, targets, [8, 32, 64], 256, 4, widths)):
        assert curve.value.tolist() == values
        assert curve.stderr.tolist() == stderrs


def test_sweep_draws_and_steps_what_it_reports(monkeypatch):
    # the names the benchmark tracer rebinds: every normal drawn and every
    # EM path-step must pass through them, whatever the chunking
    drawn, steps = [], []

    def counting_draw(*args, **kwargs):
        inc = increment_batch(*args, **kwargs)
        drawn.append(inc.size)
        return inc

    def counting_em(model, increments, *args, **kwargs):
        steps.append(increments.shape[0] * increments.shape[1])
        return em_terminal_batch(model, increments, *args, **kwargs)

    budget = 1 << 18
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    monkeypatch.setattr(av, "increment_batch", counting_draw)
    monkeypatch.setattr(sde, "em_terminal_batch", counting_em)
    N, n_ref, n_list = 5000, 1024, [32, 128, 256]
    counter = StepCounter()
    qerror_curves(make_model("sincos"), [(make_payoff("clamp_ramp"), 2.0)], n_list, N,
                  n_ref, seed=1, counter=counter)
    assert len(drawn) > 2  # two windows, several chunks each
    assert sum(drawn) == N * n_ref
    assert sum(steps) == counter.steps == N * (n_ref + sum(n_list))
    assert max(drawn) <= budget // 8  # overlapped: two chunks in flight


def test_sweep_memory_does_not_grow_with_n_ref():
    # a whole-window sweep held (N, n_ref) increments: 32 MB at n_ref = 4096
    # and 128 MB at 16384; chunks hold at most CHUNK_NORMALS // 8 normals,
    # two of them at a time, whatever the factor (2048 here)
    model, pay = make_model("sincos"), make_payoff("interval_indicator")
    peaks = {}
    for n_ref in (4096, 16384):
        tracemalloc.start()
        try:
            qerror_curves(model, [(pay, 2.0)], [8, 16], 1024, n_ref, seed=2)
            peaks[n_ref] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    budget_bytes = 8 * randomkit.CHUNK_NORMALS
    assert peaks[16384] < budget_bytes // 4 + (2 << 20)
    assert peaks[16384] < 1.5 * peaks[4096]


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
    c1 = qerror_curves(model, [(pay, 2.0)], [8, 32], 4000, 256, seed=9)[0]
    c2 = qerror_curves(model, [(pay, 2.0)], [8, 32], 8000, 256, seed=9)[0]
    for v1, s1, v2, s2 in zip(c1.value, c1.stderr, c2.value, c2.stderr):
        assert abs(v1 - v2) < 4 * math.hypot(s1, s2)


def _refinement_fits(curves=qerror_curves):
    model = make_model("sincos")
    targets = [(make_payoff("clamp_ramp"), 2.0)]
    n_list = [8, 16, 32, 64]
    f1 = fit_rate(curves(model, targets, n_list, 20_000, 512, seed=11)[0])
    f2 = fit_rate(curves(model, targets, n_list, 20_000, 1024, seed=11)[0])
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
        curve = qerror_curves(*args, **kwargs)[0]
        if curve.n_ref == 1024:
            curve.value = curve.value * (curve.n / curve.n[0]) ** -0.2
        return [curve]

    f1, f2 = _refinement_fits(tilted)
    assert f2.slope < f1.slope
    assert not _refinement_does_not_steepen(f1, f2)


def test_qerror_2d_model_with_ball_indicator():
    model = make_model("sincos2d")
    ball = make_payoff("ball_indicator", d=2, radius=1.0)
    curve = qerror_curves(model, [(ball, 2.0)], [8, 16, 32, 64], 20_000, 512, seed=21)[0]
    assert np.all(np.diff(curve.value) < 0)
    fit = fit_rate(curve)
    assert -1.1 <= fit.slope <= -0.25


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
