import math

import numpy as np
import pytest

from irregmc import mlmc
from irregmc.errors import (
    DegenerateCurveError,
    InvalidArgumentError,
    NonconvergenceError,
)
from irregmc.mlmc import (
    LevelStats,
    allocate_samples,
    complexity_sweep,
    estimate_alpha_beta,
    level_sample,
    run_mlmc,
    single_level_run,
)
from irregmc.payoff import make_payoff
from irregmc.randomkit import derive_seed, increment_batch
from irregmc.sde import StepCounter, em_terminal_batch, make_model


def test_level_statistics_do_not_depend_on_the_window_budget(monkeypatch):
    # 1024- and 4096-path windows over the same increments; folding each
    # window as one batch gave variance ...871321 against ...871322 here
    model = make_model("sincos")
    pay = make_payoff("interval_indicator", a=-1.5, b=1.5)
    stats, windows = [], []
    for budget in (2**12, 2**16):
        monkeypatch.setattr(mlmc, "DEFAULT_BATCH", budget)
        cut = []

        def recording(*args, cut=cut):
            cut.append(args[-1])  # paths in the window
            return increment_batch(*args)

        monkeypatch.setattr(mlmc, "increment_batch", recording)
        stats.append(level_sample(model, pay, 2, 4, 8192, seed=7))
        windows.append(cut)
    assert windows == [[1024] * 8, [4096] * 2]
    assert (stats[0].mean, stats[0].variance) == (stats[1].mean, stats[1].variance)


def test_level_zero_equals_plain_estimator():
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    stats = level_sample(model, pay, 0, 2, 5000, seed=3)
    inc = increment_batch(derive_seed(3, 0), 1, 1.0, 1, 0, 5000)
    direct = float(np.mean(pay(em_terminal_batch(model, inc))))
    assert stats.mean == pytest.approx(direct, abs=1e-12)
    assert stats.cost == 5000


def test_constant_model_level_variance_exactly_zero():
    model = make_model("constant", mu=0.1, sigma=0.2)
    indicator = make_payoff("interval_indicator")
    for level in (1, 2, 3):
        stats = level_sample(model, indicator, level, 2, 1000, seed=7)
        assert stats.variance == 0.0
        assert stats.cost == 1000 * (2**level + 2 ** (level - 1))


def test_level_sample_preconditions():
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    with pytest.raises(InvalidArgumentError):
        level_sample(model, pay, -1, 2, 100, 0)
    with pytest.raises(InvalidArgumentError):
        level_sample(model, pay, 0, 2, 1, 0)
    with pytest.raises(InvalidArgumentError):
        level_sample(model, pay, 0, 1, 100, 0)


def test_allocation_formula_and_shape():
    # hand-checked value: V=(1, 0.25), h=(1, 0.5), eps=0.1
    out = allocate_samples([1.0, 0.25], [1.0, 0.5], 0.1)
    weight = 1.0 + math.sqrt(0.5)
    assert out[0] == math.ceil(200 * weight)
    assert out[1] == math.ceil(200 * math.sqrt(0.125) * weight)
    # nonincreasing N whenever V_l h_l is nonincreasing
    v = np.array([0.5, 0.2, 0.05, 0.01])
    h = np.array([1.0, 0.5, 0.25, 0.125])
    alloc = allocate_samples(v, h, 0.01)
    assert np.all(np.diff(alloc) <= 0)


def test_estimate_alpha_beta_exact_power_law():
    levels = [
        LevelStats(level=l, h=2.0**-l, M=2, N=100, mean=2.0**-l,
                   variance=2.0**-l, cost=1.0)
        for l in range(1, 6)
    ]
    alpha_fit, beta_fit, excluded = estimate_alpha_beta(levels)
    assert alpha_fit.slope == pytest.approx(1.0, abs=1e-12)
    assert beta_fit.slope == pytest.approx(1.0, abs=1e-12)
    assert excluded == []


def test_estimate_alpha_beta_degenerate():
    model = make_model("constant", mu=0.1, sigma=0.2)
    indicator = make_payoff("interval_indicator")
    levels = [level_sample(model, indicator, l, 2, 500, seed=1) for l in (1, 2, 3)]
    with pytest.raises(DegenerateCurveError):
        estimate_alpha_beta(levels)


def test_estimate_alpha_beta_excludes_level_zero_and_reports():
    levels = [LevelStats(0, 1.0, 2, 10, 0.5, 0.1, 1.0)] + [
        LevelStats(l, 2.0**-l, 2, 10, 2.0**-l, 2.0**-l, 1.0) for l in range(1, 5)
    ] + [LevelStats(5, 2.0**-5, 2, 10, 0.0, 0.0, 1.0)]
    alpha_fit, _, excluded = estimate_alpha_beta(levels)
    assert alpha_fit.slope == pytest.approx(1.0, abs=1e-12)
    assert excluded == [5]


def test_beta_hat_brackets():
    model = make_model("sincos")
    indicator = make_payoff("interval_indicator")
    ramp = make_payoff("clamp_ramp")
    lev_i = [level_sample(model, indicator, l, 2, 20_000, seed=13) for l in range(1, 7)]
    _, beta_i, _ = estimate_alpha_beta(lev_i)
    assert 0.3 <= beta_i.slope <= 0.7
    lev_r = [level_sample(model, ramp, l, 2, 20_000, seed=14) for l in range(1, 7)]
    _, beta_r, _ = estimate_alpha_beta(lev_r)
    assert 0.7 <= beta_r.slope <= 1.3


def test_run_mlmc_constant_model_vs_quadrature():
    model = make_model("constant", mu=0.1, sigma=0.2)
    ramp = make_payoff("clamp_ramp")
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(120)
    truth = float(np.sum(gh_w * np.clip(0.1 + 0.2 * gh_x, 0, 1)) / math.sqrt(2 * math.pi))
    eps = 0.005
    res = run_mlmc(model, ramp, eps, M=2, alpha_hint=1.0, seed=2)
    assert abs(res.estimate - truth) <= 3 * eps
    assert res.variance_estimate <= eps**2 / 2 * 1.1
    assert res.total_cost == sum(ls.cost for ls in res.levels)


def test_run_mlmc_cost_monotone_in_epsilon():
    model = make_model("constant", mu=0.1, sigma=0.2)
    ramp = make_payoff("clamp_ramp")
    c1 = run_mlmc(model, ramp, 0.01, seed=3).total_cost
    c2 = run_mlmc(model, ramp, 0.005, seed=3).total_cost
    assert c2 > c1


def test_run_mlmc_replicate_self_consistency():
    # independent replicates should scatter within the RMS target
    model = make_model("sincos")
    indicator = make_payoff("interval_indicator")
    eps = 0.02
    ests = np.array([
        run_mlmc(model, indicator, eps, M=2, alpha_hint=1.0, seed=500 + r).estimate
        for r in range(12)
    ])
    rms = float(np.sqrt(np.mean((ests - ests.mean()) ** 2)))
    assert rms <= 1.5 * eps


def test_run_mlmc_validation():
    model = make_model("constant")
    pay = make_payoff("clamp_ramp")
    with pytest.raises(InvalidArgumentError):
        run_mlmc(model, pay, 1.5)
    with pytest.raises(InvalidArgumentError):
        run_mlmc(model, pay, 0.01, M=3)


def test_run_mlmc_nonconvergence_diagnostics():
    model = make_model("sincos")
    indicator = make_payoff("interval_indicator")
    with pytest.raises(NonconvergenceError) as err:
        run_mlmc(model, indicator, 0.005, M=2, alpha_hint=1.0, seed=4, max_level=2)
    assert "bias_estimate" in err.value.diagnostics


def test_telescoping_zero_diffusion():
    # deterministic dynamics: level means telescope exactly to f(X^(M^L))
    model = make_model("ode", x0=0.5)
    pay = make_payoff("clamp_ramp", lo=-2.0, hi=2.0)
    L, M = 3, 2
    means = [level_sample(model, pay, l, M, 10, seed=5).mean for l in range(L + 1)]
    inc = increment_batch(0, 1, 1.0, M**L, 0, 1)
    direct = float(pay(em_terminal_batch(model, inc))[0])
    assert math.fsum(means) == pytest.approx(direct, abs=1e-14)


def test_unbiasedness_at_fixed_level():
    # average of fixed-L telescoped estimates vs a direct level-L estimator
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    M, L, N = 2, 3, 2000
    reps = 50
    ests = []
    for r in range(reps):
        means = [level_sample(model, pay, l, M, N, seed=1000 + 37 * r).mean
                 for l in range(L + 1)]
        ests.append(math.fsum(means))
    ests = np.asarray(ests)
    n_direct = 100_000
    inc = increment_batch(derive_seed(77, 1), 1, 1.0, M**L, 0, n_direct)
    direct = pay(em_terminal_batch(model, inc))
    se = math.hypot(ests.std() / math.sqrt(reps), direct.std() / math.sqrt(n_direct))
    assert abs(ests.mean() - direct.mean()) < 4 * se


def test_cost_accounting_instrumented():
    model = make_model("sincos")
    pay = make_payoff("clamp_ramp")
    counter = StepCounter()
    stats = level_sample(model, pay, 2, 2, 500, seed=6, counter=counter)
    assert counter.steps == stats.cost == 500 * (4 + 2)


def test_deep_level_keys_each_block_once(monkeypatch):
    # at 1024 normals per path a level's windows must still be whole blocks,
    # or every window would redraw its block
    import irregmc.randomkit as rk

    keyed = []
    original = rk.stream

    def counting(master_seed, index, stream_tag=rk.StreamTag.PATH):
        keyed.append(index)
        return original(master_seed, index, stream_tag)

    monkeypatch.setattr(rk, "stream", counting)
    level_sample(make_model("constant"), make_payoff("clamp_ramp"), 5, 4, 2048, seed=2)
    assert sorted(keyed) == [0, 1]


def test_single_level_run_basics():
    model = make_model("constant", mu=0.1, sigma=0.2)
    pay = make_payoff("clamp_ramp")
    res = single_level_run(model, pay, 0.01, M=2, seed=8)
    assert res.cost == res.N * res.n_steps
    assert res.n_steps >= 1
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(120)
    truth = float(np.sum(gh_w * np.clip(0.1 + 0.2 * gh_x, 0, 1)) / math.sqrt(2 * math.pi))
    assert abs(res.estimate - truth) < 4 * 0.01


def test_complexity_sweep_validation():
    model = make_model("constant")
    pay = make_payoff("clamp_ramp")
    with pytest.raises(InvalidArgumentError):
        complexity_sweep(model, pay, [0.01, 0.005], seed=0)
    with pytest.raises(InvalidArgumentError):
        complexity_sweep(model, pay, [0.02, 0.015, 0.01], seed=0)


def test_complexity_sweep_runs_and_fits():
    model = make_model("constant", mu=0.1, sigma=0.2)
    pay = make_payoff("clamp_ramp")
    sw = complexity_sweep(model, pay, [0.04, 0.02, 0.01, 0.005], M=2, seed=9)
    assert sw.costs.shape == (4,)
    # finer epsilon never costs less; pilot floors allow equality at coarse eps
    assert np.all(np.diff(sw.costs) <= 0)
    assert sw.costs[0] > sw.costs[-1]
    assert sw.fitted_cost_exponent > 0
    assert sw.standard_mc_exponent == pytest.approx(3.0)
