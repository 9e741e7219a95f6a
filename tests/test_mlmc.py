import math

import numpy as np
import pytest

from irregmc import mlmc, randomkit, sde
from irregmc.errors import (
    DegenerateCurveError,
    InvalidArgumentError,
    NonconvergenceError,
    NumericFailureError,
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
from irregmc.randomkit import derive_seed, increment_batch, path_layout
from irregmc.sde import StepCounter, block_sums, em_terminal_batch, make_model
from irregmc.stats import Welford


def test_level_statistics_do_not_depend_on_the_window_budget(monkeypatch):
    # 1024- and 4096-path windows and the whole round as one window, over the
    # same increments; folding each window as one batch gave variance
    # ...871321 at 1024 paths against ...871322 at 4096 here
    model = make_model("sincos")
    pay = make_payoff("interval_indicator", a=-1.5, b=1.5)
    stats, windows = [], []
    # the window width is CHUNK_NORMALS // (2 * M) at most: 1024, 4096, 65536
    for budget in (2**13, 2**15, randomkit.CHUNK_NORMALS):
        monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
        cut = {}

        def recording(*args, cut=cut, **kwargs):
            cut.setdefault(args[4], args[5])  # paths in the window
            return increment_batch(*args, **kwargs)

        monkeypatch.setattr(mlmc, "increment_batch", recording)
        stats.append(level_sample(model, pay, 2, 4, 8192, seed=7))
        windows.append(list(cut.values()))
    assert windows == [[1024] * 8, [4096] * 2, [8192]]
    assert len({(s.mean, s.variance) for s in stats}) == 1


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


@pytest.mark.parametrize("variances", [[math.inf, 1.0], [math.nan, 1.0], [1e300, 1e300]])
def test_variances_without_an_int64_sample_count_raise(variances):
    # the cast to int used to give a garbage count, often a negative one
    with pytest.raises(NumericFailureError, match="no int64 sample counts"):
        allocate_samples(variances, [1.0, 0.5], 0.1)


def test_drivers_whose_variances_overflow_raise_after_their_pilots():
    # payoff variances near 1e20 ask for about 1e22 samples at eps = 0.2: the
    # int cast gave run_mlmc a garbage count, and single_level_run, whose
    # constant-model levels pass the bias test, set out to draw them all
    model = make_model("constant", sigma=1e10)
    pay = make_payoff("clamp_ramp", lo=-1e300, hi=1e300)
    counter = StepCounter()
    with pytest.raises(NumericFailureError, match="no int64 sample counts"):
        run_mlmc(model, pay, 0.2, M=4, seed=1, counter=counter)
    assert counter.steps == mlmc.DEFAULT_PILOT * (1 + 4 + 1)
    with pytest.raises(NumericFailureError, match="no int64 sample counts"):
        single_level_run(model, pay, 0.2, M=4, seed=1)


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


@pytest.mark.parametrize("alpha_hint", [0, -1.0, math.nan])
def test_alpha_hint_must_be_positive(alpha_hint):
    # a hint <= 0 divided by zero in the bias test or made every bias negative
    model, pay = make_model("constant"), make_payoff("clamp_ramp")
    with pytest.raises(InvalidArgumentError, match="alpha_hint"):
        run_mlmc(model, pay, 0.01, alpha_hint=alpha_hint)
    with pytest.raises(InvalidArgumentError, match="alpha_hint"):
        single_level_run(model, pay, 0.01, alpha_hint=alpha_hint)
    with pytest.raises(InvalidArgumentError, match="alpha_hint"):
        complexity_sweep(model, pay, [0.04, 0.02, 0.01], alpha_hint=alpha_hint)


def test_run_mlmc_nonconvergence_diagnostics(monkeypatch):
    model = make_model("sincos")
    indicator = make_payoff("interval_indicator")
    monkeypatch.setattr(mlmc, "DEFAULT_MAX_LEVEL", 2)
    with pytest.raises(NonconvergenceError) as err:
        run_mlmc(model, indicator, 0.005, M=2, alpha_hint=1.0, seed=4)
    diagnostics = err.value.diagnostics
    assert "bias_estimate" in diagnostics
    # the steps taken: N_0 one-step paths, then per level a 2^l- and a 2^(l-1)-step path
    n0, n1, n2 = diagnostics["samples"]
    assert diagnostics["total_cost"] == n0 + n1 * (2 + 1) + n2 * (4 + 2)


def test_both_drivers_stop_at_the_one_level_cap_with_exact_costs(monkeypatch):
    # both drivers read the cap at call time and raise the same diagnostics
    monkeypatch.setattr(mlmc, "DEFAULT_MAX_LEVEL", 2)
    model, pay = make_model("sincos"), make_payoff("interval_indicator")
    keys = []
    for driver in (run_mlmc, single_level_run):
        counter = StepCounter()
        with pytest.raises(NonconvergenceError, match="level cap") as err:
            driver(model, pay, 0.005, M=2, seed=4, counter=counter)
        diagnostics = err.value.diagnostics
        assert diagnostics["levels"] == [0, 1, 2]
        assert diagnostics["total_cost"] == counter.steps > 0
        keys.append(set(diagnostics))
    assert keys[0] == keys[1] == {"levels", "samples", "means", "variances",
                                  "bias_estimate", "epsilon", "total_cost"}


def test_a_sweep_whose_single_level_run_fails_reports_every_step(monkeypatch):
    model, pay = make_model("sincos"), make_payoff("interval_indicator")
    sw = complexity_sweep(model, pay, [0.2, 0.1, 0.05], seed=2)
    real = mlmc.single_level_run

    def capped(*args, **kwargs):
        # the cap holds for the single-level run only; the MLMC runs keep 12
        with monkeypatch.context() as patch:
            patch.setattr(mlmc, "DEFAULT_MAX_LEVEL", 2)
            return real(*args, **kwargs)

    monkeypatch.setattr(mlmc, "single_level_run", capped)
    counter = StepCounter()
    with pytest.raises(NonconvergenceError, match="single-level") as err:
        complexity_sweep(model, pay, [0.2, 0.1, 0.05], seed=2, compare_single_level=True,
                         counter=counter)
    # the single-level run stepped its three pilot levels before the cap stopped it
    assert err.value.diagnostics["total_cost"] == mlmc.DEFAULT_PILOT * (1 + 3 + 6)
    assert counter.steps == float(np.sum(sw.costs)) + err.value.diagnostics["total_cost"]


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
    # at 1024 and 65536 normals per path a level's windows must still be whole
    # blocks, or every window would redraw its block (past 16384 normals per
    # path, windows once narrowed and keyed each block 4 times at level 8)
    keyed = []
    original = randomkit.stream

    def counting(master_seed, index, stream_tag=randomkit.StreamTag.PATH):
        keyed.append(index)
        return original(master_seed, index, stream_tag)

    monkeypatch.setattr(randomkit, "stream", counting)
    level_sample(make_model("constant"), make_payoff("clamp_ramp"), 5, 4, 2048, seed=2)
    assert sorted(keyed) == [0, 1]
    keyed.clear()
    level_sample(make_model("constant"), make_payoff("clamp_ramp"), 8, 4, 2048, seed=2)
    assert sorted(keyed) == [0, 1]


def _whole_window_coupled(model, increments, M):
    """Fine and coarse terminals as coupled_terminal_batch gave them before
    time chunking: both paths stepped over the whole window in one call."""
    if M == 1:
        fine = em_terminal_batch(model, increments)
        return fine, fine.copy()
    coarse_inc = block_sums(increments, M)
    return em_terminal_batch(model, increments), em_terminal_batch(model, coarse_inc)


# chunk lengths of the level-3 grid (64 steps) at M = 4, by the
# CHUNK_NORMALS and _DRAW_NORMALS that give each: over 1024-path windows one
# step, which cuts coarse steps across chunks, and M; over one window 6
# steps, which cut them too, 16 steps, which do not, and the whole grid
@pytest.mark.parametrize("chunk, budget, draw, widths", [
    (1, 1 << 13, 1 << 16, [1024, 1024, 952]), (4, 1 << 15, 1024, [1024, 1024, 952]),
    (6, 144_000, 1 << 16, [3000]), (16, 384_000, 1 << 16, [3000]),
    (64, 1 << 21, 1 << 16, [3000])], ids=["1", "4", "6", "16", "64"])
def test_chunked_level_equals_whole_window_level(monkeypatch, chunk, budget, draw, widths):
    model = make_model("sincos")
    pay = make_payoff("interval_indicator", a=-1.5, b=1.5)
    level, M, N, seed = 3, 4, 3000, 5
    terminals = []

    def recording(x):
        terminals.append(x.copy())
        return pay(x)

    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    monkeypatch.setattr(randomkit, "_DRAW_NORMALS", draw)
    windows = path_layout(0, N, M**level, M)[0]
    assert [(b, chunks[0]) for _, b, chunks in windows] == [(b, (0, chunk)) for b in widths]
    stats = level_sample(model, recording, level, M, N, seed)

    acc, expected = Welford(), []
    for first, b, _ in windows:
        inc = increment_batch(derive_seed(seed, level), 1, 1.0, M**level, first, b)
        fine, coarse = _whole_window_coupled(model, inc, M)
        expected += [fine, coarse]
        acc.update(pay(fine) - pay(coarse), first)
    assert len(terminals) == len(expected) == 2 * len(widths)
    assert all(np.array_equal(a, b) for a, b in zip(terminals, expected))
    assert (stats.mean, stats.variance) == (acc.mean, acc.variance)


def _counting_engine(monkeypatch):
    """Counting wrappers on the names the benchmark tracer rebinds; returns
    the lists of normals per draw and path-steps per EM call."""
    drawn, steps = [], []
    draw, em = mlmc.increment_batch, sde.em_terminal_batch

    def counting_draw(*args, **kwargs):
        inc = draw(*args, **kwargs)
        drawn.append(inc.size)
        return inc

    def counting_em(model, increments, *args, **kwargs):
        steps.append(increments.shape[0] * increments.shape[1])
        return em(model, increments, *args, **kwargs)

    monkeypatch.setattr(mlmc, "increment_batch", counting_draw)
    monkeypatch.setattr(sde, "em_terminal_batch", counting_em)
    return drawn, steps


def test_level_draws_and_steps_what_it_reports(monkeypatch):
    budget = 1 << 19  # the sweep overlaps its draws, each chunk an eighth
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    drawn, steps = _counting_engine(monkeypatch)
    N, level, M = 1500, 5, 4
    stats = level_sample(make_model("sincos"), make_payoff("clamp_ramp"), level, M, N, 3)
    assert len(drawn) == 24  # one window: 23 43-step chunks and one of 35
    assert sum(drawn) == N * M**level
    assert sum(steps) == stats.cost == N * (M**level + M ** (level - 1))
    assert max(drawn) <= budget // 8


def test_mlmc_run_draws_and_steps_what_it_reports(monkeypatch):
    # what the benchmark checks on an adaptive run: normals sum N_l M^l and
    # path-steps sum to the reported cost, here with most levels chunked:
    # windows of at most 1024 paths at M = 4, in chunks of at most 1024 normals
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", 1 << 13)
    drawn, steps = _counting_engine(monkeypatch)
    res = run_mlmc(make_model("sincos"), make_payoff("interval_indicator"), 0.05, M=4,
                   seed=3)
    assert sum(drawn) == sum(lv.N * 4**lv.level for lv in res.levels)
    assert sum(steps) == res.total_cost == sum(lv.cost for lv in res.levels)
    assert max(drawn) <= 1 << 10


@pytest.mark.parametrize("epsilon, M, alpha_hint, message", [
    (0.1, 4, 1000.5, "alpha_hint"),  # 4**1000.5 overflowed in the bias test
    (0.1, 2, 1e-17, "alpha_hint"),  # 2**1e-17 - 1 == 0 divided the bias by zero
    (1e-300, 4, 1.0, "epsilon"),  # epsilon**-2 overflowed in allocate_samples
])
def test_unusable_targets_are_rejected_before_any_draw(monkeypatch, epsilon, M, alpha_hint,
                                                       message):
    drawn, steps = _counting_engine(monkeypatch)
    model, pay = make_model("constant"), make_payoff("clamp_ramp")
    with pytest.raises(InvalidArgumentError, match=message):
        run_mlmc(model, pay, epsilon, M=M, alpha_hint=alpha_hint)
    with pytest.raises(InvalidArgumentError, match=message):
        single_level_run(model, pay, epsilon, M=M, alpha_hint=alpha_hint)
    with pytest.raises(InvalidArgumentError, match=message):
        complexity_sweep(model, pay, [epsilon, 4 * epsilon, 16 * epsilon], M=M,
                         alpha_hint=alpha_hint)
    assert drawn == [] and steps == []


def test_a_sweep_checks_every_epsilon_before_its_first_run():
    # the epsilons run smallest first, so a bad largest one came up last
    counter = StepCounter()
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        complexity_sweep(make_model("sincos"), make_payoff("interval_indicator", a=-1.5, b=1.5),
                         [0.005, 0.01, 1.5], M=4, seed=1, counter=counter)
    assert counter.steps == 0


def test_single_level_run_basics():
    model = make_model("constant", mu=0.1, sigma=0.2)
    pay = make_payoff("clamp_ramp")
    counter = StepCounter()
    res = single_level_run(model, pay, 0.01, M=2, seed=8, counter=counter)
    assert res.cost == res.N * res.n_steps
    # the costs come from the samples, and are the steps the run took
    assert counter.steps == res.cost + res.calibration_cost
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
