"""Acceptance checks: exactness, rate, maximal, inequality, and complexity suites.

Each check is deterministic (fixed seeds), pins its tolerances, and returns a
CheckResult. ``scale`` shrinks sample sizes for quick smoke runs; statistical
margins are calibrated for scale=1.0, so reduced-scale outcomes are indicative
only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import avikainen as av
from . import diagnostics as dg
from . import maximal as mx
from . import mlmc
from . import payoff as po
from . import sde
from .randomkit import increment_batch


@dataclass
class CheckResult:
    criterion: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.criterion} {self.name}: {extras}"


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


# ---------------------------------------------------------------------------


def check_exact_coupling(scale: float = 1.0, seed: int = 2024) -> CheckResult:
    """Constant-coefficient model: EM equals the closed form for every n, and
    MLMC level variances vanish identically for quantized payoffs."""
    t0 = time.time()
    model = sde.make_model("constant", mu=0.1, sigma=0.2)
    n_max = _scaled(1024, scale, 32)
    worst = 0.0
    # one time-major draw; path n-1's first n steps, rescaled, drive grid n
    pool = increment_batch(seed, 1, 1.0, n_max, 0, n_max)
    for n in range(1, n_max + 1):
        inc = pool[n - 1 : n, :n] * math.sqrt(n_max / n)
        term = sde.em_terminal_batch(model, inc)[0, 0]
        closed = 0.1 * 1.0 + 0.2 * float(inc.sum())
        worst = max(worst, abs(term - closed) / max(1.0, abs(closed)))
    indicator = po.make_payoff("interval_indicator")
    ramp = po.make_payoff("clamp_ramp")
    max_var_ind = 0.0
    max_var_ramp = 0.0
    for level in range(1, 5):
        n_lev = _scaled(2000, scale, 200)
        max_var_ind = max(
            max_var_ind, mlmc.level_sample(model, indicator, level, 2, n_lev, seed).variance
        )
        max_var_ramp = max(
            max_var_ramp, mlmc.level_sample(model, ramp, level, 2, n_lev, seed).variance
        )
    passed = worst <= 1e-12 and max_var_ind == 0.0 and max_var_ramp <= 1e-26
    return CheckResult(
        "criterion-1", "exact coupling and closed-form collapse", passed,
        {
            "max_rel_err": f"{worst:.2e}",
            "indicator_level_var": max_var_ind,
            "ramp_level_var": f"{max_var_ramp:.2e}",
            "n_max": n_max,
        },
        time.time() - t0,
    )


def check_strong_rates(scale: float = 1.0, seed: int = 7101) -> CheckResult:
    """Coupled q-moment error slopes for Lipschitz, indicator, and cusp payoffs."""
    t0 = time.time()
    model = sde.make_model("sincos")
    targets = [
        (po.make_payoff("clamp_ramp"), 2.0),
        (po.make_payoff("interval_indicator"), 2.0),
        (po.make_payoff("tent_power", s=0.5, p=2.0), 2.0),
    ]
    n_list = [8, 16, 32, 64, 128, 256, 512]
    N = _scaled(100_000, scale, 2_000)
    curves = av.qerror_curves(model, targets, n_list, N, 4096, seed)
    slopes = [av.fit_rate(c).slope for c in curves]
    ok_ramp = slopes[0] <= -0.8
    ok_ind = -0.65 <= slopes[1] <= -0.35
    ok_tent = slopes[2] <= -0.15
    return CheckResult(
        "criterion-2", "strong-rate reproduction", ok_ramp and ok_ind and ok_tent,
        {
            "lipschitz_slope": f"{slopes[0]:.3f} (<= -0.8)",
            "indicator_slope": f"{slopes[1]:.3f} (in [-0.65,-0.35])",
            "tent_power_slope": f"{slopes[2]:.3f} (<= -0.15)",
            "N": N,
        },
        time.time() - t0,
    )


def check_power_trick(scale: float = 1.0, seed: int = 311) -> CheckResult:
    """Indicator q-moment curves must be bit-identical across q."""
    t0 = time.time()
    model = sde.make_model("sincos")
    indicator = po.make_payoff("interval_indicator")
    N = _scaled(20_000, scale, 1_000)
    curves = av.qerror_curves(
        model, [(indicator, q) for q in (1.0, 2.0, 3.0)], [8, 32, 128], N, 1024, seed
    )
    same = np.array_equal(curves[0].value, curves[1].value) and np.array_equal(
        curves[0].value, curves[2].value
    )
    return CheckResult(
        "criterion-3", "indicator power-trick bit-identity", bool(same),
        {"values_q1": list(map(float, curves[0].value)), "identical": bool(same)},
        time.time() - t0,
    )


def check_weak_type(scale: float = 1.0, seed: int = 555) -> CheckResult:
    """A_1 = 5^d weak-type bound: zero violations over random measures."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    n_atomic = _scaled(100, scale, 10)
    n_grid = _scaled(100, scale, 10)
    violations = 0
    checked = 0
    for _ in range(n_atomic):
        nu = mx.random_atomic_measure(rng)
        probes = np.concatenate(
            [rng.uniform(-6, 6, size=200), nu.atoms[:, 0] + 1e-3, nu.atoms[:, 0] - 1e-3]
        )
        vals = [mx.maximal_at(nu, [p]) for p in probes]
        lams = mx.percentile_lambda_grid(vals, 10)
        rep = mx.weak_type_check(nu, lams)
        violations += rep.violations
        checked += len(lams)
    for i in range(n_grid):
        nu = mx.random_density_1d(rng) if i % 2 == 0 else mx.random_density_2d(rng)
        fld = mx.maximal_field(nu)
        lams = mx.percentile_lambda_grid(fld.values.ravel(), 10)
        rep = mx.weak_type_check(nu, lams)
        violations += rep.violations
        checked += len(lams)
    return CheckResult(
        "criterion-4", "weak-type bound suite", violations == 0,
        {"violations": violations, "lambdas_checked": checked,
         "measures": n_atomic + n_grid},
        time.time() - t0,
    )


def check_pointwise_estimates(scale: float = 1.0, seed: int = 901) -> CheckResult:
    """Pointwise maximal-function estimates: exact Heaviside bound plus
    grid-stability of the fitted constants."""
    t0 = time.time()
    heavi = mx.GridField.from_function(
        lambda x: (x[..., 0] >= 0).astype(float), 1, -3.0, 3.0, 600
    )
    d_heavi = mx.measure_from_atoms([[0.0]], [1.0])

    def cross_sign(rng, count):
        return (
            -rng.uniform(0.01, 3.0, size=count)[:, None],
            rng.uniform(0.01, 3.0, size=count)[:, None],
        )

    n_pairs = _scaled(10_000, scale, 500)
    rep_h = mx.pointwise_check(heavi, d_heavi, n_pairs, mode="bv", seed=seed,
                               pair_sampler=cross_sign)
    ok_heavi = rep_h.violations == 0 and rep_h.k0 <= 0.5 + 1e-12

    ball_pairs = _scaled(1200, scale, 100)
    k0_ball = []
    for cells in (256, 512):  # spacing 1/64 and 1/128 on [-2, 2]^2
        f, grad = mx.mollified_ball_gradient(1.0, -2.0, 2.0, cells)
        rep = mx.pointwise_check(f, grad, ball_pairs, mode="bv", seed=seed + cells)
        k0_ball.append(rep.k0)
    ratio_ball = max(k0_ball) / min(k0_ball)

    k0_tent = []
    tent = po.make_payoff("tent")
    for cells in (512, 1024):  # spacing 1/128 and 1/256 on [-2, 2]
        f = mx.GridField.from_function(tent.fn, 1, -2.0, 2.0, cells)
        g = mx.gsp_field(f, 0.5, 2.0)
        rep = mx.pointwise_check(
            f, g, _scaled(2000, scale, 200), mode="fractional", s=0.5, seed=seed + cells
        )
        k0_tent.append(rep.k0)
    ratio_tent = max(k0_tent) / min(k0_tent)
    ok_ball = ratio_ball < 2.0
    ok_tent = all(math.isfinite(k) for k in k0_tent) and ratio_tent < 2.0
    return CheckResult(
        "criterion-5", "pointwise estimate suite", ok_heavi and ok_ball and ok_tent,
        {
            "heaviside_k0": f"{rep_h.k0:.6f} (<= 0.5)",
            "heaviside_violations": rep_h.violations,
            "ball_k0": [f"{k:.3f}" for k in k0_ball],
            "ball_ratio": f"{ratio_ball:.2f} (< 2)",
            "tent_k0": [f"{k:.3f}" for k in k0_tent],
            "tent_ratio": f"{ratio_tent:.2f} (< 2)",
        },
        time.time() - t0,
    )


def check_inequality_closed_form(scale: float = 1.0, seed: int = 113) -> CheckResult:
    """Gaussian-shift indicator estimate matches the normal-CDF closed form."""
    t0 = time.time()
    indicator = po.make_payoff("interval_indicator")
    N = _scaled(200_000, scale, 5_000)
    rep = av.inequality_check(
        "gaussian_shift", indicator, p=1.0, q=1.0, rule="bv",
        scale_grid=[0.2, 0.1, 0.05, 0.025], N=N, seed=seed,
    )
    t = 0.1
    exact = float((norm.cdf(t) - norm.cdf(0.0)) + (norm.cdf(1.0) - norm.cdf(1.0 - t)))
    i = 1
    dev = abs(rep.lhs[i] - exact)
    ok = dev <= 3.0 * rep.lhs_stderr[i]
    return CheckResult(
        "criterion-6a", "inequality check vs normal-CDF oracle", bool(ok),
        {
            "mc_lhs": f"{rep.lhs[i]:.5f}",
            "exact_lhs": f"{exact:.5f}",
            "deviation_se": f"{dev / max(rep.lhs_stderr[i], 1e-300):.2f} (<= 3)",
        },
        time.time() - t0,
    )


def check_inequality_ratio_bounded(scale: float = 1.0, seed: int = 113) -> CheckResult:
    """LHS / base stays bounded as the shift t decreases: growth over the
    largest-t ratio < 2.

    The paper's estimate is an upper bound with an existence-level constant,
    so only one direction is testable: the ratio must not grow toward small t.
    A two-sided gate would demand that the bound be sharp for this coupling,
    and it is not: the shift gap is deterministic, so the base is
    t^(p/(p+1)) while the LHS is ~(phi(0) + phi(1)) t, and the ratio falls
    like t^(1/(p+1)). The 1/(p+1) loss is reached only by couplings with a
    random gap. The max/min spread (~2.9 here) is reported for information.
    """
    t0 = time.time()
    indicator = po.make_payoff("interval_indicator")
    N = _scaled(200_000, scale, 5_000)
    rep = av.inequality_check(
        "gaussian_shift", indicator, p=1.0, q=1.0, rule="bv",
        scale_grid=[0.2, 0.1, 0.05, 0.025], N=N, seed=seed,
    )
    ref = rep.ratios[int(np.argmax(rep.scale_grid))]
    growth = float(np.max(rep.ratios) / ref)
    passed = bool(np.all(np.isfinite(rep.ratios)) and growth < 2.0)
    return CheckResult(
        "criterion-6b", "inequality ratio bounded as t shrinks", passed,
        {
            "ratios": [f"{r:.4f}" for r in rep.ratios],
            "growth": f"{growth:.3f} (< 2)",
            "max_over_min": f"{rep.max_ratio / rep.min_ratio:.3f} (info)",
        },
        time.time() - t0,
    )


def check_orlicz_toolkit(scale: float = 1.0, seed: int = 0) -> CheckResult:
    """Conjugate doubling for x^2 log(e+x) and the closed-form bound scaling."""
    t0 = time.time()
    young = po.young_plog(2.0, 1.0)
    xs = np.geomspace(1e-3, 1e3, _scaled(61, scale, 13))
    psi = np.array([po.young_complement(young, float(x)) for x in xs])
    psi2 = np.array([po.young_complement(young, float(2 * x)) for x in xs])
    doubling_violations = int(np.count_nonzero(psi2 > 4.0 * psi * (1 + 1e-9)))

    power = po.young_power(2.0)
    ratios = []
    for E in (1e-2, 1e-4, 1e-6):
        bound, _ = po.orlicz_bound_minimize(2.0, math.inf, E, power)
        ratios.append(bound / E ** (2.0 / 4.0))
    ratio_spread = max(ratios) / min(ratios) - 1.0
    ok = doubling_violations == 0 and ratio_spread < 0.01
    return CheckResult(
        "criterion-7", "Orlicz toolkit", ok,
        {
            "doubling_violations": doubling_violations,
            "scaling_ratios": [f"{r:.6f}" for r in ratios],
            "scaling_spread": f"{ratio_spread:.2e} (< 1e-2)",
        },
        time.time() - t0,
    )


def check_mlmc_correctness(scale: float = 1.0, seed: int = 1000) -> CheckResult:
    """Constant-coefficient MLMC vs Gauss-Hermite truth over 20 replicates."""
    t0 = time.time()
    model = sde.make_model("constant", mu=0.1, sigma=0.2)
    ramp = po.make_payoff("clamp_ramp")
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(120)
    truth = float(np.sum(gh_w * np.clip(0.1 + 0.2 * gh_x, 0.0, 1.0)) / math.sqrt(2 * math.pi))
    eps = 0.005
    reps = _scaled(20, scale, 5)
    errs = []
    for r in range(reps):
        res = mlmc.run_mlmc(model, ramp, eps, M=2, alpha_hint=1.0, seed=seed + r)
        errs.append(res.estimate - truth)
    errs = np.asarray(errs)
    max_err = float(np.max(np.abs(errs)))
    rms = float(np.sqrt(np.mean(errs**2)))
    ok = max_err <= 3 * eps and rms <= 1.5 * eps
    return CheckResult(
        "criterion-8", "MLMC correctness vs quadrature", ok,
        {
            "truth": f"{truth:.6f}",
            "max_abs_err": f"{max_err:.5f} (<= {3*eps})",
            "replicate_rms": f"{rms:.5f} (<= {1.5*eps})",
            "replicates": reps,
        },
        time.time() - t0,
    )


def check_mlmc_complexity(scale: float = 1.0, seed: int = 4242) -> CheckResult:
    """Cost-exponent brackets plus the head-to-head against single-level MC.

    Run at M=4 with wide clamp/indicator payoffs: at desk-scale epsilon the
    narrow defaults leave the sweep dominated by the fixed pilot cost and the
    head-to-head near its crossover.
    """
    t0 = time.time()
    model = sde.make_model("sincos")
    lipschitz = po.make_payoff("clamp_ramp", lo=-2.0, hi=2.0)
    indicator = po.make_payoff("interval_indicator", a=-1.5, b=1.5)
    eps_list = [0.02, 0.01, 0.005]
    sw_lip = mlmc.complexity_sweep(
        model, lipschitz, eps_list, M=4, seed=seed, alpha_hint=1.0,
        predicted_exponent=po.predicted_mlmc_exponent("lipschitz", "weak1"),
    )
    sw_ind = mlmc.complexity_sweep(
        model, indicator, eps_list, M=4, seed=seed + 1, alpha_hint=1.0,
        predicted_exponent=po.predicted_mlmc_exponent("bv", "weak1", 0.9),
        compare_single_level=True,
    )
    single = sw_ind.single_level
    single_cost = single.cost + single.calibration_cost
    mlmc_cost = float(sw_ind.costs[0])
    ok_lip = 1.8 <= sw_lip.fitted_cost_exponent <= 2.6
    ok_ind = 2.0 <= sw_ind.fitted_cost_exponent <= 3.2
    ok_head = mlmc_cost < single_cost
    return CheckResult(
        "criterion-9", "MLMC complexity", ok_lip and ok_ind and ok_head,
        {
            "lipschitz_exponent": f"{sw_lip.fitted_cost_exponent:.3f} (in [1.8,2.6])",
            "indicator_exponent": f"{sw_ind.fitted_cost_exponent:.3f} (in [2.0,3.2])",
            "indicator_predicted": f"{sw_ind.predicted_exponent:.3f}",
            "mlmc_cost": f"{mlmc_cost:.3g}",
            "single_level_cost": f"{single_cost:.3g}",
            "mlmc_smaller": ok_head,
        },
        time.time() - t0,
    )


def check_density_diagnostics(scale: float = 1.0, seed: int = 6001) -> CheckResult:
    """Gaussian-envelope control fit and uniformity of C+ across step counts."""
    t0 = time.time()
    control = sde.make_model("constant", mu=0.0, sigma=1.0)
    N = _scaled(200_000, scale, 20_000)
    hist = dg.terminal_histogram(control, 16, N, 60, seed, value_range=(-4.0, 4.0))
    env = dg.fit_gaussian_envelope(hist, 0.0, 1.0)
    ok_control = 1.0 <= env.C_plus <= 1.2

    model = sde.make_model("sincos")
    cs = []
    for n in (16, 64, 256):
        h = dg.terminal_histogram(model, n, _scaled(100_000, scale, 20_000),
                                  60, seed + n, value_range=(-4.0, 5.0))
        cs.append(dg.fit_gaussian_envelope(h, 0.0, 1.0).C_plus)
    uniform = max(cs) / min(cs)
    ok_uniform = uniform < 2.0
    return CheckResult(
        "criterion-10", "density diagnostics", ok_control and ok_uniform,
        {
            "control_C_plus": f"{env.C_plus:.3f} (in [1.0,1.2], c+={env.c_plus:.2f})",
            "sincos_C_plus": [f"{c:.3f}" for c in cs],
            "uniformity": f"{uniform:.2f} (< 2)",
        },
        time.time() - t0,
    )


ACCEPTANCE_CHECKS = [
    check_exact_coupling,
    check_strong_rates,
    check_power_trick,
    check_weak_type,
    check_pointwise_estimates,
    check_inequality_closed_form,
    check_inequality_ratio_bounded,
    check_orlicz_toolkit,
    check_mlmc_correctness,
    check_mlmc_complexity,
    check_density_diagnostics,
]


def run_all(scale: float = 1.0, verbose: bool = True) -> list[CheckResult]:
    results = []
    for check in ACCEPTANCE_CHECKS:
        res = check(scale=scale)
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
