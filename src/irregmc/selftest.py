"""Acceptance checks: exactness, rate, maximal, inequality, and complexity suites.

Each check is deterministic (fixed seeds), pins its tolerances as the bounds
of its gates, and returns a CheckResult. ``scale`` shrinks sample sizes for
quick smoke runs; statistical margins are calibrated for scale=1.0, so
reduced-scale outcomes are indicative only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import avikainen as av
from . import diagnostics as dg
from . import maximal as mx
from . import mlmc
from . import payoff as po
from . import sde
from .randomkit import increment_batch
from .stats import Gate, spread_gate, strict_json


@dataclass
class CheckResult:
    """A criterion passes when all its gates pass; ``info`` holds the figures
    that no gate bounds (sample sizes, per-n constants and the like)."""

    criterion: str
    name: str
    gates: list[Gate]
    info: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = [*map(str, self.gates), *(f"{k}={v}" for k, v in self.info.items())]
        return f"[{status}] {self.criterion} {self.name}: {', '.join(extras)}"

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "gates": [g.to_dict() for g in self.gates],
                "info": {k: strict_json(v) for k, v in self.info.items()},
                "runtime_s": self.runtime_s}


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
    gates = [
        Gate("max_rel_err", worst, hi=1e-12),
        Gate("indicator_level_var", max_var_ind, hi=0.0),  # a variance: 0 exactly
        Gate("ramp_level_var", max_var_ramp, hi=1e-26),
    ]
    return CheckResult("criterion-1", "exact coupling and closed-form collapse", gates,
                       {"n_max": n_max}, time.time() - t0)


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
    gates = [
        Gate("lipschitz_slope", slopes[0], hi=-0.8),
        Gate("indicator_slope", slopes[1], lo=-0.65, hi=-0.35),
        Gate("tent_power_slope", slopes[2], hi=-0.15),
    ]
    return CheckResult("criterion-2", "strong-rate reproduction", gates, {"N": N},
                       time.time() - t0)


def check_power_trick(scale: float = 1.0, seed: int = 311) -> CheckResult:
    """Indicator q-moment curves must be bit-identical across q."""
    t0 = time.time()
    model = sde.make_model("sincos")
    indicator = po.make_payoff("interval_indicator")
    N = _scaled(20_000, scale, 1_000)
    curves = av.qerror_curves(
        model, [(indicator, q) for q in (1.0, 2.0, 3.0)], [8, 32, 128], N, 1024, seed
    )
    mismatches = sum(int(np.count_nonzero(c.value != curves[0].value)) for c in curves[1:])
    return CheckResult("criterion-3", "indicator power-trick bit-identity",
                       [Gate("mismatches", mismatches, hi=0)],
                       {"values_q1": list(map(float, curves[0].value))}, time.time() - t0)


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
        vals = mx.maximal_at(nu, probes[:, None])
        lams = mx.percentile_lambda_grid(vals, 10)
        rep = mx.weak_type_check(nu, lams)
        violations += rep.violations
        checked += len(lams)
    for i in range(n_grid):
        nu = mx.random_density_1d(rng) if i % 2 == 0 else mx.random_density_2d(rng)
        fld = mx.maximal_field(nu)
        lams = mx.percentile_lambda_grid(fld.values.ravel(), 10)
        rep = mx.weak_type_check(nu, lams, fld)
        violations += rep.violations
        checked += len(lams)
    return CheckResult(
        "criterion-4", "weak-type bound suite", [Gate("violations", violations, hi=0)],
        {"lambdas_checked": checked, "measures": n_atomic + n_grid}, time.time() - t0,
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

    ball_pairs = _scaled(1200, scale, 100)
    k0_ball = []
    for cells in (256, 512):  # spacing 1/64 and 1/128 on [-2, 2]^2
        f, grad = mx.mollified_ball_gradient(1.0, -2.0, 2.0, cells)
        rep = mx.pointwise_check(f, grad, ball_pairs, mode="bv", seed=seed + cells)
        k0_ball.append(float(rep.k0))

    k0_tent = []
    tent = po.make_payoff("tent")
    for cells in (512, 1024):  # spacing 1/128 and 1/256 on [-2, 2]
        f = mx.GridField.from_function(tent.fn, 1, -2.0, 2.0, cells)
        g = mx.gsp_field(f, 0.5, 2.0)
        rep = mx.pointwise_check(
            f, g, _scaled(2000, scale, 200), mode="fractional", s=0.5, seed=seed + cells
        )
        k0_tent.append(float(rep.k0))
    gates = [
        Gate("heaviside_k0", rep_h.k0, hi=0.5 + 1e-12),
        Gate("heaviside_violations", rep_h.violations, hi=0),
        spread_gate("ball_ratio", k0_ball),
        # max and min may skip a NaN, so the spread alone cannot catch one
        Gate("tent_k0_nonfinite", sum(not math.isfinite(k) for k in k0_tent), hi=0),
        spread_gate("tent_ratio", k0_tent),
    ]
    return CheckResult("criterion-5", "pointwise estimate suite", gates,
                       {"ball_k0": k0_ball, "tent_k0": k0_tent}, time.time() - t0)


def _gaussian_shift_check(scale: float, seed: int) -> av.InequalityReport:
    """The indicator's bv inequality over shifts t of N(0, 1), shared by 6a and 6b."""
    return av.inequality_check(
        "gaussian_shift", po.make_payoff("interval_indicator"), p=1.0, q=1.0, rule="bv",
        scale_grid=[0.2, 0.1, 0.05, 0.025], N=_scaled(200_000, scale, 5_000), seed=seed,
    )


def check_inequality_closed_form(scale: float = 1.0, seed: int = 113) -> CheckResult:
    """Gaussian-shift indicator estimate matches the normal-CDF closed form."""
    t0 = time.time()
    rep = _gaussian_shift_check(scale, seed)
    t = 0.1
    cdf = [0.5 * math.erfc(-v / math.sqrt(2)) for v in (t, 0.0, 1.0, 1.0 - t)]  # N(0, 1)
    exact = (cdf[0] - cdf[1]) + (cdf[2] - cdf[3])
    i = 1
    dev = abs(rep.lhs[i] - exact)
    return CheckResult(
        "criterion-6a", "inequality check vs normal-CDF oracle",
        [Gate("deviation", dev, hi=3.0 * rep.lhs_stderr[i])],
        {"mc_lhs": float(rep.lhs[i]), "exact_lhs": exact,
         "deviation_se": float(dev / max(rep.lhs_stderr[i], 1e-300))},
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
    rep = _gaussian_shift_check(scale, seed)
    ref = rep.ratios[int(np.argmax(rep.scale_grid))]
    growth = float(np.max(rep.ratios) / ref)
    gates = [
        Gate("ratios_nonfinite", int(np.count_nonzero(~np.isfinite(rep.ratios))), hi=0),
        Gate("growth", growth, hi=2.0, strict=True),
    ]
    return CheckResult(
        "criterion-6b", "inequality ratio bounded as t shrinks", gates,
        {"ratios": list(map(float, rep.ratios)),
         "max_over_min": rep.max_ratio / rep.min_ratio},
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
    gates = [
        Gate("doubling_violations", doubling_violations, hi=0),
        Gate("scaling_spread", max(ratios) / min(ratios) - 1.0, hi=0.01, strict=True),
    ]
    return CheckResult("criterion-7", "Orlicz toolkit", gates, {"scaling_ratios": ratios},
                       time.time() - t0)


def check_mlmc_correctness(scale: float = 1.0, seed: int = 1000) -> CheckResult:
    """Constant-coefficient MLMC vs Gauss-Hermite truth over 20 replicates."""
    t0 = time.time()
    model = sde.make_model("constant", mu=0.1, sigma=0.2)
    ramp = po.make_payoff("clamp_ramp")
    truth = sde.constant_model_mean(model, ramp)
    eps = 0.005
    reps = _scaled(20, scale, 5)
    errs = []
    for r in range(reps):
        res = mlmc.run_mlmc(model, ramp, eps, M=2, alpha_hint=1.0, seed=seed + r)
        errs.append(res.estimate - truth)
    errs = np.asarray(errs)
    gates = [
        Gate("max_abs_err", float(np.max(np.abs(errs))), hi=3 * eps),
        Gate("replicate_rms", float(np.sqrt(np.mean(errs**2))), hi=1.5 * eps),
    ]
    return CheckResult("criterion-8", "MLMC correctness vs quadrature", gates,
                       {"truth": truth, "replicates": reps}, time.time() - t0)


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
    sw_lip = mlmc.complexity_sweep(model, lipschitz, eps_list, M=4, seed=seed, alpha_hint=1.0)
    sw_ind = mlmc.complexity_sweep(model, indicator, eps_list, M=4, seed=seed + 1,
                                   alpha_hint=1.0, compare_single_level=True)
    single = sw_ind.single_level
    gates = [
        Gate("lipschitz_exponent", sw_lip.fitted_cost_exponent, lo=1.8, hi=2.6),
        Gate("indicator_exponent", sw_ind.fitted_cost_exponent, lo=2.0, hi=3.2),
        # the head-to-head: MLMC costs less than single-level MC, calibration included
        Gate("mlmc_cost", float(sw_ind.costs[0]), hi=single.cost + single.calibration_cost,
             strict=True),
    ]
    return CheckResult("criterion-9", "MLMC complexity", gates,
                       {"indicator_predicted": po.predicted_mlmc_exponent("bv")},
                       time.time() - t0)


def check_density_diagnostics(scale: float = 1.0, seed: int = 6001) -> CheckResult:
    """Gaussian-envelope control fit and uniformity of C+ across step counts."""
    t0 = time.time()
    control = sde.make_model("constant", mu=0.0, sigma=1.0)
    N = _scaled(200_000, scale, 20_000)
    hist = dg.terminal_histogram(control, 16, N, 60, seed, value_range=(-4.0, 4.0))
    env = dg.fit_gaussian_envelope(hist, 0.0, 1.0)

    model = sde.make_model("sincos")
    cs = []
    for n in (16, 64, 256):
        h = dg.terminal_histogram(model, n, _scaled(100_000, scale, 20_000),
                                  60, seed + n, value_range=(-4.0, 5.0))
        cs.append(dg.fit_gaussian_envelope(h, 0.0, 1.0).C_plus)
    gates = [Gate("control_C_plus", env.C_plus, lo=1.0, hi=1.2), spread_gate("uniformity", cs)]
    return CheckResult("criterion-10", "density diagnostics", gates,
                       {"control_c_plus": env.c_plus, "sincos_C_plus": cs}, time.time() - t0)


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


def run_all(scale: float = 1.0) -> list[CheckResult]:
    """Runs every check, printing each line as it ends."""
    results = []
    for check in ACCEPTANCE_CHECKS:
        results.append(check(scale=scale))
        print(results[-1].line(), flush=True)
    return results
