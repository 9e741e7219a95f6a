"""Multilevel Monte Carlo estimator with adaptive level and sample allocation.

Level ell uses time step h_ell = T / M^ell; the level-ell summand is
f(fine) - f(coarse) from paths coupled through shared Brownian increments
(level 0 is the plain single-step estimator). Samples are allocated
proportionally to sqrt(V_ell h_ell), which minimizes cost at a fixed variance
budget of eps^2/2; the remaining eps^2/2 is the squared-bias budget, tested
with the Richardson-style factor (M^alpha - 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateCurveError, InvalidArgumentError, NonconvergenceError,
                     NumericFailureError)
from .payoff import Payoff
from .randomkit import derive_seed, increment_batch
from .sde import SdeModel, StepCounter, path_terminals
from .sde import coupled_terminal_batch, em_terminal_batch  # benchmarks/tracing.py rebinds these
from .stats import LineFit, Welford, loglog_fit

DEFAULT_PILOT = 1000
DEFAULT_MAX_LEVEL = 12
DEFAULT_MAX_ROUNDS = 5
REFINEMENTS = (2, 4)  # the refinement factors M the drivers take
MIN_EPSILON = 1e-6  # smallest RMS target; keeps the eps**-2 sample counts far inside int64
MIN_EPSILONS = 3  # fewest epsilons complexity_sweep takes
MIN_EPSILON_SPAN = 4.0  # least max/min ratio of those epsilons


@dataclass
class LevelStats:
    level: int
    h: float
    M: int
    N: int
    mean: float
    variance: float
    cost: float  # EM steps: N * (M^l + M^(l-1)), N * 1 at level 0


@dataclass
class MlmcResult:
    estimate: float
    levels: list[LevelStats]
    epsilon: float
    total_cost: float
    bias_estimate: float
    variance_estimate: float
    alpha_used: float
    alpha_hat: float | None
    beta_hat: float | None
    alpha_beta_flag: bool  # True when alpha >= beta/2 could not be confirmed


class _Level:
    """One level of the ladder: the statistics of its summand, f(fine) -
    f(coarse), or f(fine) at level 0, over the paths it has folded in."""

    def __init__(self, model: SdeModel, payoff: Payoff, level: int, M: int, seed: int,
                 counter: StepCounter | None):
        self.model = model
        self.payoff = payoff
        self.counter = counter
        self.level = level
        self.M = M
        self.seed = seed
        self.n_fine = M**level
        self.h = model.T / self.n_fine
        self.acc = Welford()

    def sample(self, n_new: int) -> "_Level":
        """Fold the next n_new paths into the statistics, block by block."""
        _fold(self.model, self.payoff, self.acc, derive_seed(self.seed, self.level),
              self.n_fine, (self.M,) if self.level else (), n_new, self.counter)
        return self

    def steps_per_sample(self) -> int:
        if self.level == 0:
            return 1
        return self.n_fine + self.n_fine // self.M

    def stats(self) -> LevelStats:
        return LevelStats(
            level=self.level, h=self.h, M=self.M, N=self.acc.count,
            mean=self.acc.mean, variance=self.acc.variance,
            cost=float(self.acc.count * self.steps_per_sample()),
        )

    def successor(self, n_pilot: int) -> "_Level":
        """The next finer level, piloted with n_pilot paths."""
        return _Level(self.model, self.payoff, self.level + 1, self.M, self.seed,
                      self.counter).sample(n_pilot)


def _fold(model: SdeModel, payoff: Payoff, acc: Welford, seed: int, n_fine: int, factors,
          n_new: int, counter: StepCounter | None) -> Welford:
    """Fold payoff(fine) - payoff(coarse), or payoff(fine) when no factor is
    named, of the next n_new paths into acc, block by block."""
    for first, _, fine, coarse in path_terminals(model, increment_batch, seed, n_fine,
                                                 acc.count, n_new, factors, counter):
        acc.update(payoff(fine) - payoff(coarse[0]) if coarse else payoff(fine), first)
    return acc


def level_sample(
    model: SdeModel, payoff: Payoff, level: int, M: int, N: int, seed: int,
    counter: StepCounter | None = None,
) -> LevelStats:
    """Mean/variance of the level-ell summand over N coupled samples."""
    if level < 0:
        raise InvalidArgumentError("level must be nonnegative")
    if M < 2:
        raise InvalidArgumentError("refinement M must be >= 2")
    if N < 2:
        raise InvalidArgumentError("need N >= 2 samples (variance undefined)")
    return _Level(model, payoff, level, M, seed, counter).sample(N).stats()


def allocate_samples(variances, hs, epsilon) -> np.ndarray:
    """N_ell = ceil(2 eps^-2 sqrt(V_ell h_ell) sum_j sqrt(V_j / h_j))."""
    variances = np.asarray(variances, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # _check_counts reports these
        weight = float(np.sum(np.sqrt(variances / hs)))
        counts = np.ceil(2.0 * epsilon**-2 * np.sqrt(variances * hs) * weight)
    _check_counts(counts, variances)
    return counts.astype(int)


def _check_counts(counts, variances) -> None:
    """Raise NumericFailureError unless every count fits int64; a NaN or
    overflowing variance would cast to a garbage count."""
    if not np.all(np.asarray(counts) < 2.0**63):  # False for NaN too
        raise NumericFailureError(
            f"variances {np.asarray(variances).tolist()} give no int64 sample counts")


def estimate_alpha_beta(levels: list[LevelStats]) -> tuple[LineFit, LineFit, list[int]]:
    """Regress log|mean| and log variance against log h over levels ell >= 1.

    Level 0 is the plain estimator, not a difference, and is always excluded.
    Returns (alpha fit, beta fit, excluded level indices).
    """
    usable = [ls for ls in levels if ls.level >= 1 and abs(ls.mean) > 0 and ls.variance > 0]
    excluded = [ls.level for ls in levels
                if ls.level >= 1 and (ls.mean == 0 or ls.variance == 0)]
    if len(usable) < 3:
        raise DegenerateCurveError(
            f"need >= 3 usable levels for alpha/beta fits, have {len(usable)}"
        )
    hs = np.array([ls.h for ls in usable])
    means = np.array([abs(ls.mean) for ls in usable])
    variances = np.array([ls.variance for ls in usable])
    alpha_fit = loglog_fit(hs, means)
    beta_fit = loglog_fit(hs, variances)
    return alpha_fit, beta_fit, excluded


def _bias_estimate(ladder: list[_Level], M: int, alpha: float) -> float:
    """Richardson-extrapolated remaining-bias estimate from the top two levels."""
    factor = M**alpha - 1.0
    L = ladder[-1].level
    terms = []
    for lv in ladder[-2:]:
        if lv.level == 0:
            continue
        terms.append(abs(lv.acc.mean) / M ** (alpha * (L - lv.level)))
    if not terms:
        return 0.0
    return max(terms) / factor


def _cost(ladder: list[_Level]) -> float:
    """EM steps of the samples the levels hold."""
    return float(sum(lv.acc.count * lv.steps_per_sample() for lv in ladder))


def _climb(ladder: list[_Level], n_pilot: int, bias: float, epsilon: float,
           message: str) -> None:
    """Append the next level, piloted with n_pilot paths; at the level cap
    DEFAULT_MAX_LEVEL, read at call time, raise NonconvergenceError with the
    ladder's diagnostics instead. ``message`` may name the cap as ``{cap}``."""
    if ladder[-1].level >= DEFAULT_MAX_LEVEL:
        raise NonconvergenceError(message.format(cap=DEFAULT_MAX_LEVEL), diagnostics={
            "levels": [lv.level for lv in ladder],
            "samples": [lv.acc.count for lv in ladder],
            "means": [lv.acc.mean for lv in ladder],
            "variances": [lv.acc.variance for lv in ladder],
            "bias_estimate": bias,
            "epsilon": epsilon,
            "total_cost": _cost(ladder),
        })
    ladder.append(ladder[-1].successor(n_pilot))


def check_alpha_hint(alpha_hint: float | None, M: int) -> None:
    """Raise InvalidArgumentError unless alpha_hint is None or makes the bias
    test's divisor M**alpha_hint - 1 a positive finite float."""
    if alpha_hint is not None and not (
            0 < alpha_hint * math.log2(M) < sys.float_info.max_exp - 1
            and M**alpha_hint > 1.0):
        raise InvalidArgumentError(f"alpha_hint must make M**alpha_hint - 1 a positive "
                                   f"finite float, or be None; got {alpha_hint} at M={M}")


def _check_target(epsilon: float, M: int, alpha_hint: float | None) -> None:
    if not MIN_EPSILON <= epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must lie in [{MIN_EPSILON:g}, 1), got {epsilon}")
    if M not in REFINEMENTS:
        raise InvalidArgumentError(f"refinement M must be one of {REFINEMENTS}, got {M}")
    check_alpha_hint(alpha_hint, M)


def run_mlmc(
    model: SdeModel,
    payoff: Payoff,
    epsilon: float,
    M: int = 2,
    alpha_hint: float | None = 1.0,
    seed: int = 0,
    n_pilot: int = DEFAULT_PILOT,
    counter: StepCounter | None = None,
) -> MlmcResult:
    """Adaptive MLMC driver targeting RMS error epsilon.

    Starts from levels 0 and 1 and grows L until the bias test passes,
    re-allocating samples after each variance update (at most
    DEFAULT_MAX_ROUNDS top-up rounds per level set); raises
    NonconvergenceError with diagnostics, among them the EM steps of the
    samples taken (``total_cost``), when L would pass DEFAULT_MAX_LEVEL, read
    at call time. ``counter`` counts every step actually taken, also by a
    call that raises.
    """
    _check_target(epsilon, M, alpha_hint)
    ladder = [_Level(model, payoff, l, M, seed, counter).sample(n_pilot) for l in range(2)]

    alpha_est = None
    beta_est = None
    while True:
        for _ in range(DEFAULT_MAX_ROUNDS):
            variances = np.array([lv.acc.variance for lv in ladder])
            hs = np.array([lv.h for lv in ladder])
            targets = allocate_samples(variances, hs, epsilon)
            grew = False
            for lv, target in zip(ladder, targets):
                extra = int(target) - lv.acc.count
                if extra > 0:
                    lv.sample(extra)
                    grew = True
            if not grew:
                break
        try:
            alpha_fit, beta_fit, _ = estimate_alpha_beta([lv.stats() for lv in ladder])
            alpha_est, beta_est = alpha_fit.slope, beta_fit.slope
        except DegenerateCurveError:
            pass
        alpha = alpha_hint if alpha_hint is not None else (alpha_est or 1.0)
        bias = _bias_estimate(ladder, M, alpha)
        if bias <= epsilon / math.sqrt(2.0):
            break
        _climb(ladder, n_pilot, bias, epsilon, "bias test unmet at level cap {cap}")

    levels = [lv.stats() for lv in ladder]
    estimate = float(sum(ls.mean for ls in levels))
    variance_estimate = float(sum(ls.variance / ls.N for ls in levels))
    flag = not (
        alpha_est is not None and beta_est is not None and alpha_est >= beta_est / 2.0
    )
    return MlmcResult(
        estimate=estimate, levels=levels, epsilon=epsilon,
        total_cost=_cost(ladder),
        bias_estimate=bias,
        variance_estimate=variance_estimate,
        alpha_used=alpha, alpha_hat=alpha_est, beta_hat=beta_est,
        alpha_beta_flag=flag,
    )


# ---------------------------------------------------------------------------
# Single-level baseline and complexity sweeps
# ---------------------------------------------------------------------------


@dataclass
class SingleLevelResult:
    estimate: float
    n_steps: int
    N: int
    cost: float          # estimator cost N * n_steps
    calibration_cost: float  # extra steps spent choosing n and the variance


def single_level_run(
    model: SdeModel,
    payoff: Payoff,
    epsilon: float,
    M: int = 2,
    alpha_hint: float | None = 1.0,
    seed: int = 0,
    counter: StepCounter | None = None,
) -> SingleLevelResult:
    """Plain Monte Carlo at the coarsest n = M^L passing the same bias test.

    The levels are climbed as in ``run_mlmc``, to the same cap.
    ``counter`` counts every step taken, the calibration's included, also by
    a call that raises.
    """
    _check_target(epsilon, M, alpha_hint)
    ladder = [_Level(model, payoff, l, M, derive_seed(seed, 0xB1A5), counter)
              .sample(DEFAULT_PILOT) for l in range(3)]
    alpha = alpha_hint if alpha_hint is not None else 1.0
    while (bias := _bias_estimate(ladder, M, alpha)) > epsilon / math.sqrt(2.0):
        _climb(ladder, DEFAULT_PILOT, bias, epsilon, "single-level bias test unmet at level cap")
    n_steps = ladder[-1].n_fine

    # pilot the payoff variance at the chosen resolution, then size N
    pilot = _fold(model, payoff, Welford(), derive_seed(seed, 0x51E6), n_steps, (),
                  DEFAULT_PILOT, counter)
    size = 2.0 * pilot.variance / epsilon**2
    _check_counts(size, [pilot.variance])
    N = max(2, int(math.ceil(size)))

    acc = _fold(model, payoff, Welford(), derive_seed(seed, 0xF1A7), n_steps, (), N, counter)
    return SingleLevelResult(
        estimate=acc.mean, n_steps=n_steps, N=N, cost=float(N * n_steps),
        calibration_cost=_cost(ladder) + float(DEFAULT_PILOT * n_steps),
    )


@dataclass
class ComplexitySweep:
    epsilons: np.ndarray
    costs: np.ndarray
    estimates: np.ndarray
    fitted_cost_exponent: float
    fit: LineFit
    standard_mc_exponent: float
    failed_epsilons: list[float] = field(default_factory=list)
    single_level: SingleLevelResult | None = None


def complexity_sweep(
    model: SdeModel,
    payoff: Payoff,
    epsilon_list,
    M: int = 2,
    seed: int = 0,
    alpha_hint: float | None = 1.0,
    compare_single_level: bool = False,
    counter: StepCounter | None = None,
) -> ComplexitySweep:
    """Cost-vs-accuracy sweep; fits log cost against log eps.

    The caller compares the fitted exponent with its class prediction and
    with the standard-MC exponent 2 + 1/alpha. Every epsilon is checked
    before the first run. Nonconvergent runs are dropped and flagged rather
    than aborting the sweep. ``counter`` counts every step the sweep takes,
    those of failed runs included, also when it raises.
    """
    epsilon_list = sorted(float(e) for e in epsilon_list)
    if len(epsilon_list) < MIN_EPSILONS:
        raise InvalidArgumentError(f"need >= {MIN_EPSILONS} epsilons")
    if max(epsilon_list) < MIN_EPSILON_SPAN * min(epsilon_list):
        raise InvalidArgumentError(f"epsilons must span at least a {MIN_EPSILON_SPAN:g}x range")
    for eps in epsilon_list:
        _check_target(eps, M, alpha_hint)
    costs, ests, eps_ok, failed = [], [], [], []
    for i, eps in enumerate(epsilon_list):
        try:
            res = run_mlmc(model, payoff, eps, M=M, alpha_hint=alpha_hint,
                           seed=derive_seed(seed, i), counter=counter)
        except NonconvergenceError:
            failed.append(eps)
            continue
        costs.append(res.total_cost)
        ests.append(res.estimate)
        eps_ok.append(eps)
    if len(eps_ok) < 2:
        raise NonconvergenceError("too few convergent runs for a cost fit",
                                  diagnostics={"failed_epsilons": failed})
    fit = loglog_fit(np.array(eps_ok), np.array(costs))
    alpha = alpha_hint if alpha_hint is not None else 1.0
    single = None
    if compare_single_level:
        single = single_level_run(model, payoff, min(eps_ok), M=M, alpha_hint=alpha_hint,
                                  seed=derive_seed(seed, 0xCAFE), counter=counter)
    return ComplexitySweep(
        epsilons=np.array(eps_ok), costs=np.array(costs),
        estimates=np.array(ests),
        fitted_cost_exponent=-fit.slope, fit=fit,
        standard_mc_exponent=2.0 + 1.0 / alpha,
        failed_epsilons=failed, single_level=single,
    )
