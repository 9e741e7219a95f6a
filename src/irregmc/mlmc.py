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
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCurveError, InvalidArgumentError, NonconvergenceError
from .payoff import Payoff
from .randomkit import derive_seed, increment_batch, path_windows
from .sde import SdeModel, StepCounter, coupled_terminal_batch, em_terminal_batch
from .stats import LineFit, Welford, loglog_fit

DEFAULT_PILOT = 1000
DEFAULT_MAX_LEVEL = 12
DEFAULT_MAX_ROUNDS = 5
DEFAULT_BATCH = 65536  # window budget in normals, read at call time


@dataclass
class LevelStats:
    level: int
    h: float
    M: int
    N: int
    mean: float
    variance: float
    cost: float  # EM steps: N * (M^l + M^(l-1)), N * 1 at level 0

    def csv_row(self) -> str:
        return (
            f"{self.level},{float(self.h)!r},{self.M},{self.N},"
            f"{float(self.mean)!r},{float(self.variance)!r},{float(self.cost)!r}"
        )


LEVEL_CSV_HEADER = "level,h,M,N,mean,variance,cost"


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

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "epsilon": self.epsilon,
            "total_cost": self.total_cost,
            "bias_estimate": self.bias_estimate,
            "variance_estimate": self.variance_estimate,
            "alpha_used": self.alpha_used,
            "alpha_hat": self.alpha_hat,
            "beta_hat": self.beta_hat,
            "alpha_beta_flag": self.alpha_beta_flag,
            "levels": [
                {
                    "level": ls.level, "h": ls.h, "M": ls.M, "N": ls.N,
                    "mean": ls.mean, "variance": ls.variance, "cost": ls.cost,
                }
                for ls in self.levels
            ],
        }


class _LevelAccumulator:
    """Welford accumulator plus the path-index cursor for one level."""

    def __init__(self, level: int, M: int, T: float, seed: int):
        self.level = level
        self.M = M
        self.n_fine = M**level
        self.h = T / self.n_fine
        self.seed = derive_seed(seed, level)
        self.acc = Welford()

    @property
    def count(self) -> int:
        return self.acc.count

    def steps_per_sample(self) -> int:
        if self.level == 0:
            return 1
        return self.n_fine + self.n_fine // self.M


def _sample_level(
    model: SdeModel,
    payoff: Payoff,
    state: _LevelAccumulator,
    n_new: int,
    counter: StepCounter,
) -> None:
    """Add n_new paths to the level, folded into its statistics block by block."""
    for first, b in path_windows(state.count, n_new, state.n_fine * model.d, DEFAULT_BATCH):
        inc = increment_batch(state.seed, model.d, model.T, state.n_fine, first, b)
        if state.level == 0:
            x = em_terminal_batch(model, inc, counter)
            vals = payoff(x)
        else:
            fine, coarse = coupled_terminal_batch(model, inc, state.M, counter)
            vals = payoff(fine) - payoff(coarse)
        del inc  # free this batch before the next one is drawn
        state.acc.update(vals, first)


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
    counter = counter or StepCounter()
    state = _LevelAccumulator(level, M, model.T, seed)
    _sample_level(model, payoff, state, N, counter)
    return LevelStats(
        level=level, h=state.h, M=M, N=N,
        mean=state.acc.mean, variance=state.acc.variance,
        cost=float(N * state.steps_per_sample()),
    )


def allocate_samples(variances, hs, epsilon) -> np.ndarray:
    """N_ell = ceil(2 eps^-2 sqrt(V_ell h_ell) sum_j sqrt(V_j / h_j))."""
    variances = np.asarray(variances, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    weight = float(np.sum(np.sqrt(variances / hs)))
    return np.ceil(2.0 * epsilon**-2 * np.sqrt(variances * hs) * weight).astype(int)


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


def _bias_estimate(states: list[_LevelAccumulator], M: int, alpha: float) -> float:
    """Richardson-extrapolated remaining-bias estimate from the top two levels."""
    factor = M**alpha - 1.0
    L = states[-1].level
    terms = []
    for st in states[-2:]:
        if st.level == 0:
            continue
        terms.append(abs(st.acc.mean) / M ** (alpha * (L - st.level)))
    if not terms:
        return 0.0
    return max(terms) / factor


def run_mlmc(
    model: SdeModel,
    payoff: Payoff,
    epsilon: float,
    M: int = 2,
    alpha_hint: float | None = 1.0,
    seed: int = 0,
    n_pilot: int = DEFAULT_PILOT,
    max_level: int = DEFAULT_MAX_LEVEL,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    min_levels: int = 1,
) -> MlmcResult:
    """Adaptive MLMC driver targeting RMS error epsilon.

    Grows L until the bias test passes, re-allocating samples after each
    variance update (at most max_rounds top-up rounds per level set); raises
    NonconvergenceError with diagnostics when L exceeds max_level.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError("epsilon must lie in (0, 1)")
    if M not in (2, 4):
        raise InvalidArgumentError("refinement M must be 2 or 4")
    counter = StepCounter()
    states = [_LevelAccumulator(l, M, model.T, seed) for l in range(min_levels + 1)]
    for st in states:
        _sample_level(model, payoff, st, n_pilot, counter)

    alpha_est = None
    beta_est = None
    while True:
        for _ in range(max_rounds):
            variances = np.array([st.acc.variance for st in states])
            hs = np.array([st.h for st in states])
            targets = allocate_samples(variances, hs, epsilon)
            grew = False
            for st, target in zip(states, targets):
                extra = int(target) - st.count
                if extra > 0:
                    _sample_level(model, payoff, st, extra, counter)
                    grew = True
            if not grew:
                break
        try:
            alpha_fit, beta_fit, _ = estimate_alpha_beta(
                [LevelStats(st.level, st.h, M, st.count, st.acc.mean,
                            st.acc.variance, 0.0) for st in states]
            )
            alpha_est, beta_est = alpha_fit.slope, beta_fit.slope
        except DegenerateCurveError:
            pass
        alpha = alpha_hint if alpha_hint is not None else (alpha_est or 1.0)
        bias = _bias_estimate(states, M, alpha)
        if bias <= epsilon / math.sqrt(2.0):
            break
        if states[-1].level >= max_level:
            raise NonconvergenceError(
                f"bias test unmet at level cap {max_level}",
                diagnostics={
                    "levels": [st.level for st in states],
                    "means": [st.acc.mean for st in states],
                    "variances": [st.acc.variance for st in states],
                    "bias_estimate": bias,
                    "epsilon": epsilon,
                },
            )
        new_state = _LevelAccumulator(states[-1].level + 1, M, model.T, seed)
        _sample_level(model, payoff, new_state, n_pilot, counter)
        states.append(new_state)

    levels = [
        LevelStats(
            level=st.level, h=st.h, M=M, N=st.count,
            mean=st.acc.mean, variance=st.acc.variance,
            cost=float(st.count * st.steps_per_sample()),
        )
        for st in states
    ]
    estimate = float(sum(ls.mean for ls in levels))
    variance_estimate = float(sum(ls.variance / ls.N for ls in levels))
    alpha = alpha_hint if alpha_hint is not None else (alpha_est or 1.0)
    flag = not (
        alpha_est is not None and beta_est is not None and alpha_est >= beta_est / 2.0
    )
    return MlmcResult(
        estimate=estimate, levels=levels, epsilon=epsilon,
        total_cost=float(counter.steps),
        bias_estimate=_bias_estimate(states, M, alpha),
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
    n_pilot: int = DEFAULT_PILOT,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> SingleLevelResult:
    """Plain Monte Carlo at the coarsest n = M^L passing the same bias test."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError("epsilon must lie in (0, 1)")
    calib = StepCounter()
    states = [_LevelAccumulator(l, M, model.T, derive_seed(seed, 0xB1A5))
              for l in range(3)]
    for st in states:
        _sample_level(model, payoff, st, n_pilot, calib)
    alpha = alpha_hint if alpha_hint is not None else 1.0
    while _bias_estimate(states, M, alpha) > epsilon / math.sqrt(2.0):
        if states[-1].level >= max_level:
            raise NonconvergenceError(
                "single-level bias test unmet at level cap",
                diagnostics={"levels": [st.level for st in states]},
            )
        st = _LevelAccumulator(states[-1].level + 1, M, model.T,
                               derive_seed(seed, 0xB1A5))
        _sample_level(model, payoff, st, n_pilot, calib)
        states.append(st)
    n_steps = states[-1].n_fine

    # pilot the payoff variance at the chosen resolution, then size N
    pilot_seed = derive_seed(seed, 0x51E6)
    pilot = Welford()
    inc = increment_batch(pilot_seed, model.d, model.T, n_steps, 0, n_pilot)
    pilot.update(payoff(em_terminal_batch(model, inc, calib)), 0)
    N = max(2, int(math.ceil(2.0 * pilot.variance / epsilon**2)))

    counter = StepCounter()
    acc = Welford()
    run_seed = derive_seed(seed, 0xF1A7)
    for first, b in path_windows(0, N, n_steps * model.d, DEFAULT_BATCH):
        inc = increment_batch(run_seed, model.d, model.T, n_steps, first, b)
        acc.update(payoff(em_terminal_batch(model, inc, counter)), first)
        del inc  # free this batch before the next one is drawn
    return SingleLevelResult(
        estimate=acc.mean, n_steps=n_steps, N=N,
        cost=float(counter.steps), calibration_cost=float(calib.steps),
    )


@dataclass
class ComplexitySweep:
    epsilons: np.ndarray
    costs: np.ndarray
    estimates: np.ndarray
    fitted_cost_exponent: float
    fit: LineFit
    predicted_exponent: float | None
    standard_mc_exponent: float
    results: list[MlmcResult] = field(default_factory=list)
    failed_epsilons: list[float] = field(default_factory=list)
    single_level: SingleLevelResult | None = None

    def csv_rows(self) -> list[str]:
        rows = ["epsilon,estimate,total_cost"]
        for eps, est, cost in zip(self.epsilons, self.estimates, self.costs):
            rows.append(f"{float(eps)!r},{float(est)!r},{float(cost)!r}")
        return rows


def complexity_sweep(
    model: SdeModel,
    payoff: Payoff,
    epsilon_list,
    M: int = 2,
    seed: int = 0,
    alpha_hint: float | None = 1.0,
    predicted_exponent: float | None = None,
    compare_single_level: bool = False,
    **mlmc_kwargs,
) -> ComplexitySweep:
    """Cost-vs-accuracy sweep; fits log cost against log eps.

    The fitted exponent is compared against the class prediction and against
    the standard-MC exponent 2 + 1/alpha. Nonconvergent runs are dropped and
    flagged rather than aborting the sweep.
    """
    epsilon_list = sorted(float(e) for e in epsilon_list)
    if len(epsilon_list) < 3:
        raise InvalidArgumentError("need >= 3 epsilons")
    if max(epsilon_list) < 4.0 * min(epsilon_list):
        raise InvalidArgumentError("epsilons must span at least a 4x range")
    results, costs, ests, eps_ok, failed = [], [], [], [], []
    for i, eps in enumerate(epsilon_list):
        try:
            res = run_mlmc(model, payoff, eps, M=M, alpha_hint=alpha_hint,
                           seed=derive_seed(seed, i), **mlmc_kwargs)
        except NonconvergenceError:
            failed.append(eps)
            continue
        results.append(res)
        costs.append(res.total_cost)
        ests.append(res.estimate)
        eps_ok.append(eps)
    if len(eps_ok) < 2:
        raise NonconvergenceError(
            "too few convergent runs for a cost fit",
            diagnostics={"failed_epsilons": failed},
        )
    fit = loglog_fit(np.array(eps_ok), np.array(costs))
    alpha = alpha_hint if alpha_hint is not None else 1.0
    single = None
    if compare_single_level:
        single = single_level_run(
            model, payoff, min(eps_ok), M=M, alpha_hint=alpha_hint,
            seed=derive_seed(seed, 0xCAFE),
        )
    return ComplexitySweep(
        epsilons=np.array(eps_ok), costs=np.array(costs),
        estimates=np.array(ests),
        fitted_cost_exponent=-fit.slope, fit=fit,
        predicted_exponent=predicted_exponent,
        standard_mc_exponent=2.0 + 1.0 / alpha,
        results=results, failed_epsilons=failed, single_level=single,
    )
