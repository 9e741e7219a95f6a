"""Monte Carlo q-moment error curves, rate regression, and inequality checks.

Curves estimate E|f(X_ref) - f(X^(n))|^q over coupled path pairs sharing one
Brownian path; the reference at n_ref acts as the truth proxy. Inequality
checks estimate the moment-power bounds for closed-form coupled families and
report ratio boundedness rather than constants, which are non-constructive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from .errors import DegenerateCurveError, InvalidArgumentError, NumericFailureError
from .payoff import Payoff, euclidean_norm
from .randomkit import StreamTag, derive_seed, increment_batch, stream
from .sde import SdeModel, StepCounter, path_terminals
from .sde import em_terminal_batch  # benchmarks/tracing.py rebinds it here
from .stats import Welford, loglog_fit

MIN_PATHS = 1000  # fewest paths qerror_curves takes
NOISE_FLOOR_FACTOR = 10.0


@dataclass
class ErrorCurve:
    """Estimated E|f(ref) - f(X^(n))|^q per step count n."""

    n: np.ndarray
    value: np.ndarray
    stderr: np.ndarray
    q: float
    payoff_name: str
    model_name: str
    N: int
    n_ref: int
    seed: int

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=int)
        self.value = np.asarray(self.value, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if np.any(np.diff(self.n) <= 0):
            raise InvalidArgumentError("step counts must be strictly increasing")
        if np.any(self.value < 0) or np.any(self.stderr < 0):
            raise InvalidArgumentError("values and stderrs must be nonnegative")


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    n_used: int
    excluded_n: list = field(default_factory=list)


def qerror_curves(
    model: SdeModel,
    targets: list[tuple[Payoff, float]],
    n_list,
    N: int,
    n_ref: int,
    seed: int,
    counter: StepCounter | None = None,
) -> list[ErrorCurve]:
    """Error curves for several (payoff, q) targets from one coupled sweep.

    All targets share the same reference terminals, so indicator curves for
    different q are bit-identical by construction. The reference path and
    the coarse path of each n are stepped by ``sde.path_terminals`` with the
    coarsening factors n_ref // n, in the windows and time chunks of
    ``randomkit.path_layout``, with each coarse step summed in time order
    even where it straddles chunks. Each window's values are folded in block
    by block, so the curves are bit-identical whatever the window size, chunk
    length or overlap.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) == 0:
        raise InvalidArgumentError("n_list must be nonempty")
    for n in n_list:
        if not 1 <= n < n_ref or n_ref % n:  # at n = n_ref the error reads 0
            raise InvalidArgumentError(f"each n must divide n_ref and be smaller than it; "
                                       f"got n={n}, n_ref={n_ref}")
    if len(set(n_list)) < len(n_list):
        raise InvalidArgumentError(f"n_list must not repeat a step count; got {n_list}")
    if N < MIN_PATHS:
        raise InvalidArgumentError(f"N must be >= {MIN_PATHS}")
    accs = {(i, n): Welford() for i in range(len(targets)) for n in n_list}
    factors = [n_ref // n for n in n_list]
    for first, _, ref, coarse in path_terminals(model, increment_batch, seed, n_ref, 0, N,
                                                factors, counter):
        f_ref = [pay(ref) for pay, _ in targets]
        for n, xn in zip(n_list, coarse):
            for i, (pay, q) in enumerate(targets):
                diff = np.abs(f_ref[i] - pay(xn)) ** q
                accs[(i, n)].update(diff, first)
    curves = []
    for i, (pay, q) in enumerate(targets):
        vals = np.array([accs[(i, n)].mean for n in n_list])
        errs = np.array([accs[(i, n)].stderr for n in n_list])
        curves.append(
            ErrorCurve(
                n=np.array(n_list), value=vals, stderr=errs, q=q,
                payoff_name=pay.name, model_name=model.name,
                N=N, n_ref=n_ref, seed=seed,
            )
        )
    return curves


def fit_rate(curve: ErrorCurve) -> RateFit:
    """OLS slope of log value vs log n, excluding points below the noise floor.

    A point is trusted only when value > 10 * stderr; the exclusions are
    reported. Zero values (exact schemes) make the curve degenerate.
    """
    if curve.n.size < 3:
        raise DegenerateCurveError("need at least 3 curve points")
    # exact zeros, or values at coupling-roundoff scale, mean the scheme is
    # exact for this model and there is no rate to fit
    if np.any(curve.value <= 1e-20):
        raise DegenerateCurveError("curve is zero to roundoff (scheme exact?)")
    trusted = curve.value > NOISE_FLOOR_FACTOR * curve.stderr
    excluded = [int(n) for n in curve.n[~trusted]]
    if np.count_nonzero(trusted) < 2:
        raise DegenerateCurveError(
            f"only {np.count_nonzero(trusted)} points above the noise floor"
        )
    fit = loglog_fit(curve.n[trusted], curve.value[trusted])
    return RateFit(
        slope=fit.slope, intercept=fit.intercept, r_squared=fit.r_squared,
        slope_stderr=fit.slope_stderr, n_used=fit.n_points, excluded_n=excluded,
    )


# ---------------------------------------------------------------------------
# Inequality checks on closed-form coupled families
# ---------------------------------------------------------------------------


def _gaussian_shift(gen: Generator, N: int, t: float):
    x = gen.standard_normal((N, 1))
    return x, x + t


def _gaussian_scale(gen: Generator, N: int, t: float):
    x = gen.standard_normal((N, 1))
    return x, (1.0 + t) * x


PAIR_FAMILIES = {
    "gaussian_shift": _gaussian_shift,
    "gaussian_scale": _gaussian_scale,
}


def exponent_rule(rule: str, p: float, q: float, r: float = math.inf,
                  s: float | None = None) -> tuple[float, float]:
    """(moment order, outer exponent) of the bound base for a function-space rule.

    bv: E|X-Xhat|^p to the (1-q/r)/(p+1). sobolev: E|X-Xhat|^q to the
    p(1-q/r)/(q+p(1-q/r)). fractional: E|X-Xhat|^{qs} to the same outer power.
    """
    frac = 1.0 if math.isinf(r) else 1.0 - q / r
    if frac <= 0:
        raise InvalidArgumentError("need q < r")
    if rule == "bv":
        return p, frac / (p + 1.0)
    if rule == "sobolev":
        return q, p * frac / (q + p * frac)
    if rule == "fractional":
        if s is None or not 0 < s < 1:
            raise InvalidArgumentError("fractional rule needs s in (0,1)")
        return q * s, p * frac / (q + p * frac)
    raise InvalidArgumentError(f"unknown exponent rule {rule!r}")


@dataclass
class InequalityReport:
    scale_grid: np.ndarray
    lhs: np.ndarray
    lhs_stderr: np.ndarray
    rhs_base: np.ndarray
    ratios: np.ndarray
    moment_order: float
    outer_exponent: float
    max_ratio: float
    min_ratio: float
    family: str
    rule: str


def inequality_check(
    family: str,
    payoff: Payoff,
    p: float,
    q: float,
    rule: str,
    scale_grid,
    N: int,
    seed: int,
    r: float = math.inf,
    s: float | None = None,
) -> InequalityReport:
    """Estimate LHS and the rule's moment-power base per perturbation scale.

    The testable content is boundedness of LHS / base as t decreases; the
    constants themselves are existence-level and never asserted.
    """
    if family not in PAIR_FAMILIES:
        raise InvalidArgumentError(
            f"unknown pair family {family!r}; have {sorted(PAIR_FAMILIES)}"
        )
    sampler = PAIR_FAMILIES[family]
    moment, outer = exponent_rule(rule, p, q, r, s)
    scale_grid = np.asarray(scale_grid, dtype=float)
    lhs = np.empty_like(scale_grid)
    lhs_se = np.empty_like(scale_grid)
    base = np.empty_like(scale_grid)
    for i, t in enumerate(scale_grid):
        gen = stream(derive_seed(seed, i), 0, StreamTag.AUXILIARY)
        x, xhat = sampler(gen, N, float(t))
        acc = Welford()
        acc.update(np.abs(payoff(x) - payoff(xhat)) ** q, 0)
        lhs[i] = acc.mean
        lhs_se[i] = acc.stderr
        gaps = euclidean_norm(x - xhat)
        with np.errstate(over="ignore"):  # an overflow is redone below
            gap = float(np.mean(gaps**moment))
        base[i] = gap**outer
        if np.isinf(base[i]) and np.isfinite(gaps).all():
            # the moment passes the largest float: take it relative to the largest gap
            top = gaps.max()
            with np.errstate(over="ignore"):  # a base past the largest float is inf
                base[i] = top ** (moment * outer) * np.mean((gaps / top) ** moment) ** outer
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(base > 0, lhs / base, np.inf)
        finite = ratios[np.isfinite(ratios)]
    if not finite.size:
        raise NumericFailureError(
            f"the bound base leaves no finite ratio: at moment order {moment:g} it "
            f"underflows to 0 at every scale of {scale_grid.tolist()}")
    return InequalityReport(
        scale_grid=scale_grid, lhs=lhs, lhs_stderr=lhs_se, rhs_base=base,
        ratios=ratios, moment_order=moment, outer_exponent=outer,
        max_ratio=float(finite.max()), min_ratio=float(finite.min()), family=family, rule=rule,
    )
