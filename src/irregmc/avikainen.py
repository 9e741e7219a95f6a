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

from .errors import DegenerateCurveError, InvalidArgumentError
from .payoff import Payoff
from .randomkit import StreamTag, derive_seed, increment_batch, stream
from .sde import SdeModel, StepCounter, block_sums, em_terminal_batch
from .stats import Welford, loglog_fit

# Paths per window, read at call time; a multiple of BLOCK_PATHS, so windows
# split no block and the curves do not depend on it.
DEFAULT_BATCH = 4096
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

    def csv_rows(self) -> list[str]:
        rows = ["model,payoff,q,n,value,stderr,N,seed"]
        for n, v, se in zip(self.n, self.value, self.stderr):
            rows.append(
                f"{self.model_name},{self.payoff_name},{float(self.q)!r},{int(n)},"
                f"{float(v)!r},{float(se)!r},{self.N},{self.seed}"
            )
        return rows


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
    different q are bit-identical by construction. Each window's values are
    folded in block by block, so the curves are bit-identical whatever the
    window size.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) == 0:
        raise InvalidArgumentError("n_list must be nonempty")
    for n in n_list:
        if n < 1 or n_ref % n != 0:
            raise InvalidArgumentError(f"each n must divide n_ref; got n={n}, n_ref={n_ref}")
    if N < 1000:
        raise InvalidArgumentError("N must be >= 1000")
    accs = {(i, n): Welford() for i in range(len(targets)) for n in n_list}
    done = 0
    while done < N:
        b = min(DEFAULT_BATCH, N - done)
        inc = increment_batch(seed, model.d, model.T, n_ref, done, b)
        ref = em_terminal_batch(model, inc, counter)
        f_ref = [pay(ref) for pay, _ in targets]
        for n in n_list:
            xn = em_terminal_batch(model, block_sums(inc, n_ref // n), counter)
            for i, (pay, q) in enumerate(targets):
                diff = np.abs(f_ref[i] - pay(xn)) ** q
                accs[(i, n)].update(diff, done)
        del inc  # free this batch before the next one is drawn
        done += b
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


def qerror_curve(
    model: SdeModel, payoff: Payoff, q: float, n_list, N: int, n_ref: int,
    seed: int,
) -> ErrorCurve:
    return qerror_curves(model, [(payoff, q)], n_list, N, n_ref, seed)[0]


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

    def csv_rows(self) -> list[str]:
        rows = ["family,rule,t,lhs,lhs_stderr,rhs_base,ratio"]
        for t, l, se, b, rho in zip(
            self.scale_grid, self.lhs, self.lhs_stderr, self.rhs_base, self.ratios
        ):
            rows.append(
                f"{self.family},{self.rule},{float(t)!r},{float(l)!r},"
                f"{float(se)!r},{float(b)!r},{float(rho)!r}"
            )
        return rows


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
        gap = float(np.mean(np.linalg.norm(x - xhat, axis=-1) ** moment))
        base[i] = gap**outer
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(base > 0, lhs / base, np.inf)
        finite = ratios[np.isfinite(ratios)]
    max_ratio = float(finite.max()) if finite.size else math.inf
    min_ratio = float(finite.min()) if finite.size else math.inf
    return InequalityReport(
        scale_grid=scale_grid, lhs=lhs, lhs_stderr=lhs_se, rhs_base=base,
        ratios=ratios, moment_order=moment, outer_exponent=outer,
        max_ratio=max_ratio, min_ratio=min_ratio, family=family, rule=rule,
    )
