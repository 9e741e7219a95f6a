"""Irregular payoff library, Young-function toolkit, and rate predictions.

Indicator payoffs use open sets (boundary excluded); boundary points carry
probability zero under the absolutely continuous laws simulated here, so the
convention only pins down determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


# ---------------------------------------------------------------------------
# Young functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YoungFunction:
    """Convex Phi with Phi(0)=0; built-ins are the power and power-log families."""

    name: str
    phi: Callable
    p: float
    alpha: float = 0.0


def young_power(p: float) -> YoungFunction:
    """Phi(x) = x^p / p; the Orlicz space is classical L^p."""
    if p <= 1:
        raise InvalidArgumentError("power family needs p > 1")

    def phi(x):
        return np.power(x, p) / p

    return YoungFunction(name=f"power(p={p:g})", phi=phi, p=p)


def young_plog(p: float, alpha: float = 1.0) -> YoungFunction:
    """Phi(x) = x^p (log(e + x))^alpha; Delta_2 holds for Phi and its conjugate."""
    if not (p > 1 and alpha > 0) and not (-1 <= alpha < 0 and p > 1 - alpha):
        raise InvalidArgumentError("need p > 1, alpha > 0 (or p > 1-alpha, -1 <= alpha < 0)")

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, p) * np.power(np.log(np.e + x), alpha)

    return YoungFunction(name=f"plog(p={p:g},alpha={alpha:g})", phi=phi, p=p, alpha=alpha)


def _bracket_max(f, lo: float, hi: float) -> tuple[float, float]:
    """(argmax, max) of a unimodal vectorised f on [lo, hi], to a few ulps."""
    while True:
        t = np.linspace(lo, hi, 33)
        v = f(t)
        i = int(np.argmax(v))
        a, b = t[max(i - 1, 0)], t[min(i + 1, 32)]
        if b - a >= hi - lo:
            return float(t[i]), float(v[i])
        lo, hi = a, b


def young_complement(young: YoungFunction, x: float) -> float:
    """Conjugate Psi(x) = sup_{y >= 0} (x*y - Phi(y)).

    Closed form for the power family. Otherwise y_max doubles from 1 until the
    concave gain falls from y_max/2 to y_max. 33-point scans of [0, y_max] then
    keep the two cells around the best until the bracket stops shrinking.
    """
    if x < 0:
        raise InvalidArgumentError("conjugate argument must be nonnegative")
    if x == 0.0:
        return 0.0
    if young.name.startswith("power"):
        p = young.p
        p_star = p / (p - 1.0)
        return x**p_star / p_star

    def gain(y):
        return x * y - young.phi(y)

    y_max = 1.0
    for _ in range(200):
        if gain(y_max) < gain(0.5 * y_max):
            return max(0.0, _bracket_max(gain, 0.0, y_max)[1])
        y_max *= 2.0
    raise NumericFailureError("conjugate maximizer escaped the search interval")


def young_inverse(young: YoungFunction, x: float) -> float:
    """Generalized inverse inf{y >= 0 : Phi(y) > x} via bisection (rel tol 1e-10)."""
    if x < 0:
        raise InvalidArgumentError("inverse argument must be nonnegative")
    if x == 0.0:
        return 0.0
    hi = 1.0
    for _ in range(400):
        if float(young.phi(hi)) > x:
            break
        hi *= 2.0
    else:
        raise NumericFailureError("Phi never exceeded target; not superlinear?")
    lo = 0.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if float(young.phi(mid)) > x:
            hi = mid
        else:
            lo = mid
    return hi


def orlicz_bound_minimize(
    q: float, r: float, E: float, young: YoungFunction
) -> tuple[float, float]:
    """Minimize lam^{-(1 - q/r)} + Phi^{-1}(lam)^q * E over lam > 0.

    r = inf supported (use math.inf); returns (bound, minimizer), found in log lam
    on [1e-12, 1e12] by the refinement rule of ``young_complement``.
    """
    if E <= 0:
        raise InvalidArgumentError("moment value E must be positive")
    if q <= 0:
        raise InvalidArgumentError("q must be positive")
    expo = 1.0 if math.isinf(r) else 1.0 - q / r
    if expo <= 0:
        raise InvalidArgumentError("need q < r")

    def neg_objective(u):
        return np.array([-(lam ** (-expo) + young_inverse(young, lam) ** q * E)
                         for lam in np.exp(u)])

    u_star, neg_bound = _bracket_max(neg_objective, math.log(1e-12), math.log(1e12))
    return -neg_bound, math.exp(u_star)


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Payoff:
    """Evaluatable functional with function-space classification and metadata.

    ``fn`` maps arrays of shape (..., d) to shape (...). A payoff of the first
    coordinate has d = None and takes points of any dimension.
    """

    name: str
    fn: Callable
    space: str
    sup_norm: float
    p: float | None = None
    s: float | None = None
    d: int | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.d is not None and x.shape[-1:] != (self.d,):
            raise InvalidArgumentError(f"{self.name} takes points in d={self.d}, got {x.shape}")
        return self.fn(x)


def _x1(x: np.ndarray) -> np.ndarray:
    return x[..., 0]


def make_interval_indicator(a: float = 0.0, b: float = 1.0) -> Payoff:
    if not a < b:
        raise InvalidArgumentError("need a < b")

    def fn(x):
        x1 = _x1(x)
        return ((x1 > a) & (x1 < b)).astype(float)

    return Payoff(
        name=f"interval_indicator({a:g},{b:g})", fn=fn, space="bv", sup_norm=1.0,
    )


def euclidean_norm(v) -> np.ndarray:
    """np.linalg.norm over the last axis, except that a vector of finite
    components whose squares overflow is first divided by its largest
    |component|, so its norm is inf only when the norm itself passes the
    largest float."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # the vectors that overflow are redone below
        norm = np.asarray(np.linalg.norm(v, axis=-1))
    redo = np.isinf(norm) & np.isfinite(v).all(axis=-1)
    if redo.any():
        big = v[redo]
        top = np.abs(big).max(axis=-1, keepdims=True)
        with np.errstate(over="ignore"):  # a norm past the largest float is inf
            norm[redo] = top[:, 0] * np.linalg.norm(big / top, axis=-1)
    return norm


def make_ball_indicator(d: int = 2, radius: float = 1.0, center: float = 0.0) -> Payoff:
    if radius <= 0:
        raise InvalidArgumentError("radius must be positive")
    c = np.broadcast_to(np.asarray(center, dtype=float), (d,)).copy()

    def fn(x):
        return (euclidean_norm(x - c) < radius).astype(float)

    return Payoff(
        name=f"ball_indicator(d={d},R={radius:g})", fn=fn, space="bv", sup_norm=1.0, d=d,
    )


def make_clamp_ramp(lo: float = 0.0, hi: float = 1.0) -> Payoff:
    if not lo < hi:
        raise InvalidArgumentError("need lo < hi")

    def fn(x):
        return np.clip(_x1(x), lo, hi)

    return Payoff(
        name=f"clamp_ramp({lo:g},{hi:g})" if (lo, hi) != (0.0, 1.0) else "clamp_ramp",
        fn=fn, space="lipschitz", sup_norm=float(max(abs(lo), abs(hi))),
    )


def make_tent(s: float = 0.5, p: float = 2.0) -> Payoff:
    """Piecewise-linear tent max(0, 1-|x1|); fractional-class testbed."""

    def fn(x):
        return np.maximum(0.0, 1.0 - np.abs(_x1(x)))

    return Payoff(
        name="tent", fn=fn, space="fractional", sup_norm=1.0, p=p, s=s,
    )


def make_tent_power(s: float = 0.5, p: float = 2.0) -> Payoff:
    """Cusped bump max(0, 1-|x1|)^s; Hoelder-s, fractional-class representative."""
    if not 0 < s <= 1:
        raise InvalidArgumentError("exponent s must be in (0, 1]")

    def fn(x):
        return np.maximum(0.0, 1.0 - np.abs(_x1(x))) ** s

    return Payoff(
        name=f"tent_power(s={s:g})", fn=fn, space="fractional", sup_norm=1.0,
        p=p, s=s,
    )


def make_capped_hat(p: float = 2.0) -> Payoff:
    """min(1, max(0, 1-|x1|) * (2+x1)): capped product of the tent with a ramp."""

    def fn(x):
        x1 = _x1(x)
        return np.minimum(1.0, np.maximum(0.0, 1.0 - np.abs(x1)) * (2.0 + x1))

    return Payoff(
        name="capped_hat", fn=fn, space="sobolev", sup_norm=1.0, p=p,
    )


def make_inverse_quarter(cap: float = 10.0) -> Payoff:
    """min(|x1|^{-1/4}, cap): unbounded-family representative for r < inf checks."""

    def fn(x):
        x1 = np.abs(_x1(x))
        with np.errstate(divide="ignore"):
            v = np.where(x1 > 0, x1 ** (-0.25), np.inf)
        return np.minimum(v, cap)

    return Payoff(
        name=f"inverse_quarter(cap={cap:g})", fn=fn, space="bv", sup_norm=float(cap),
    )


PAYOFF_REGISTRY = {
    "interval_indicator": make_interval_indicator,
    "ball_indicator": make_ball_indicator,
    "clamp_ramp": make_clamp_ramp,
    "tent": make_tent,
    "tent_power": make_tent_power,
    "capped_hat": make_capped_hat,
    "inverse_quarter": make_inverse_quarter,
}


def make_payoff(name: str, **params) -> Payoff:
    if name not in PAYOFF_REGISTRY:
        raise InvalidArgumentError(
            f"unknown payoff {name!r}; registry has {sorted(PAYOFF_REGISTRY)}"
        )
    return PAYOFF_REGISTRY[name](**params)


# ---------------------------------------------------------------------------
# Predicted exponents
# ---------------------------------------------------------------------------


def predicted_strong_exponent(
    space: str, q: float, delta: float = 0.9,
    p: float | None = None, s: float | None = None,
) -> float:
    """Exponent e in the n^{-e} bound on E|f(X(T)) - f(X^(n)(T))|^q.

    bv: delta/2. sobolev/orlicz/variable: q/(2(q+1)).
    fractional: p*q*s/(2(q+p)). lipschitz: q/2 (classical baseline).
    """
    if q < 1:
        raise InvalidArgumentError("q must be >= 1")
    if space == "bv":
        if not 0.0 < delta < 1.0:
            raise InvalidArgumentError(f"delta must lie in (0,1), got {delta}")
        return delta / 2.0
    if space in ("sobolev", "orlicz", "variable"):
        return q / (2.0 * (q + 1.0))
    if space == "fractional":
        if p is None or s is None:
            raise InvalidArgumentError("fractional class needs p and s")
        if not 0 < s < 1:
            raise InvalidArgumentError("s must lie in (0,1)")
        return p * q * s / (2.0 * (q + p))
    if space == "lipschitz":
        return q / 2.0
    raise InvalidArgumentError(f"unknown function-space class {space!r}")


def predicted_mlmc_exponent(
    space: str, delta: float = 0.9, p: float | None = None, s: float | None = None,
) -> float:
    """Cost exponent c in the MLMC complexity bound eps^{-c}: 3 - beta.

    Giles' theorem at weak rate alpha = 1 and cost rate gamma = 1, with beta
    the strong exponent at q = 2, at most 1: bv (6-delta)/2,
    sobolev/orlicz/variable 8/3, fractional 3 - p*s/(p+2). Lipschitz is the
    beta = gamma case, eps^-2 log^2 eps, whose log factor is not modelled.
    """
    return 3.0 - predicted_strong_exponent(space, 2.0, delta, p=p, s=s)
