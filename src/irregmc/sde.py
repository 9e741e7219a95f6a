"""SDE models and the Euler-Maruyama scheme with coupled two-level simulation.

The scheme freezes coefficients at the left grid point t_k = k*T/n; grid times
are produced by index arithmetic, never by flooring s*n/T. Coarse paths are
driven by block sums of the same fine increments, so for constant coefficients
fine and coarse terminals agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


@dataclass(frozen=True)
class CoefficientMeta:
    """Declared bounds: sup |b| and two-sided ellipticity of a = diag(sigma)^2."""

    sup_b: float
    a_lower: float
    a_upper: float


@dataclass(frozen=True)
class SdeModel:
    """Time-inhomogeneous Markovian diffusion dX = b dt + diag(sigma) dB on R^d.

    ``drift(t, x)`` and ``sigma(t, x)`` map states of shape (..., d) to shape
    (..., d); ``sigma`` is the diagonal of the diffusion matrix.
    """

    name: str
    d: int
    T: float
    x0: np.ndarray
    drift: Callable
    sigma: Callable
    meta: CoefficientMeta


def diagonal_model(name: str, d: int, T, x0, drift: Callable, sigma: Callable,
                   sup_b: float, a_lower: float, a_upper: float) -> SdeModel:
    """Model with x0 broadcast to a float (d,) vector; the callables are kept as given."""
    return SdeModel(
        name=name, d=d, T=float(T),
        x0=np.broadcast_to(np.asarray(x0, dtype=float), (d,)).copy(),
        drift=drift, sigma=sigma, meta=CoefficientMeta(sup_b, a_lower, a_upper),
    )


class StepCounter:
    """Counts Euler-Maruyama steps actually executed (cost accounting)."""

    def __init__(self):
        self.steps = 0

    def add(self, n: int) -> None:
        self.steps += int(n)


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.isfinite(x).all():
        raise NumericFailureError(f"non-finite state at Euler-Maruyama step {step}")


def em_terminal_batch(
    model: SdeModel,
    increments: np.ndarray,
    counter: StepCounter | None = None,
) -> np.ndarray:
    """Terminal values for a batch of paths; increments has shape (B, n, d).

    Iterates X_{k+1} = X_k + b(t_k, X_k) dt + sigma(t_k, X_k) * dB_k (the
    product taken coordinatewise) from x0 and returns X_n, shape (B, d). Any memory layout gives the same values;
    time-major increments (as ``increment_batch`` returns them) make each
    step read contiguous memory.
    """
    if increments.ndim != 3 or increments.shape[2] != model.d:
        raise InvalidArgumentError(
            f"increments must have shape (B, n, {model.d}), got {increments.shape}"
        )
    n_paths, n, _ = increments.shape
    dt = model.T / n
    x = np.array(np.broadcast_to(model.x0, (n_paths, model.d)), dtype=float)
    for k in range(n):
        t = k * dt
        drift = model.drift(t, x) * dt
        noise = model.sigma(t, x) * increments[:, k, :]
        x += drift
        x += noise
        _check_finite(x, k)
    if counter is not None:
        counter.add(n_paths * n)
    return x


def block_sums(increments: np.ndarray, M: int) -> np.ndarray:
    """Coarse increments (B, n // M, d): sums of M consecutive fine steps.

    Each sum is added step by step in time order, so a path's coarse
    increments do not depend on the batch it was drawn in or on the layout.
    """
    n = increments.shape[1]
    if M < 1 or n % M != 0:
        raise InvalidArgumentError(f"refinement {M} does not divide n_fine={n}")
    steps = increments.transpose(1, 0, 2)  # (n, B, d); a view, never a copy
    coarse = steps[0::M].copy()
    for j in range(1, M):
        coarse += steps[j::M]
    return coarse.transpose(1, 0, 2)


def coupled_terminal_batch(
    model: SdeModel,
    increments: np.ndarray,
    M: int,
    counter: StepCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fine and coarse terminals, each (B, d), driven by the same increments.

    The coarse path takes n // M steps driven by ``block_sums(increments, M)``.
    """
    if M == 1:
        fine = em_terminal_batch(model, increments, counter)
        return fine, fine.copy()
    coarse_inc = block_sums(increments, M)
    fine = em_terminal_batch(model, increments, counter)
    return fine, em_terminal_batch(model, coarse_inc, counter)


# ---------------------------------------------------------------------------
# Built-in model registry
# ---------------------------------------------------------------------------


def _constant_model(mu=0.1, sigma=0.2, d=1, T=1.0, x0=0.0) -> SdeModel:
    mu_vec = np.broadcast_to(np.asarray(mu, dtype=float), (d,)).copy()
    sig = float(sigma)
    return diagonal_model(
        "constant", d, T, x0,
        drift=lambda t, x: np.full(x.shape, mu_vec),
        sigma=lambda t, x: np.full_like(x, sig),
        sup_b=float(np.linalg.norm(mu_vec)), a_lower=sig**2, a_upper=sig**2,
    )


def _sincos(name: str, d: int):
    """Builder of dX = sin(X) dt + (1 + cos_amp cos(X)) dB, coordinatewise on R^d."""

    def build(T=1.0, x0=0.0, cos_amp=0.5) -> SdeModel:
        # cos_amp < 1 keeps sigma uniformly elliptic; large enough that the
        # state-dependent (strong-rate-1/2) error term dominates the
        # drift-induced h^2 term over practical step windows
        amp = float(cos_amp)
        if not 0.0 < amp < 1.0:
            raise InvalidArgumentError("cos_amp must lie in (0,1) for ellipticity")
        return diagonal_model(
            name, d, T, x0,
            drift=lambda t, x: np.sin(x),
            sigma=lambda t, x: 1.0 + amp * np.cos(x),
            sup_b=math.sqrt(d), a_lower=(1.0 - amp) ** 2, a_upper=(1.0 + amp) ** 2,
        )

    return build


def _zero_model(d=1, T=1.0, x0=0.0) -> SdeModel:
    """Zero drift, zero diffusion; useful for exact telescoping checks."""
    return diagonal_model("zero", d, T, x0, drift=lambda t, x: np.zeros_like(x),
                          sigma=lambda t, x: np.zeros_like(x),
                          sup_b=0.0, a_lower=0.0, a_upper=0.0)


def _ode_model(d=1, T=1.0, x0=0.5) -> SdeModel:
    """Deterministic dynamics dX = cos(X) dt; zero diffusion."""
    return diagonal_model("ode", d, T, x0, drift=lambda t, x: np.cos(x),
                          sigma=lambda t, x: np.zeros_like(x),
                          sup_b=1.0, a_lower=0.0, a_upper=0.0)


MODEL_REGISTRY = {
    "constant": _constant_model,
    "sincos": _sincos("sincos", 1),
    "sincos2d": _sincos("sincos2d", 2),
    "zero": _zero_model,
    "ode": _ode_model,
}


def make_model(name: str, **params) -> SdeModel:
    if name not in MODEL_REGISTRY:
        raise InvalidArgumentError(
            f"unknown model {name!r}; registry has {sorted(MODEL_REGISTRY)}"
        )
    return MODEL_REGISTRY[name](**params)


def verify_model(model: SdeModel, seed: int = 0, n_probe: int = 256) -> None:
    """Numerically spot-check the declared coefficient bounds.

    Samples (t, x, xi) and verifies drift boundedness and two-sided
    ellipticity of a = diag(sigma)^2, <a xi, xi> = sum_i (sigma_i xi_i)^2,
    against the metadata; raises InvalidArgumentError on a violation.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, model.T, n_probe)
    xs = rng.normal(scale=3.0, size=(n_probe, model.d))
    tol = 1e-9
    for t, x in zip(ts, xs):
        xb = x[None, :]
        b = float(np.linalg.norm(model.drift(float(t), xb)[0]))
        if b > model.meta.sup_b + tol:
            raise InvalidArgumentError(
                f"drift bound violated: |b|={b:.6g} > sup_b={model.meta.sup_b}"
            )
        xi = rng.normal(size=model.d)
        xi /= np.linalg.norm(xi)
        quad = float(np.sum((model.sigma(float(t), xb)[0] * xi) ** 2))
        if model.meta.a_upper > 0:
            if quad < model.meta.a_lower - tol or quad > model.meta.a_upper + tol:
                raise InvalidArgumentError(
                    f"ellipticity bounds violated: <a xi, xi>={quad:.6g} outside "
                    f"[{model.meta.a_lower}, {model.meta.a_upper}]"
                )
