"""SDE models and the Euler-Maruyama scheme with coupled two-level simulation.

The scheme freezes coefficients at the left grid point t_k = k*T/n; grid times
are produced by index arithmetic, never by flooring s*n/T. Coarse paths are
driven by block sums of the same fine increments, so for constant coefficients
fine and coarse terminals agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


@dataclass(frozen=True)
class CoefficientMeta:
    """Regularity metadata: bounds and constants the rate predictions consume."""

    sup_b: float
    lip_space: float
    holder_time: float
    a_lower: float
    a_upper: float


@dataclass(frozen=True)
class SdeModel:
    """Time-inhomogeneous Markovian diffusion dX = b dt + sigma dB on R^d.

    ``drift(t, x)`` and ``diffusion(t, x)`` must be vectorized over leading
    axes of x (shape (..., d) -> (..., d) and (..., d, d)). Models with
    diagonal noise also provide ``diffusion_diag`` (shape (..., d)), which the
    simulation engine prefers to avoid per-path matrix products.
    """

    name: str
    d: int
    T: float
    x0: np.ndarray
    drift: Callable
    diffusion: Callable
    meta: CoefficientMeta
    diffusion_diag: Callable | None = None


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

    Iterates X_{k+1} = X_k + b(t_k, X_k) dt + sigma(t_k, X_k) dB_k from x0 and
    returns X_n, shape (B, d). Any memory layout gives the same values;
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
    diag = model.diffusion_diag
    for k in range(n):
        t = k * dt
        drift = model.drift(t, x) * dt
        if diag is not None:
            noise = diag(t, x) * increments[:, k, :]
        else:
            noise = np.einsum("...ij,...j->...i", model.diffusion(t, x), increments[:, k, :])
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

    def drift(t, x):
        return np.full(x.shape, mu_vec)

    def diffusion(t, x):
        return np.broadcast_to(sig * np.eye(d), x.shape + (d,))

    def diffusion_diag(t, x):
        return np.full_like(x, sig)

    meta = CoefficientMeta(
        sup_b=float(np.linalg.norm(mu_vec)),
        lip_space=0.0,
        holder_time=0.0,
        a_lower=sig**2,
        a_upper=sig**2,
    )
    return SdeModel(
        name="constant", d=d, T=float(T),
        x0=np.broadcast_to(np.asarray(x0, dtype=float), (d,)).copy(),
        drift=drift, diffusion=diffusion, meta=meta, diffusion_diag=diffusion_diag,
    )


def _sincos_model(T=1.0, x0=0.0, cos_amp=0.5) -> SdeModel:
    # cos_amp < 1 keeps sigma uniformly elliptic; large enough that the
    # state-dependent (strong-rate-1/2) error term dominates the drift-induced
    # h^2 term over practical step windows
    amp = float(cos_amp)
    if not 0.0 < amp < 1.0:
        raise InvalidArgumentError("cos_amp must lie in (0,1) for ellipticity")

    def drift(t, x):
        return np.sin(x)

    def diffusion_diag(t, x):
        return 1.0 + amp * np.cos(x)

    def diffusion(t, x):
        return diffusion_diag(t, x)[..., :, None] * np.eye(1)

    meta = CoefficientMeta(
        sup_b=1.0, lip_space=1.0, holder_time=0.0,
        a_lower=(1.0 - amp) ** 2, a_upper=(1.0 + amp) ** 2,
    )
    return SdeModel(
        name="sincos", d=1, T=float(T), x0=np.array([float(x0)]),
        drift=drift, diffusion=diffusion, meta=meta, diffusion_diag=diffusion_diag,
    )


def _sincos2d_model(T=1.0, x0=0.0, cos_amp=0.5) -> SdeModel:
    amp = float(cos_amp)
    if not 0.0 < amp < 1.0:
        raise InvalidArgumentError("cos_amp must lie in (0,1) for ellipticity")

    def drift(t, x):
        return np.sin(x)

    def diffusion_diag(t, x):
        return 1.0 + amp * np.cos(x)

    def diffusion(t, x):
        out = np.zeros(x.shape + (2,))
        dg = diffusion_diag(t, x)
        out[..., 0, 0] = dg[..., 0]
        out[..., 1, 1] = dg[..., 1]
        return out

    meta = CoefficientMeta(
        sup_b=np.sqrt(2.0), lip_space=1.0, holder_time=0.0,
        a_lower=(1.0 - amp) ** 2, a_upper=(1.0 + amp) ** 2,
    )
    return SdeModel(
        name="sincos2d", d=2, T=float(T),
        x0=np.broadcast_to(np.asarray(x0, dtype=float), (2,)).copy(),
        drift=drift, diffusion=diffusion, meta=meta, diffusion_diag=diffusion_diag,
    )


def _zero_model(d=1, T=1.0, x0=0.0) -> SdeModel:
    """Zero drift, zero diffusion; useful for exact telescoping checks."""
    def drift(t, x):
        return np.zeros_like(x)

    def diffusion(t, x):
        return np.zeros(x.shape + (d,))

    def diffusion_diag(t, x):
        return np.zeros_like(x)

    meta = CoefficientMeta(sup_b=0.0, lip_space=0.0, holder_time=0.0,
                           a_lower=0.0, a_upper=0.0)
    return SdeModel(
        name="zero", d=d, T=float(T),
        x0=np.broadcast_to(np.asarray(x0, dtype=float), (d,)).copy(),
        drift=drift, diffusion=diffusion, meta=meta, diffusion_diag=diffusion_diag,
    )


def _ode_model(d=1, T=1.0, x0=0.5) -> SdeModel:
    """Deterministic dynamics dX = cos(X) dt; zero diffusion."""
    def drift(t, x):
        return np.cos(x)

    def diffusion(t, x):
        return np.zeros(x.shape + (d,))

    def diffusion_diag(t, x):
        return np.zeros_like(x)

    meta = CoefficientMeta(sup_b=1.0, lip_space=1.0, holder_time=0.0,
                           a_lower=0.0, a_upper=0.0)
    return SdeModel(
        name="ode", d=d, T=float(T),
        x0=np.broadcast_to(np.asarray(x0, dtype=float), (d,)).copy(),
        drift=drift, diffusion=diffusion, meta=meta, diffusion_diag=diffusion_diag,
    )


MODEL_REGISTRY = {
    "constant": _constant_model,
    "sincos": _sincos_model,
    "sincos2d": _sincos2d_model,
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
    ellipticity of a = sigma sigma^T against the metadata; raises
    InvalidArgumentError on a violation.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, model.T, n_probe)
    xs = rng.normal(scale=3.0, size=(n_probe, model.d))
    tol = 1e-9
    for t, x in zip(ts, xs):
        xb = x[None, :]
        b = model.drift(float(t), xb)[0]
        if np.linalg.norm(b) > model.meta.sup_b + tol:
            raise InvalidArgumentError(
                f"drift bound violated: |b|={np.linalg.norm(b):.6g} "
                f"> sup_b={model.meta.sup_b}"
            )
        sig = model.diffusion(float(t), xb)[0]
        a = sig @ sig.T
        xi = rng.normal(size=model.d)
        xi /= np.linalg.norm(xi)
        quad = float(xi @ a @ xi)
        if model.meta.a_upper > 0:
            if quad < model.meta.a_lower - tol or quad > model.meta.a_upper + tol:
                raise InvalidArgumentError(
                    f"ellipticity bounds violated: <a xi, xi>={quad:.6g} outside "
                    f"[{model.meta.a_lower}, {model.meta.a_upper}]"
                )
