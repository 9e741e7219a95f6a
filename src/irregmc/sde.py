"""SDE models and the Euler-Maruyama scheme with coupled two-level simulation.

The scheme freezes coefficients at the left grid point t_k = k*T/n; grid times
are produced by index arithmetic, never by flooring s*n/T. Coarse paths are
driven by block sums of the same fine increments, so for constant coefficients
fine and coarse terminals agree to rounding. ``path_terminals`` is the path
engine of every driver: fine and coupled coarse paths, window by window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError
from .randomkit import block_sums, sweep


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


def diagonal_model(name: str, d: int, T, x0, drift: Callable, sigma: Callable) -> SdeModel:
    """Model with x0 broadcast to a float (d,) vector; the callables are kept as given."""
    if d < 1:
        raise InvalidArgumentError(f"d must be >= 1, got {d}")
    T = float(T)
    if not 0.0 < T < math.inf:
        raise InvalidArgumentError(f"T must be positive and finite, got {T}")
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), (d,)).copy()
    if not np.isfinite(x0).all():
        raise InvalidArgumentError(f"x0 must be finite, got {x0.tolist()}")
    return SdeModel(name=name, d=d, T=T, x0=x0, drift=drift, sigma=sigma)


class StepCounter:
    """Counts Euler-Maruyama steps actually executed (cost accounting)."""

    def __init__(self):
        self.steps = 0

    def add(self, n: int) -> None:
        self.steps += int(n)


def _em_steps(model: SdeModel, increments: np.ndarray, start, k0: int, dt: float,
              check_each: bool = False) -> np.ndarray:
    """States after the steps k0.. of increments from ``start``, which is copied."""
    x = np.array(np.broadcast_to(start, (increments.shape[0], model.d)), dtype=float)
    # an overflow is reported by NumericFailureError, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k0, k0 + increments.shape[1]):
            t = j * dt
            drift = model.drift(t, x) * dt
            noise = model.sigma(t, x) * increments[:, j - k0, :]
            x += drift
            x += noise
            if check_each and not np.isfinite(x).all():
                raise NumericFailureError(f"non-finite state at Euler-Maruyama step {j}")
    return x


def em_terminal_batch(
    model: SdeModel,
    increments: np.ndarray,
    counter: StepCounter | None = None,
    x: np.ndarray | None = None,
    k0: int = 0,
    n: int | None = None,
) -> np.ndarray:
    """States after a batch of paths takes the steps in increments, shape (B, k, d).

    Iterates X_{j+1} = X_j + b(t_j, X_j) dt + sigma(t_j, X_j) * dB_j (the
    product taken coordinatewise) on the n-step grid dt = T/n, t_j = j*dt,
    over steps j = k0..k0+k-1, from ``x`` (from x0 when None) and returns
    the new states, shape (B, d); ``x`` itself is not changed. By default
    k0 = 0 and n = k, so the call returns the terminals X_n. A run cut into
    time chunks, each continuing from the last, is bit-identical to one call.
    Any memory layout gives the same values; time-major increments (as
    ``increment_batch`` returns them) make each step read contiguous memory.
    """
    if increments.ndim != 3 or increments.shape[2] != model.d:
        raise InvalidArgumentError(
            f"increments must have shape (B, n, {model.d}), got {increments.shape}"
        )
    n_paths, k, _ = increments.shape
    n = k0 + k if n is None else n
    if k0 < 0 or k0 + k > n:
        raise InvalidArgumentError(f"steps {k0}..{k0 + k - 1} do not lie on a {n}-step grid")
    dt = model.T / n
    start = model.x0 if x is None else x
    out = _em_steps(model, increments, start, k0, dt)
    if k and not np.isfinite(out).all():
        # a non-finite state stays non-finite under x += drift; x += noise, so
        # one check per call catches it; the replay names the first bad step
        _em_steps(model, increments, start, k0, dt, check_each=True)
        raise NumericFailureError(f"non-finite state at Euler-Maruyama step {k0 + k - 1}")
    if counter is not None:
        counter.add(n_paths * k)
    return out


def coupled_terminal_batch(model: SdeModel, increments: np.ndarray,
                           M: int) -> tuple[np.ndarray, np.ndarray]:
    """Terminals of the fine path and of the coarse path, each (B, d), from one call.

    The coarse path takes k // M steps driven by ``block_sums(increments, M)``.
    This one-call form is the reference that ``path_terminals`` is checked
    against.
    """
    coarse_inc = block_sums(increments, M)
    return em_terminal_batch(model, increments), em_terminal_batch(model, coarse_inc)


def path_terminals(model: SdeModel, draw, seed: int, n_fine: int, first: int, n_paths: int,
                   factors=(), counter: StepCounter | None = None):
    """Yield (first, b, fine, coarse) at the end of each window of paths, in order.

    The windows cover paths first..first+n_paths-1 as ``randomkit.path_layout``
    cuts them. ``fine`` holds the (b, d) states X^(n_fine)(T) of a window's
    paths and ``coarse`` one (b, d) state per factor M, of the
    n_fine // M-step path on ``block_sums`` of the same increments:
    ``em_terminal_batch`` on the whole window's increments and on their
    sums, though ``randomkit.sweep(draw, ...)`` hands the window out in time
    chunks whose coarse steps may straddle chunks. Each chunk's fine path is
    stepped first, then each coarse path over the coarse steps the chunk
    completes, if any, from coarse step k0 // M.
    """
    for w, b, k0, k, inc, sums in sweep(draw, seed, model.d, model.T, n_fine, first, n_paths,
                                        factors):
        if k0 == 0:
            fine, coarse = None, [None] * len(factors)
        # the fine path first: an overlapped sweep sums this chunk meanwhile
        fine = em_terminal_batch(model, inc, counter, fine, k0, n_fine)
        coarse = [em_terminal_batch(model, summed, counter, x, k0 // M, n_fine // M)
                  if summed.shape[1] else x for M, summed, x in zip(factors, sums(), coarse)]
        del inc, sums  # free this chunk and its sums before the next is drawn
        if k0 + k == n_fine:
            yield w, b, fine, coarse


# ---------------------------------------------------------------------------
# Built-in model registry
# ---------------------------------------------------------------------------


def _constant_model(mu=0.1, sigma=0.2, d=1, T=1.0, x0=0.0) -> SdeModel:
    mu_vec = np.broadcast_to(np.asarray(mu, dtype=float), (d,)).copy()
    sig = float(sigma)
    return diagonal_model("constant", d, T, x0, drift=lambda t, x: np.full(x.shape, mu_vec),
                          sigma=lambda t, x: np.full_like(x, sig))


def constant_model_mean(model: SdeModel, payoff) -> float:
    """E f(X(T)) under the constant model, for a payoff f of the first coordinate.

    X_1(T) is exactly N(x0 + mu T, sigma^2 T), so 120-node Gauss-Hermite
    quadrature evaluates f at its nodes.
    """
    if model.name != "constant":
        raise InvalidArgumentError(f"no closed-form law for model {model.name!r}")
    x0, T = float(model.x0[0]), model.T
    mu, sig = float(model.drift(0.0, model.x0)[0]), float(model.sigma(0.0, model.x0)[0])
    nodes, weights = np.polynomial.hermite_e.hermegauss(120)
    x1 = x0 + mu * T + sig * math.sqrt(T) * nodes
    return float(np.sum(weights * payoff(x1[:, None])) / math.sqrt(2 * math.pi))


def _sincos(name: str, d: int):
    """Builder of dX = sin(X) dt + (1 + cos_amp cos(X)) dB, coordinatewise on R^d."""

    def build(T=1.0, x0=0.0, cos_amp=0.5) -> SdeModel:
        # cos_amp < 1 keeps sigma uniformly elliptic; large enough that the
        # state-dependent (strong-rate-1/2) error term dominates the
        # drift-induced h^2 term over practical step windows
        amp = float(cos_amp)
        if not 0.0 < amp < 1.0:
            raise InvalidArgumentError("cos_amp must lie in (0,1) for ellipticity")
        return diagonal_model(name, d, T, x0, drift=lambda t, x: np.sin(x),
                              sigma=lambda t, x: 1.0 + amp * np.cos(x))

    return build


def _zero_model(d=1, T=1.0, x0=0.0) -> SdeModel:
    """Zero drift, zero diffusion; useful for exact telescoping checks."""
    return diagonal_model("zero", d, T, x0, drift=lambda t, x: np.zeros_like(x),
                          sigma=lambda t, x: np.zeros_like(x))


def _ode_model(d=1, T=1.0, x0=0.5) -> SdeModel:
    """Deterministic dynamics dX = cos(X) dt; zero diffusion."""
    return diagonal_model("ode", d, T, x0, drift=lambda t, x: np.cos(x),
                          sigma=lambda t, x: np.zeros_like(x))


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
