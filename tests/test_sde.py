import dataclasses
import math
import warnings

import numpy as np
import pytest

from irregmc.errors import InvalidArgumentError, NumericFailureError
from irregmc.randomkit import increment_batch
from irregmc.sde import (
    MODEL_REGISTRY,
    block_sums,
    coupled_terminal_batch,
    diagonal_model,
    em_terminal_batch,
    make_model,
)
from irregmc.stats import loglog_fit


def _states(model, inc):
    """States after 0..n steps, each from em_terminal_batch on a prefix.

    A prefix of j steps on a model with horizon j*dt keeps the step dt and
    the grid times t_k = k*dt, so it reproduces the first j steps exactly.
    """
    dt = model.T / inc.shape[1]
    out = [np.broadcast_to(model.x0, (inc.shape[0], model.d))]
    for j in range(1, inc.shape[1] + 1):
        out.append(em_terminal_batch(dataclasses.replace(model, T=j * dt), inc[:, :j]))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("n", [1, 7, 64, 1024])
def test_constant_coefficients_collapse_to_closed_form(n):
    model = make_model("constant", mu=0.1, sigma=0.2)
    inc = increment_batch(3, 1, 1.0, n, 0, 16)
    x = em_terminal_batch(model, inc)[:, 0]
    closed = 0.1 * 1.0 + 0.2 * inc.sum(axis=(1, 2))
    assert np.all(np.abs(x - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))


def test_zero_dynamics_returns_x0():
    model = make_model("zero", x0=1.5)
    inc = increment_batch(1, 1, 1.0, 16, 0, 3)
    assert np.all(em_terminal_batch(model, inc) == 1.5)


def test_dimension_and_step_mismatch():
    model = make_model("constant", d=2)
    with pytest.raises(InvalidArgumentError):
        em_terminal_batch(model, increment_batch(1, 1, 1.0, 8, 0, 2))
    with pytest.raises(InvalidArgumentError):
        em_terminal_batch(model, np.zeros((8, 2)))
    with pytest.raises(InvalidArgumentError):
        coupled_terminal_batch(model, increment_batch(1, 2, 1.0, 8, 0, 2), 3)


@pytest.mark.parametrize("T, x0", [
    (0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan),
    (1.0, math.inf), (1.0, [0.0, -math.inf])])
def test_a_model_needs_a_finite_positive_horizon_and_a_finite_start(T, x0):
    with pytest.raises(InvalidArgumentError, match="T must|x0 must"):
        diagonal_model("bad", 2, T, x0, drift=lambda t, x: x, sigma=lambda t, x: x)


def test_integer_x0_gives_float_state():
    model = make_model("constant", mu=0.1, sigma=0.2, x0=1.0)
    inc = increment_batch(4, 1, 1.0, 8, 0, 3)
    x = em_terminal_batch(dataclasses.replace(model, x0=np.array([1])), inc)
    assert x.dtype == np.float64
    assert np.array_equal(x, em_terminal_batch(model, inc))


def test_nonfinite_state_names_step():
    bad = diagonal_model("bad", 1, 1.0, 0.0, drift=lambda t, x: np.full_like(x, np.nan),
                         sigma=lambda t, x: np.zeros_like(x))
    inc = increment_batch(1, 1, 1.0, 4, 0, 2)
    with pytest.raises(NumericFailureError, match="step 0"):
        em_terminal_batch(bad, inc)


@pytest.mark.parametrize("cuts", [[8], [4, 12], [8, 12, 20]])
def test_chunked_stepping_equals_one_call(cuts):
    # continuing from the last state at the global step k0 reproduces one call
    # bit for bit, for the fine path and the coarse one on block sums; the
    # coefficients depend on t, so a chunk must step at the global times
    model = diagonal_model("moving", 2, 1.0, 0.0,
                           drift=lambda t, x: np.sin(x + 5.0 * t),
                           sigma=lambda t, x: 1.0 + 0.5 * np.cos(x - 3.0 * t))
    inc = increment_batch(6, 2, 1.0, 24, 1000, 40)
    fine, coarse = coupled_terminal_batch(model, inc, 4)
    sums = block_sums(inc, 4)
    x, xc = None, None
    for k0, k1 in zip([0, *cuts], [*cuts, 24]):
        x = em_terminal_batch(model, inc[:, k0:k1], None, x, k0, 24)
        xc = em_terminal_batch(model, sums[:, k0 // 4 : k1 // 4], None, xc, k0 // 4, 6)
    assert np.array_equal(x, fine) and np.array_equal(xc, coarse)


def test_continuation_checks_its_grid():
    model = make_model("sincos")
    inc = increment_batch(1, 1, 1.0, 8, 0, 2)
    with pytest.raises(InvalidArgumentError):
        em_terminal_batch(model, inc, None, None, 4, 10)  # steps 4..11 of 10


def test_nonfinite_state_names_the_global_step():
    blowup = diagonal_model("blowup", 1, 1.0, 0.0,
                            drift=lambda t, x: np.where(t >= 0.5, np.inf, 0.0) + x,
                            sigma=lambda t, x: np.zeros_like(x))
    inc = increment_batch(1, 1, 1.0, 8, 0, 2)
    x = em_terminal_batch(blowup, inc[:, :2], None, None, 0, 8)
    # the chunk's third step is step 4, the first with t = 4/8 >= 0.5
    with pytest.raises(NumericFailureError, match="step 4"):
        em_terminal_batch(blowup, inc[:, 2:], None, x, 2, 8)


def test_passing_call_emits_no_warning():
    # finiteness is checked once per call, after the last step
    model = make_model("sincos")
    inc = increment_batch(3, 1, 1.0, 64, 0, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = em_terminal_batch(model, inc[:, :40], None, None, 0, 64)
        em_terminal_batch(model, inc[:, 40:], None, x, 40, 64)


@pytest.mark.parametrize("M", [1, 2, 8])
def test_coupling_exact_for_constant_coefficients(M):
    model = make_model("constant", mu=0.3, sigma=0.5)
    inc = increment_batch(9, 1, 1.0, 16, 1, 8)
    fine, coarse = coupled_terminal_batch(model, inc, M)
    assert np.all(np.abs(fine - coarse) <= 1e-12 * np.maximum(1.0, np.abs(fine)))


def test_coupled_batch_m1_identity():
    model = make_model("sincos")
    inc = increment_batch(5, 1, 1.0, 8, 0, 16)
    fine, coarse = coupled_terminal_batch(model, inc, 1)
    assert np.array_equal(fine, coarse)


def test_determinism_bitwise():
    model = make_model("sincos")
    a = em_terminal_batch(model, increment_batch(77, 1, 1.0, 32, 0, 4))
    b = em_terminal_batch(model, increment_batch(77, 1, 1.0, 32, 0, 4))
    assert np.array_equal(a, b)


def test_markov_step_locality():
    # changing increment k only affects states at steps > k
    model = make_model("sincos")
    inc = increment_batch(4, 1, 1.0, 16, 0, 1)
    base = _states(model, inc)
    bumped = inc.copy()
    k = 9
    bumped[0, k, 0] += 0.5
    path = _states(model, bumped)
    assert np.array_equal(base[:, : k + 1], path[:, : k + 1])
    assert not np.allclose(base[:, k + 1 :], path[:, k + 1 :])


def test_prefix_states_match_terminal():
    # the prefix construction in _states ends at em_terminal_batch's terminal
    model = make_model("sincos2d")
    inc = increment_batch(8, 2, 1.0, 16, 0, 3)
    assert np.array_equal(_states(model, inc)[:, -1], em_terminal_batch(model, inc))


def test_reference_terminal_kurtosis():
    # zero drift, unit diffusion: terminal is exactly N(0, T); kurtosis ~ 3
    model = make_model("constant", mu=0.0, sigma=1.0)
    N = 50_000
    inc = increment_batch(21, 1, 1.0, 4, 0, N)
    x = em_terminal_batch(model, inc)[:, 0]
    z = (x - x.mean()) / x.std()
    kurt = np.mean(z**4)
    assert abs(kurt - 3.0) < 4 * np.sqrt(24.0 / N)


def test_reference_refinement_monotone():
    # coupled gap to a 2x finer reference is below the coarse-level gaps
    model = make_model("sincos")
    N, n_ref = 4000, 1024
    inc = increment_batch(31, 1, 1.0, 2 * n_ref, 0, N)
    ref2 = em_terminal_batch(model, inc)
    ref1 = em_terminal_batch(model, block_sums(inc, 2))
    coarse = em_terminal_batch(model, block_sums(inc, 2 * n_ref // 8))
    gap_ref = np.mean((ref2 - ref1) ** 2)
    gap_coarse = np.mean((ref2 - coarse) ** 2)
    assert gap_ref < gap_coarse


def test_strong_rate_of_l2_distance():
    # L2 distance to the coupled fine reference decays at the strong rate 1/2
    model = make_model("sincos")
    N, n_ref = 20_000, 2048
    n_list = [8, 16, 32, 64, 128]
    inc = increment_batch(41, 1, 1.0, n_ref, 0, N)
    ref = em_terminal_batch(model, inc)
    dists = []
    for n in n_list:
        xn = em_terminal_batch(model, block_sums(inc, n_ref // n))
        dists.append(np.sqrt(np.mean((xn - ref) ** 2)))
    fit = loglog_fit(n_list, dists)
    assert -0.65 <= fit.slope <= -0.35


def test_coupled_variance_scaling_in_n_fine():
    # E|fine - coarse|^2 at fixed M=2 scales like 1/n_fine
    model = make_model("sincos")
    N = 20_000
    n_fines = [16, 32, 64, 128]
    gaps = []
    for i, nf in enumerate(n_fines):
        inc = increment_batch(51 + i, 1, 1.0, nf, 0, N)
        fine, coarse = coupled_terminal_batch(model, inc, 2)
        gaps.append(np.mean((fine - coarse) ** 2))
    fit = loglog_fit(n_fines, gaps)
    assert -1.3 <= fit.slope <= -0.7


def test_coupled_fine_matches_euler():
    # the fine terminal of a coupled pair is the plain EM terminal, and the
    # coarse one is EM driven by the block sums
    model = make_model("sincos")
    inc = increment_batch(2, 1, 1.0, 32, 0, 6)
    fine, coarse = coupled_terminal_batch(model, inc, 4)
    assert np.array_equal(fine, em_terminal_batch(model, inc))
    assert np.array_equal(coarse, em_terminal_batch(model, block_sums(inc, 4)))


# sup |b| and the ellipticity bounds of a = diag(sigma)^2 for each registry
# model at its default params; a_upper = 0 marks a model without noise
BOUNDS = {
    "constant": (0.1, 0.2**2, 0.2**2),
    "sincos": (1.0, 0.5**2, 1.5**2),
    "sincos2d": (2**0.5, 0.5**2, 1.5**2),
    "zero": (0.0, 0.0, 0.0),
    "ode": (1.0, 0.0, 0.0),
}


def verify_model(model, sup_b, a_lower, a_upper, seed=0, n_probe=256):
    """Numerically spot-check coefficient bounds.

    Samples (t, x, xi) and verifies drift boundedness and two-sided
    ellipticity of a = diag(sigma)^2, <a xi, xi> = sum_i (sigma_i xi_i)^2,
    against the given bounds; raises InvalidArgumentError on a violation.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, model.T, n_probe)
    xs = rng.normal(scale=3.0, size=(n_probe, model.d))
    tol = 1e-9
    for t, x in zip(ts, xs):
        xb = x[None, :]
        b = float(np.linalg.norm(model.drift(float(t), xb)[0]))
        if b > sup_b + tol:
            raise InvalidArgumentError(f"drift bound violated: |b|={b:.6g} > sup_b={sup_b}")
        xi = rng.normal(size=model.d)
        xi /= np.linalg.norm(xi)
        quad = float(np.sum((model.sigma(float(t), xb)[0] * xi) ** 2))
        if a_upper > 0:
            if quad < a_lower - tol or quad > a_upper + tol:
                raise InvalidArgumentError(
                    f"ellipticity bounds violated: <a xi, xi>={quad:.6g} outside "
                    f"[{a_lower}, {a_upper}]"
                )


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_registry_model_passes_verification(name):
    verify_model(make_model(name), *BOUNDS[name])


def test_registry_and_verification():
    with pytest.raises(InvalidArgumentError):
        make_model("no_such_model")
    # the drift breaks sup_b
    fast = diagonal_model("fast", 1, 1.0, 0.0, drift=lambda t, x: np.full_like(x, 5.0),
                          sigma=lambda t, x: np.ones_like(x))
    with pytest.raises(InvalidArgumentError, match="drift bound"):
        verify_model(fast, 1.0, 1.0, 1.0)
    # sigma = 0.5 in one coordinate lets <a xi, xi> fall below a_lower = 1
    flat = diagonal_model("flat", 2, 1.0, 0.0, drift=lambda t, x: np.zeros_like(x),
                          sigma=lambda t, x: np.broadcast_to([1.0, 0.5], x.shape))
    with pytest.raises(InvalidArgumentError, match="ellipticity"):
        verify_model(flat, 1.0, 1.0, 1.0)


def test_sincos2d_diagonal_consistency():
    # sincos2d is the sin/cos model at d = 2: each coordinate of its drift and
    # sigma is the one-dimensional model's, so sup |b| = sqrt(2) and the
    # ellipticity bounds are the one-dimensional model's
    one, two = make_model("sincos", cos_amp=0.3), make_model("sincos2d", cos_amp=0.3)
    x = np.random.default_rng(0).normal(size=(5, 2))
    for c in range(2):
        xc = x[:, c : c + 1]
        assert np.array_equal(two.drift(0.3, x)[:, c : c + 1], one.drift(0.3, xc))
        assert np.array_equal(two.sigma(0.3, x)[:, c : c + 1], one.sigma(0.3, xc))
    verify_model(two, np.sqrt(2.0), 0.7**2, 1.3**2)
    verify_model(one, 1.0, 0.7**2, 1.3**2)
