import dataclasses

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
    verify_model,
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


def test_integer_x0_gives_float_state():
    model = make_model("constant", mu=0.1, sigma=0.2, x0=1.0)
    inc = increment_batch(4, 1, 1.0, 8, 0, 3)
    x = em_terminal_batch(dataclasses.replace(model, x0=np.array([1])), inc)
    assert x.dtype == np.float64
    assert np.array_equal(x, em_terminal_batch(model, inc))


def test_nonfinite_state_names_step():
    bad = diagonal_model("bad", 1, 1.0, 0.0, drift=lambda t, x: np.full_like(x, np.nan),
                         sigma=lambda t, x: np.zeros_like(x),
                         sup_b=0.0, a_lower=0.0, a_upper=0.0)
    inc = increment_batch(1, 1, 1.0, 4, 0, 2)
    with pytest.raises(NumericFailureError, match="step 0"):
        em_terminal_batch(bad, inc)


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


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_registry_model_passes_verification(name):
    verify_model(make_model(name))


def test_registry_and_verification():
    with pytest.raises(InvalidArgumentError):
        make_model("no_such_model")
    # the drift breaks sup_b
    fast = diagonal_model("fast", 1, 1.0, 0.0, drift=lambda t, x: np.full_like(x, 5.0),
                          sigma=lambda t, x: np.ones_like(x),
                          sup_b=1.0, a_lower=1.0, a_upper=1.0)
    with pytest.raises(InvalidArgumentError, match="drift bound"):
        verify_model(fast)
    # sigma = 0.5 in one coordinate lets <a xi, xi> fall below a_lower = 1
    flat = diagonal_model("flat", 2, 1.0, 0.0, drift=lambda t, x: np.zeros_like(x),
                          sigma=lambda t, x: np.broadcast_to([1.0, 0.5], x.shape),
                          sup_b=1.0, a_lower=1.0, a_upper=1.0)
    with pytest.raises(InvalidArgumentError, match="ellipticity"):
        verify_model(flat)


def test_sincos2d_diagonal_consistency():
    # sincos2d is the sin/cos model at d = 2: each coordinate of its drift and
    # sigma is the one-dimensional model's, and sup |b| = sqrt(2)
    one, two = make_model("sincos", cos_amp=0.3), make_model("sincos2d", cos_amp=0.3)
    x = np.random.default_rng(0).normal(size=(5, 2))
    for c in range(2):
        xc = x[:, c : c + 1]
        assert np.array_equal(two.drift(0.3, x)[:, c : c + 1], one.drift(0.3, xc))
        assert np.array_equal(two.sigma(0.3, x)[:, c : c + 1], one.sigma(0.3, xc))
    assert two.meta.sup_b == np.sqrt(2.0) and one.meta.sup_b == 1.0
    assert (two.meta.a_lower, two.meta.a_upper) == (one.meta.a_lower, one.meta.a_upper)
