import math
import tracemalloc

import numpy as np
import pytest

from irregmc import diagnostics as dg
from irregmc import randomkit, sde
from irregmc.diagnostics import (
    Histogram,
    fit_gaussian_envelope,
    gaussian_kernel,
    lower_bound_positive,
    terminal_histogram,
)
from irregmc.errors import FitFailureError, InvalidArgumentError
from irregmc.sde import make_model


@pytest.fixture(scope="module")
def normal_hist():
    model = make_model("constant", mu=0.0, sigma=1.0)
    return terminal_histogram(model, 8, 100_000, 50, seed=2, value_range=(-4, 4))


def test_histogram_counts_and_mass(normal_hist):
    assert normal_hist.counts.sum() == normal_hist.N
    assert normal_hist.mass() == pytest.approx(1.0, abs=1e-9)


def test_histogram_density_matches_normal(normal_hist):
    # density at 0 within 3 SE of 1/sqrt(2 pi)
    i = np.argmin(np.abs(normal_hist.centers))
    w = normal_hist.widths[i]
    p_bin = normal_hist.counts[i] / normal_hist.N
    se = math.sqrt(p_bin * (1 - p_bin) / normal_hist.N) / w
    assert normal_hist.density[i] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=3 * se + 0.01)


def test_histogram_mean_drift():
    model = make_model("constant", mu=0.3, sigma=0.5, x0=0.2)
    hist = terminal_histogram(model, 4, 50_000, 40, seed=3)
    mean = float(np.sum(hist.centers * hist.counts) / hist.N)
    se = 0.5 / math.sqrt(hist.N)
    assert mean == pytest.approx(0.2 + 0.3, abs=3 * se + 0.02)


def test_histogram_preconditions():
    model = make_model("constant")
    with pytest.raises(InvalidArgumentError):
        terminal_histogram(model, 4, 5000, 40, seed=0)
    with pytest.raises(InvalidArgumentError):
        terminal_histogram(model, 4, 10_000, 10, seed=0)


@pytest.mark.parametrize("model, value_range", [
    # terminals near +-1e308: max - min overflows, so numpy cannot cut the range
    (make_model("constant", mu=0.0, sigma=4.5e307), None),
    # a given range narrower than 200 float spacings
    (make_model("constant"), (1.0, 1.0 + 1e-14)),
])
def test_a_range_numpy_cannot_bin_is_an_invalid_argument(model, value_range):
    # numpy's ValueError used to end a density run in a traceback
    with pytest.raises(InvalidArgumentError, match="cannot bin the range"):
        terminal_histogram(model, 1, 10_000, 200, seed=0, value_range=value_range)


def test_envelope_control_case(normal_hist):
    env = fit_gaussian_envelope(normal_hist, 0.0, 1.0)
    assert 1.0 <= env.C_plus <= 1.2
    assert env.n_bins_used > 0
    # the envelope property holds by construction on fitted bins
    use = normal_hist.counts >= 5
    g = gaussian_kernel(env.c_plus, 1.0, 0.0, normal_hist.centers[use])
    assert np.all(normal_hist.density[use] <= env.C_plus * g * (1 + 1e-12))


def test_envelope_monotone_in_grid(normal_hist):
    small = fit_gaussian_envelope(normal_hist, 0.0, 1.0, c_grid=[1.0, 1.5])
    big = fit_gaussian_envelope(normal_hist, 0.0, 1.0, c_grid=[0.8, 1.0, 1.2, 1.5, 2.0])
    assert big.C_plus <= small.C_plus + 1e-12


def test_envelope_fit_failure():
    hist = Histogram(dim=1, edges=np.linspace(-1, 1, 21),
                     counts=np.ones(20, dtype=int), N=20)
    with pytest.raises(FitFailureError):
        fit_gaussian_envelope(hist, 0.0, 1.0, min_count=5)


def test_lower_bound_positive(normal_hist):
    assert lower_bound_positive(normal_hist, 0.0, 1.0)
    sparse = Histogram(
        dim=1, edges=np.linspace(-3, 3, 31),
        counts=np.concatenate([np.zeros(15, dtype=int), [100], np.zeros(14, dtype=int)]),
        N=100,
    )
    assert not lower_bound_positive(sparse, 0.0, 1.0)


def test_envelope_uniform_in_n_light():
    model = make_model("sincos")
    cs = []
    for n in (16, 64):
        hist = terminal_histogram(model, n, 30_000, 40, seed=5 + n,
                                  value_range=(-4, 5))
        cs.append(fit_gaussian_envelope(hist, 0.0, 1.0).C_plus)
    assert max(cs) / min(cs) < 2.0


def test_histogram_draws_and_steps_in_bounded_chunks(monkeypatch):
    # the names the benchmark tracer rebinds see every normal and path-step,
    # and a chunked sweep bins the same terminals as a one-chunk sweep
    model = make_model("sincos")
    whole = terminal_histogram(model, 512, 10_000, 40, seed=4)
    drawn, steps = [], []
    draw, em = dg.increment_batch, sde.em_terminal_batch

    def counting_draw(*args, **kwargs):
        inc = draw(*args, **kwargs)
        drawn.append(inc.size)
        return inc

    def counting_em(model, increments, *args, **kwargs):
        steps.append(increments.shape[0] * increments.shape[1])
        return em(model, increments, *args, **kwargs)

    budget = 1 << 18
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    monkeypatch.setattr(dg, "increment_batch", counting_draw)
    monkeypatch.setattr(sde, "em_terminal_batch", counting_em)
    chunked = terminal_histogram(model, 512, 10_000, 40, seed=4)
    assert len(drawn) > 10  # one window of 3-step chunks
    assert sum(drawn) == sum(steps) == 10_000 * 512
    assert max(drawn) <= budget // 8  # overlapped: two chunks in flight
    assert np.array_equal(chunked.edges, whole.edges)
    assert np.array_equal(chunked.counts, whole.counts)


def test_histogram_with_a_range_does_not_hold_the_terminals():
    # each window is binned as it comes: 8x the paths, the same peak, and the
    # counts of one pass over all terminals
    model = make_model("constant", mu=0.0, sigma=1.0)

    def peak(N):
        tracemalloc.start()
        try:
            hist = terminal_histogram(model, 1, N, 40, seed=6, value_range=(-4.0, 4.0))
            return hist, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    N = 1 << 16  # one full window of paths
    hist, small = peak(N)
    _, large = peak(8 * N)
    assert large <= small + (1 << 16)  # an 8N terminal array would add 3.5 MB
    terminals = np.concatenate([x[:, 0] for _, _, x, _ in sde.path_terminals(
        model, dg.increment_batch, 6, 1, 0, N)])
    counts, edges = np.histogram(terminals, bins=40, range=(-4.0, 4.0))
    assert np.array_equal(hist.counts, counts) and np.array_equal(hist.edges, edges)
    assert hist.N == counts.sum()
