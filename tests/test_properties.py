"""Property tests for the increment engine and the batched EM scheme.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic: the same examples are drawn on every run.
"""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irregmc.randomkit import BLOCK_PATHS, StreamTag, increment_batch, stream
from irregmc.sde import block_sums, coupled_terminal_batch, em_terminal_batch, make_model
from irregmc.stats import Welford

PROPS = settings(derandomize=True, max_examples=25, deadline=None, database=None)

seeds = st.integers(0, 2**64 - 1)
# windows start anywhere in the first three blocks and may cross block edges
firsts = st.integers(0, 3 * BLOCK_PATHS)
models = st.sampled_from(["constant", "sincos", "sincos2d", "ode"])


def _model(name):
    return make_model(name, d=2) if name == "constant" else make_model(name)


@PROPS
@given(seed=seeds, d=st.integers(1, 2), n_fine=st.integers(1, 6), first=firsts,
       n_paths=st.integers(1, 2 * BLOCK_PATHS + 10), data=st.data())
def test_windows_equal_slices_of_one_call(seed, d, n_fine, first, n_paths, data):
    whole = increment_batch(seed, d, 1.0, n_fine, first, n_paths)
    cuts = sorted(data.draw(st.lists(st.integers(0, n_paths), max_size=4)))
    bounds = [0, *cuts, n_paths]
    parts = [(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # drawn in reverse order, each window still equals its slice
    for lo, hi in reversed(parts):
        window = increment_batch(seed, d, 1.0, n_fine, first + lo, hi - lo)
        assert np.array_equal(window, whole[lo:hi])


@PROPS
@given(seed=seeds, d=st.integers(1, 2), n_fine=st.integers(1, 5), first=firsts,
       n_paths=st.integers(1, 40))
def test_rows_are_columns_of_the_block_stream(seed, d, n_fine, first, n_paths):
    batch = increment_batch(seed, d, 2.0, n_fine, first, n_paths)
    scale = np.sqrt(2.0 / n_fine)
    blocks = {}
    for i in range(n_paths):
        b, col = divmod(first + i, BLOCK_PATHS)
        if b not in blocks:
            blocks[b] = stream(seed, b).standard_normal((n_fine, BLOCK_PATHS, d)) * scale
        assert np.array_equal(batch[i], blocks[b][:, col, :])


@PROPS
@given(seed=seeds, first=firsts, n_paths=st.integers(1, 64), n_fine=st.integers(1, 8))
def test_tags_separate_streams(seed, first, n_paths, n_fine):
    path = increment_batch(seed, 1, 1.0, n_fine, first, n_paths, StreamTag.PATH)
    aux = increment_batch(seed, 1, 1.0, n_fine, first, n_paths, StreamTag.AUXILIARY)
    assert not np.any(path == aux)


@PROPS
@given(seed=seeds, model=models, M=st.sampled_from([2, 3, 4, 8]),
       n_coarse=st.integers(1, 6), first=firsts, n_paths=st.integers(1, 20))
def test_coarse_terminals_are_em_on_block_sums(seed, model, M, n_coarse, first, n_paths):
    model = _model(model)
    inc = increment_batch(seed, model.d, 1.0, M * n_coarse, first, n_paths)
    fine, coarse = coupled_terminal_batch(model, inc, M)
    # the coarse increments are the fine ones summed in time order
    steps = np.ascontiguousarray(inc).reshape(n_paths, n_coarse, M, model.d)
    summed = reduce(np.add, [steps[:, :, j] for j in range(M)])
    assert np.array_equal(block_sums(inc, M), summed)
    assert np.array_equal(fine, em_terminal_batch(model, inc))
    assert np.array_equal(coarse, em_terminal_batch(model, summed))


@PROPS
@given(seed=seeds, a=st.integers(1, 4), b=st.integers(1, 4), n=st.integers(1, 3),
       n_paths=st.integers(1, 9))
def test_block_sums_telescope(seed, a, b, n, n_paths):
    inc = increment_batch(seed, 2, 1.0, a * b * n, 5, n_paths)
    assert np.array_equal(block_sums(inc, 1), inc)
    once = block_sums(block_sums(inc, a), b)
    assert np.allclose(once, block_sums(inc, a * b), rtol=1e-12, atol=1e-15)


@PROPS
@given(seed=seeds, model=models, n=st.integers(1, 12), n_paths=st.integers(1, 30))
def test_em_is_layout_invariant(seed, model, n, n_paths):
    model = _model(model)
    time_major = increment_batch(seed, model.d, 1.0, n, 0, n_paths)
    path_major = np.ascontiguousarray(time_major)
    assert np.array_equal(em_terminal_batch(model, time_major),
                          em_terminal_batch(model, path_major))


@PROPS
@given(seed=seeds, model=models, n=st.integers(1, 8), first=firsts,
       n_paths=st.integers(2, 40), cut=st.integers(1, 39))
def test_em_terminals_do_not_depend_on_the_batch(seed, model, n, first, n_paths, cut):
    model = _model(model)
    cut = min(cut, n_paths - 1)
    whole = em_terminal_batch(model, increment_batch(seed, model.d, 1.0, n, first, n_paths))
    head = em_terminal_batch(model, increment_batch(seed, model.d, 1.0, n, first, cut))
    tail = em_terminal_batch(
        model, increment_batch(seed, model.d, 1.0, n, first + cut, n_paths - cut))
    assert np.array_equal(whole, np.concatenate([head, tail]))


@PROPS
@given(seed=seeds, n=st.integers(1, 64), n_paths=st.integers(1, 16),
       mu=st.floats(-1.0, 1.0), sigma=st.floats(0.0, 2.0))
def test_constant_model_collapses_to_closed_form(seed, n, n_paths, mu, sigma):
    model = make_model("constant", mu=mu, sigma=sigma)
    inc = increment_batch(seed, 1, 1.0, n, 0, n_paths)
    x = em_terminal_batch(model, inc)[:, 0]
    closed = mu + sigma * inc.sum(axis=(1, 2))
    assert np.all(np.abs(x - closed) <= 1e-12 * np.maximum(1.0, np.abs(closed)))


@PROPS
@given(seed=seeds, first=firsts, n=st.integers(1, 2 * BLOCK_PATHS + 10), data=st.data())
def test_welford_folds_do_not_depend_on_block_aligned_windows(seed, first, n, data):
    values = np.random.default_rng(seed).standard_normal(n)
    edges = [e - first for e in range(first + 1, first + n) if e % BLOCK_PATHS == 0]
    cuts = sorted(data.draw(st.sets(st.sampled_from(edges))) if edges else [])
    whole, parts = Welford(), Welford()
    whole.update(values, first)
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        parts.update(values[lo:hi], first + lo)
    assert (parts.count, parts.mean, parts.variance) == (whole.count, whole.mean, whole.variance)
