"""Property tests for the increment engine, the batched EM scheme and the
batched maximal operators.

Hypothesis runs derandomized with a bounded number of examples, so the suite
stays deterministic: the same examples are drawn on every run.
"""

import math
import threading
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irregmc.maximal import (
    maximal_at,
    random_atomic_measure,
    random_density_1d,
    random_density_2d,
)
from irregmc import randomkit
from irregmc.randomkit import (
    BLOCK_PATHS,
    StreamTag,
    block_streams,
    carried_sums,
    increment_batch,
    path_layout,
    stream,
)
from irregmc.sde import (
    StepCounter,
    block_sums,
    coupled_terminal_batch,
    em_terminal_batch,
    make_model,
    path_terminals,
)
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
@given(seed=seeds, d=st.integers(1, 2), n_fine=st.integers(1, 80), first=firsts,
       n_paths=st.integers(1, BLOCK_PATHS + 10), data=st.data())
def test_time_chunks_equal_slices_of_one_call(seed, d, n_fine, first, n_paths, data):
    whole = increment_batch(seed, d, 1.0, n_fine, first, n_paths)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n_fine - 1), max_size=4))
                      if n_fine > 1 else []))
    streams = block_streams(seed, first, n_paths)
    for lo, hi in zip([0, *cuts], [*cuts, n_fine]):
        chunk = increment_batch(seed, d, 1.0, n_fine, first, n_paths,
                                streams=streams, n_steps=hi - lo)
        assert np.array_equal(chunk, whole[:, lo:hi])


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
@given(seed=seeds, index=st.integers(0, 2**63 - 1), n=st.integers(1, 512))
def test_tags_separate_streams(seed, index, n):
    path = stream(seed, index, StreamTag.PATH).standard_normal(n)
    aux = stream(seed, index, StreamTag.AUXILIARY).standard_normal(n)
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


@pytest.mark.parametrize("overlap", [False, True])
@PROPS
@given(seed=seeds, model=models, factors=st.sets(st.sampled_from([1, 2, 3, 4, 8]), max_size=3),
       r=st.integers(2, 5), first=firsts, data=st.data())
def test_path_terminals_are_em_on_each_window_and_its_block_sums(overlap, seed, model, factors,
                                                                 r, first, data):
    model = _model(model)
    factors = sorted(factors)
    multiple = math.lcm(*factors)
    n_fine = multiple * r
    one_block = multiple * BLOCK_PATHS * model.d
    default = (randomkit.CHUNK_NORMALS, randomkit._DRAW_NORMALS)
    if overlap:
        # 1024-path windows whose `multiple` steps fill half the budget, so
        # every whole window is over it, in chunks of `multiple` // 4 steps
        # (at least one): coarse steps straddle chunks
        n_paths = data.draw(st.integers(2 * BLOCK_PATHS, 6 * BLOCK_PATHS))
        budgets = (2 * one_block, BLOCK_PATHS * model.d)
    else:
        # 1024-path windows too small to overlap, in inline chunks of
        # 2 * `multiple` steps, or the default budgets, which overlap the
        # largest of these sweeps
        n_paths = data.draw(st.integers(1, 6 * BLOCK_PATHS))
        budgets = data.draw(st.sampled_from([(16 * one_block, BLOCK_PATHS * model.d),
                                             default]))
    on_main = []

    def draw(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return increment_batch(*args, **kwargs)

    counter = StepCounter()
    saved = randomkit.CHUNK_NORMALS, randomkit._DRAW_NORMALS
    randomkit.CHUNK_NORMALS, randomkit._DRAW_NORMALS = budgets
    try:
        overlaps = path_layout(first, n_paths, n_fine, multiple, model.d)[1]
        yielded = list(path_terminals(model, draw, seed, n_fine, first, n_paths, factors,
                                      counter))
    finally:
        randomkit.CHUNK_NORMALS, randomkit._DRAW_NORMALS = saved
    assert overlaps == overlap or budgets == default
    assert set(on_main) == {not overlaps}
    # windows that cover the range in order
    edges = [first] + [w + b for w, b, _, _ in yielded]
    assert [w for w, _, _, _ in yielded] == edges[:-1] and edges[-1] == first + n_paths
    for w, b, fine, coarse in yielded:
        inc = increment_batch(seed, model.d, model.T, n_fine, w, b)
        assert np.array_equal(fine, em_terminal_batch(model, inc))
        assert len(coarse) == len(factors)
        for M, x in zip(factors, coarse):
            assert np.array_equal(x, em_terminal_batch(model, block_sums(inc, M)))
    assert counter.steps == n_paths * (n_fine + sum(n_fine // M for M in factors))


@PROPS
@given(first=st.integers(0, 1 << 20), n_paths=st.integers(0, 1 << 18),
       multiple=st.sampled_from([1, 2, 4, 24, 512, 4096]), r=st.integers(1, 8),
       d=st.integers(1, 3), chunk_log=st.integers(12, 22), draw_log=st.integers(10, 17))
def test_path_layout_covers_aligns_and_bounds_its_chunks(first, n_paths, multiple, r, d,
                                                         chunk_log, draw_log):
    n_fine = multiple * r
    saved = randomkit.CHUNK_NORMALS, randomkit._DRAW_NORMALS
    randomkit.CHUNK_NORMALS, randomkit._DRAW_NORMALS = 1 << chunk_log, 1 << draw_log
    try:
        windows, overlap = path_layout(first, n_paths, n_fine, multiple, d)
    finally:
        randomkit.CHUNK_NORMALS, randomkit._DRAW_NORMALS = saved
    if n_paths == 0:
        assert windows == [] and not overlap
        return
    width = min((1 << draw_log) // d, (1 << chunk_log) // (2 * multiple * d))
    width = max(BLOCK_PATHS, 1 << (width.bit_length() - 1) if width else 0)
    # in order, contiguous, cut at multiples of the width
    starts = [w for w, _, _ in windows]
    assert starts[0] == first
    assert [w + b for w, b, _ in windows] == [*starts[1:], first + n_paths]
    assert all((w + b) % width == 0 for w, b, _ in windows[:-1])
    assert all(b <= width for _, b, _ in windows)
    # every chunk is as many steps as fit an eighth of CHUNK_NORMALS, or one
    # step over it, whatever `multiple`; only a window's last is shorter
    eighth = (1 << chunk_log) // 8
    for _, b, chunks in windows:
        assert [k0 for k0, _ in chunks] == list(np.cumsum([0] + [k for _, k in chunks[:-1]]))
        assert sum(k for _, k in chunks) == n_fine
        assert all(k == max(1, eighth // (b * d)) for _, k in chunks[:-1])
        assert all(b * k * d <= eighth or k == 1 for _, k in chunks)
    # a sweep past half of CHUNK_NORMALS overlaps, and only where some window
    # has several chunks
    widest = max(b for _, b, _ in windows)
    assert overlap == (widest * n_fine * d > (1 << chunk_log) // 2)
    assert not overlap or any(len(chunks) > 1 for _, _, chunks in windows)


@PROPS
@given(seed=seeds, d=st.integers(1, 2), first=firsts,
       n_paths=st.one_of(st.integers(1, 40), st.just(1500)),
       factors=st.one_of(st.just({3, 8, 24}), st.sets(st.sampled_from([1, 2, 3, 4, 5, 8, 24]),
                                                      min_size=1, max_size=3)),
       r=st.integers(1, 3), lengths=st.lists(st.integers(1, 50), min_size=1, max_size=6))
@example(seed=5, d=1, first=BLOCK_PATHS - 1, n_paths=1, factors={3, 8, 24}, r=2,
         lengths=[5, 17])  # one number per step, where numpy would sum pairwise
def test_carried_sums_are_block_sums_of_the_window(seed, d, first, n_paths, factors, r,
                                                   lengths):
    # chunks of arbitrary lengths, cycling through `lengths`, not multiples
    # of any factor; in order, the coarse increments each chunk completes are
    # block_sums over the whole window, bit for bit
    n_fine = math.lcm(*factors) * r
    streams = block_streams(seed, first, n_paths)
    accs = {M: np.empty((n_paths, d)) for M in factors}
    got = {M: [] for M in factors}
    k0, i = 0, 0
    while k0 < n_fine:
        k = min(lengths[i % len(lengths)], n_fine - k0)
        buf = np.empty((k + 1, n_paths, d))
        increment_batch(seed, d, 1.0, n_fine, first, n_paths, streams=streams, n_steps=k,
                        out=buf[1:])
        for M in factors:
            got[M].append(carried_sums(buf, k0, M, accs[M]))
            assert got[M][-1].shape == ((k0 + k) // M - k0 // M, n_paths, d)
        k0, i = k0 + k, i + 1
    whole = increment_batch(seed, d, 1.0, n_fine, first, n_paths)
    for M in factors:
        assert np.array_equal(np.concatenate(got[M]).transpose(1, 0, 2), block_sums(whole, M))


def test_path_terminals_draw_bounded_chunks_whatever_the_factor(monkeypatch):
    # factor 256 spans 20 to 128 chunks of these windows; chunks of whole
    # coarse steps would hold 256 steps, up to 2**18 normals
    budget = 1 << 14
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    drawn = []

    def draw(*args, **kwargs):
        inc = increment_batch(*args, **kwargs)
        drawn.append(inc.size)
        return inc

    model, seed, factors = make_model("sincos"), 3, (4, 256)
    yielded = list(path_terminals(model, draw, seed, 256, 700, 1500, factors))
    assert [(w, b) for w, b, _, _ in yielded] == [(700, 324), (1024, 1024), (2048, 152)]
    assert max(drawn) <= budget // 8 and sum(drawn) == 1500 * 256
    for w, b, fine, coarse in yielded:
        inc = increment_batch(seed, model.d, model.T, 256, w, b)
        assert np.array_equal(fine, em_terminal_batch(model, inc))
        for M, x in zip(factors, coarse):
            assert np.array_equal(x, em_terminal_batch(model, block_sums(inc, M)))


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


MEASURE_MAKERS = [random_atomic_measure, random_density_1d, random_density_2d]


@PROPS
@given(seed=seeds, kind=st.integers(0, 2), n=st.integers(1, 24), finite=st.booleans(),
       data=st.data())
def test_maximal_rows_do_not_depend_on_the_batch(seed, kind, n, finite, data):
    rng = np.random.default_rng(seed)
    nu = MEASURE_MAKERS[kind](rng)
    xs = rng.uniform(-3.0, 3.0, (n, nu.d))
    if nu.is_atomic:  # some points on atoms, where the value is inf
        hits = rng.integers(0, 2, n).astype(bool)
        xs[hits] = nu.atoms[rng.integers(0, nu.atoms.shape[0], n)][hits]
    R = rng.uniform(0.01, 3.0, n) if finite else np.full(n, np.inf)
    whole = maximal_at(nu, xs, R)
    assert whole.tolist() == [maximal_at(nu, x, r) for x, r in zip(xs, R)]
    order = np.asarray(data.draw(st.permutations(range(n))))
    assert np.array_equal(maximal_at(nu, xs[order], R[order]), whole[order])
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    parts = [maximal_at(nu, xs[lo:hi], R[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, n])]
    assert np.array_equal(np.concatenate(parts), whole)
