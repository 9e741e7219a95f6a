import threading
import tracemalloc

import numpy as np
import pytest

from irregmc import avikainen as av
from irregmc import randomkit
from irregmc.errors import InvalidArgumentError
from irregmc.payoff import make_payoff
from irregmc.randomkit import (
    BLOCK_PATHS,
    StreamTag,
    block_streams,
    block_sums,
    derive_seed,
    increment_batch,
    path_layout,
    stream,
    sweep,
    time_chunks,
)


def test_same_seed_is_bitwise_identical():
    a = increment_batch(42, 2, 1.0, 64, 3, 5)
    b = increment_batch(42, 2, 1.0, 64, 3, 5)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    base = increment_batch(42, 1, 1.0, 32, 0, 2)
    other_block = increment_batch(42, 1, 1.0, 32, BLOCK_PATHS, 1)
    assert not np.allclose(base[0], base[1])
    assert not np.allclose(base[0], other_block[0])


def test_preconditions():
    # the checks the per-path layer used to make, and an empty d
    good = {"master_seed": 1, "d": 1, "T": 1.0, "n_fine": 8, "first_path": 0,
            "n_paths": 4}
    for bad in [{"n_fine": 0}, {"T": -1.0}, {"d": 0}, {"first_path": -1},
                {"n_paths": -1}, {"master_seed": -1}, {"master_seed": 2**64}]:
        with pytest.raises(InvalidArgumentError):
            increment_batch(**(good | bad))


def test_variance_scaling_clt():
    # B(T) = sum of increments should have variance T within 3 standard errors
    N, n_fine = 100_000, 16
    inc = increment_batch(7, 1, 1.0, n_fine, 0, N)
    b_T = inc.sum(axis=(1, 2))
    se = np.sqrt(2.0 / N)
    assert abs(np.var(b_T) - 1.0) < 3 * se


def test_increment_moments():
    # 10^5 draws: per-coordinate mean within 4 SE of 0, variance within 4 SE of T/n
    T, n_fine, n_paths = 2.0, 100, 1000
    inc = increment_batch(11, 1, T, n_fine, 0, n_paths).ravel()
    n = inc.size
    var_target = T / n_fine
    assert abs(inc.mean()) < 4 * np.sqrt(var_target / n)
    assert abs(inc.var() - var_target) < 4 * var_target * np.sqrt(2.0 / n)


def test_substream_independence():
    # correlation between B(T) of adjacent paths within 4 SE of zero
    N = 100_000
    inc = increment_batch(13, 1, 1.0, 1, 0, 2 * N)[:, 0, 0]
    x, y = inc[0::2], inc[1::2]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(N)


def test_coarsen_identity_and_definition():
    inc = increment_batch(5, 1, 1.0, 4, 0, 3)
    assert np.array_equal(block_sums(inc, 1), inc)
    a, b, c, d = inc[:, :, 0].T
    two = block_sums(inc, 2)
    assert np.array_equal(two[:, :, 0], np.stack([a + b, c + d], axis=1))
    with pytest.raises(InvalidArgumentError):
        block_sums(inc, 3)
    with pytest.raises(InvalidArgumentError):
        block_sums(inc, 0)
    with pytest.raises(InvalidArgumentError):
        block_sums(inc, 2, np.empty((2, 4, 1)))  # sums of 3 paths do not fit 4


def test_coarsen_telescoping():
    inc = increment_batch(17, 2, 3.0, 36, 2, 5)
    once = block_sums(block_sums(inc, 2), 3)
    direct = block_sums(inc, 6)
    assert np.allclose(once, direct, rtol=1e-12)


def test_coarse_marginals_are_brownian():
    # summed blocks must have variance M * (T/n_fine) per coordinate
    N, n_fine, M = 50_000, 8, 4
    inc = increment_batch(23, 1, 1.0, n_fine, 0, N)
    coarse = block_sums(inc, M).ravel()
    target = M / n_fine
    assert abs(coarse.var() - target) < 4 * target * np.sqrt(2.0 / coarse.size)


def _left_fold(inc, M):
    """Sums of M consecutive steps, each added one step at a time in time order."""
    B, n, d = inc.shape
    out = np.empty((B, n // M, d))
    for c in range(n // M):
        acc = inc[:, c * M].copy()
        for j in range(1, M):
            acc += inc[:, c * M + j]
        out[:, c] = acc
    return out


@pytest.mark.parametrize("B, d", [(1, 1), (1, 2), (2, 1), (2048, 1)])
@pytest.mark.parametrize("M", [1, 2, 3, 4, 8, 512])
def test_block_sums_are_a_time_order_left_fold(B, d, M):
    # at B * d = 1 a numpy reduce would sum each block pairwise
    inc = increment_batch(31, d, 1.0, 2 * M, 0, B)
    layouts = {"time-major": inc, "path-major": np.ascontiguousarray(inc),
               "every other path": inc[::2], "reversed time": inc[:, ::-1]}
    for name, layout in layouts.items():
        expected = _left_fold(layout, M)
        assert np.array_equal(block_sums(layout, M), expected), name
        out = np.empty((2, len(layout), d))
        assert block_sums(layout, M, out).base is out
        assert np.array_equal(out.transpose(1, 0, 2), expected), name


def test_batch_matches_per_path():
    # the stream definition: block b's stream fills (n_fine, BLOCK_PATHS, d)
    # time-major; path p is column p - b * BLOCK_PATHS of block p // BLOCK_PATHS.
    # n_fine = 100 spans several draw chunks, so chunking must not show.
    first, n_paths, n_fine, d = BLOCK_PATHS - 3, 5, 100, 2
    batch = increment_batch(99, d, 1.5, n_fine, first, n_paths)
    scale = np.sqrt(1.5 / n_fine)
    blocks = [stream(99, b).standard_normal((n_fine, BLOCK_PATHS, d)) * scale
              for b in (0, 1)]
    for i in range(n_paths):
        b, col = divmod(first + i, BLOCK_PATHS)
        assert np.array_equal(batch[i], blocks[b][:, col, :])


def test_batch_is_time_major():
    inc = increment_batch(3, 2, 1.0, 8, 5, 300)
    assert inc.shape == (300, 8, 2)
    assert inc.transpose(1, 0, 2).flags.c_contiguous
    assert inc[:, 4, :].flags.c_contiguous


def test_auxiliary_stream_key_is_pinned(monkeypatch):
    # inequality_check draws grid point i from randomkit.stream's auxiliary
    # substream of derive_seed(seed, i); criteria 6a and 6b depend on it, so
    # its draws are pinned. derive_seed(113, 0) >= 2**63 checks the key is exact.
    drawn = []
    shift = av.PAIR_FAMILIES["gaussian_shift"]

    def recording(gen, N, t):
        x, xhat = shift(gen, N, t)
        drawn.append(x[:2, 0].tolist())
        return x, xhat

    monkeypatch.setitem(av.PAIR_FAMILIES, "gaussian_shift", recording)
    rep = av.inequality_check("gaussian_shift", make_payoff("interval_indicator"),
                              p=1.0, q=1.0, rule="bv", scale_grid=[0.2, 0.1],
                              N=5000, seed=113)
    assert derive_seed(113, 0) >= 2**63
    assert drawn[0] == [0.29579104924603705, -0.6029189488049875]
    assert rep.lhs.tolist() == [0.1436, 0.064]
    for i, first_two in enumerate(drawn):
        gen = stream(derive_seed(113, i), 0, StreamTag.AUXILIARY)
        assert gen.standard_normal(2).tolist() == first_two


def test_stream_is_sfc64_keyed_by_seed_sequence():
    # the stream definition: one SFC64 generator per key, seeded through
    # SeedSequence from the exact words [master_seed, (index << 1) | tag]
    firsts = []
    for seed in (0, 2**63 + 1, 2**64 - 1):
        for tag in StreamTag:
            for index in (0, 5):
                key = np.random.SeedSequence([seed, (index << 1) | tag])
                want = np.random.Generator(np.random.SFC64(key)).standard_normal(8)
                got = stream(seed, index, tag).standard_normal(8)
                assert np.array_equal(got, want)
                firsts.append(got[0])
    # neighbouring seeds, tags and block indices key different streams
    assert len(set(firsts)) == len(firsts)


def test_seeds_above_2_63_stay_exact():
    # keys differing only in low bits of a large seed give different streams
    a = increment_batch(2**63 + 1, 1, 1.0, 4, 0, 1)
    b = increment_batch(2**63 + 2, 1, 1.0, 4, 0, 1)
    top = increment_batch(2**64 - 1, 1, 1.0, 4, 0, 1)
    assert not np.array_equal(a, b)
    assert np.all(np.isfinite(top))


def test_path_windows_cover_and_align():
    for first, n, n_fine, multiple in [(0, 5000, 1, 1), (1000, 3000, 256, 4),
                                       (7, 10, 1 << 22, 1 << 22)]:
        wins = [(s, c) for s, c, _ in path_layout(first, n, n_fine, multiple)[0]]
        starts = [s for s, _ in wins]
        assert starts[0] == first
        assert sum(c for _, c in wins) == n
        assert all(s + c == t for (s, c), t in zip(wins, starts[1:]))
        size = max(c for _, c in wins)
        assert all((s + c) % size == 0 for s, c in wins[:-1])
    # windows split no block (so none is drawn twice) at any depth: drivers
    # draw a window in time chunks, so its width need not shrink
    for n_fine in (1, 16, 256, 4096, 1 << 16):
        for multiple in (1, 4, n_fine):
            wins = [(s, c) for s, c, _ in path_layout(100, 70_000, n_fine, multiple)[0]]
            blocks = [b for s, c in wins
                      for b in range(s // BLOCK_PATHS, -(-(s + c) // BLOCK_PATHS))]
            assert len(blocks) == len(set(blocks))
            aligned = path_layout(0, 70_000, n_fine, multiple)[0]
            assert all(s % BLOCK_PATHS == 0 and c % BLOCK_PATHS == 0
                       for s, c, _ in aligned[:-1])
    assert path_layout(3, 0, 16) == ([], False)


def test_rate_and_mlmc_round_layouts():
    # the strong-rate sweep at n_ref = 4096 with n down to 8: eight 2048-path
    # windows of 128-step chunks, each an eighth of CHUNK_NORMALS, overlapped
    windows, overlap = path_layout(0, 16384, 4096, 512, 1)
    assert [(s, c) for s, c, _ in windows] == [(s, 2048) for s in range(0, 16384, 2048)]
    assert all(chunks == [(k0, 128) for k0 in range(0, 4096, 128)] for *_, chunks in windows)
    assert 2048 * 128 == randomkit.CHUNK_NORMALS // 8 and overlap
    # an MLMC top-up round at level 4, M = 4: one window from inside block 1,
    # drawn inline in 113-step chunks of at most an eighth of CHUNK_NORMALS
    windows, overlap = path_layout(1500, 2300, 256, 4, 1)
    assert [(s, c) for s, c, _ in windows] == [(1500, 2300)]
    assert windows[0][2] == [(0, 113), (113, 113), (226, 30)]
    assert 2300 * 113 <= randomkit.CHUNK_NORMALS // 8 and not overlap


def test_chunks_do_not_grow_with_the_coarsening_factor():
    # n_ref = 65536 with n = 8: chunks whole coarse steps long held 8192
    # steps of a 1024-path window, 2**23 normals; carried sums cut them at
    # an eighth of CHUNK_NORMALS whatever the factor
    for multiple in (1, 8192, 65536):
        windows, overlap = path_layout(0, 4096, 65536, multiple)
        assert overlap
        assert max(b * k for _, b, chunks in windows for _, k in chunks) == 1 << 18


def test_block_streams_continue_across_calls():
    # 100 steps at d = 2 span several buffer draws per chunk; the window
    # crosses a block edge
    first, n_paths, n_fine, d = BLOCK_PATHS - 3, 5, 100, 2
    whole = increment_batch(99, d, 1.5, n_fine, first, n_paths)
    streams = block_streams(99, first, n_paths)
    assert len(streams) == 2
    parts = [increment_batch(99, d, 1.5, n_fine, first, n_paths, streams=streams, n_steps=k)
             for k in (1, 40, 59)]
    assert all(part.shape == (n_paths, k, d) for part, k in zip(parts, (1, 40, 59)))
    assert np.array_equal(np.concatenate(parts, axis=1), whole)
    assert block_streams(99, 7, 0) == []


def test_stream_arguments_are_checked():
    streams = block_streams(1, 0, 4)
    with pytest.raises(InvalidArgumentError):
        increment_batch(1, 1, 1.0, 8, 0, 2000, streams=streams)  # 2 blocks, 1 stream
    for bad in (0, 9):
        with pytest.raises(InvalidArgumentError):
            increment_batch(1, 1, 1.0, 8, 0, 4, streams=streams, n_steps=bad)
    # out= takes the time-major (n_steps, B, d) array the result transposes
    out = np.empty((8, 4, 1))
    assert increment_batch(1, 1, 1.0, 8, 0, 4, out=out).base is out
    assert np.array_equal(out.transpose(1, 0, 2), increment_batch(1, 1, 1.0, 8, 0, 4))
    for bad in (np.empty((8, 5, 1)), np.empty((8, 8, 1))[:, ::2]):
        with pytest.raises(InvalidArgumentError, match="C-contiguous"):
            increment_batch(1, 1, 1.0, 8, 0, 4, out=bad)


def test_time_chunks():
    assert time_chunks(64, 10, 1000) == [(0, 64)]  # 100 steps fit the budget
    assert time_chunks(60, 100, 1000) == [(k, 10) for k in range(0, 60, 10)]
    # a length that does not divide n_fine leaves a shorter last chunk
    assert time_chunks(64, 100, 1000) == [(k, 10) for k in range(0, 60, 10)] + [(60, 4)]
    # a step over the budget is one chunk anyway
    assert time_chunks(4, 2000, 1000) == [(k, 1) for k in range(4)]
    assert time_chunks(1, 10**6, 1000) == [(0, 1)]


def _sweep_by_window(first, n_paths, n_fine, factors, d=2):
    """{(first, b): chunks} of one sweep, checking its chunk order and threads."""
    before = threading.active_count()
    out = {}
    for w, b, k0, k, inc, _ in sweep(increment_batch, 11, d, 1.5, n_fine, first, n_paths,
                                     factors):
        assert threading.active_count() <= before + 1
        chunks = out.setdefault((w, b), [])
        assert k0 == sum(c.shape[1] for c in chunks)
        assert inc.shape == (b, k, d)
        chunks.append(inc)
    assert threading.active_count() == before
    return out


def test_sweep_chunks_are_slices_of_each_window(monkeypatch):
    budget = 1 << 14
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    # a one-block window of 40 steps holds more than half the budget: the
    # sweep overlaps its draws over one-block windows, the last block partly
    # covered, in one-step chunks of an eighth of the budget
    out = _sweep_by_window(0, 5596, 40, (4,))
    windows = [(0, 1024), (1024, 1024), (2048, 1024), (3072, 1024), (4096, 1024), (5120, 476)]
    assert list(out) == windows
    assert max(c.size for chunks in out.values() for c in chunks) <= budget // 8
    for (first, b), chunks in out.items():
        whole = increment_batch(11, 2, 1.5, 40, first, b)
        assert np.array_equal(np.concatenate(chunks, axis=1), whole)
    # chunk lengths do not depend on the factors: 8 and 40 steps, over
    # several chunks, give the same one-step chunks
    for factors in ((8,), (8, 40)):
        out = _sweep_by_window(0, 5596, 40, factors)
        assert [c.shape[1] for c in out[(0, 1024)]] == [1] * 40
    # four steps of the widest window fit half the budget: drawn inline
    assert not path_layout(3000, 1000, 4, 4, 2)[1]
    out = _sweep_by_window(3000, 1000, 4, (4,))
    assert [c.shape[1] for c in out[(3000, 72)]] == [4]
    assert [c.shape[1] for c in out[(3072, 928)]] == [1] * 4
    assert list(sweep(increment_batch, 11, 2, 1.5, 40, 0, 0)) == []
    # a factor that does not divide n_fine would leave its last fold unsummed
    for factors in ((3,), (0,), (4, 6)):
        with pytest.raises(InvalidArgumentError, match="does not divide"):
            list(sweep(increment_batch, 11, 2, 1.5, 40, 0, 10, factors))


def test_sweep_holds_two_chunks(monkeypatch):
    # chunk being stepped + chunk being drawn + the draw's buffer; a third
    # chunk held anywhere would add 320 kB
    budget = 1 << 18
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    tracemalloc.start()
    try:
        # one window of 4-step chunks: an eighth of the budget each, overlapped
        for *_, inc, sums in sweep(increment_batch, 3, 1, 1.0, 256, 0, 8192):
            assert inc.size == budget // 8
            del inc, sums
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_bytes = 8 * 4 * 8192  # no spare row without factors
    assert peak <= 2 * chunk_bytes + 8 * randomkit._DRAW_NORMALS + (1 << 16)


@pytest.mark.parametrize("factors, spare", [((), 0), ((4,), 1)], ids=["none", "M4"])
def test_sweep_spares_a_row_only_for_carried_sums(factors, spare):
    # row 0 of a chunk's buffer holds carried_sums' fold in progress; with no
    # factors nothing is carried, and each draw's out spans its whole buffer
    rows = []

    def drawing(*args, out, **kwargs):
        rows.append(len(out if out.base is None else out.base) - len(out))
        return increment_batch(*args, out=out, **kwargs)

    for *_, inc, sums in sweep(drawing, 11, 2, 1.5, 40, 0, 100, factors):
        del inc, sums
    assert rows and set(rows) == {spare}


@pytest.mark.parametrize("overlap", [True, False])
def test_sweep_sums_are_block_sums_of_its_increments(monkeypatch, overlap):
    # at 2**14 normals a one-block window of 40 steps is over half the
    # budget, so that sweep overlaps, in one-step chunks; at 2**20 the whole
    # range is one window that fits half of it, drawn and summed inline in
    # 11-step chunks. Both cut coarse steps of 2 and 4 across chunks.
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", 1 << 14 if overlap else 1 << 20)
    factors = (1, 2, 4)
    events = []
    carry = randomkit.carried_sums

    def drawing(*args, **kwargs):
        events.append("draw")
        return increment_batch(*args, **kwargs)

    def summing(buf, k0, M, acc):
        events.append(("sum", k0, M, threading.current_thread() is threading.main_thread()))
        return carry(buf, k0, M, acc)

    monkeypatch.setattr(randomkit, "carried_sums", summing)
    chunks, windows = [], {}
    for w, b, k0, k, inc, sums in sweep(drawing, 11, 2, 1.5, 40, 0, 5596, factors):
        got = sums()
        assert [s.shape for s in got] == [(b, (k0 + k) // M - k0 // M, 2) for M in factors]
        windows.setdefault((w, b), []).append(got)
        chunks.append(k0)
        del inc, sums
    # overlapped: five one-block windows of 40 chunks, the last of 20 two-step chunks
    assert (len(chunks), len(windows)) == ((220, 6) if overlap else (4, 1))
    for (w, b), got in windows.items():
        whole = increment_batch(11, 2, 1.5, 40, w, b)
        for i, M in enumerate(factors):
            assert np.array_equal(np.concatenate([g[i] for g in got], axis=1),
                                  block_sums(whole, M))
    # chunk j is summed before chunk j+1 is drawn, off the caller's thread
    # when the sweep overlaps
    assert events == [e for k0 in chunks
                      for e in ["draw", *[("sum", k0, M, not overlap) for M in factors]]]


def test_sweep_holds_two_chunks_and_one_chunks_sums(monkeypatch):
    # rate-shaped: factors 1, 2, 4 and 8 sum to 8 rows of a 4-step chunk;
    # chunk j+1 summed before chunk j and its sums are dropped would add that
    budget = 1 << 18
    factors = (1, 2, 4, 8)
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", budget)
    chunks = 0
    tracemalloc.start()
    try:
        for *_, inc, sums in sweep(increment_batch, 3, 1, 1.0, 256, 0, 8192, factors):
            sums()
            chunks += 1
            del inc, sums
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == 64  # the sweep overlaps: 4-step chunks of an eighth of the budget
    row = 8 * 8192
    sums_bytes = (4 + 2 + 1 + 1) * row
    accs_bytes = len(factors) * row
    draw_bytes = 8 * randomkit._DRAW_NORMALS
    assert peak <= 2 * 5 * row + sums_bytes + accs_bytes + draw_bytes + (1 << 16)


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1) != derive_seed(2)
