import numpy as np
import pytest

from irregmc import avikainen as av
from irregmc.errors import InvalidArgumentError
from irregmc.payoff import make_payoff
from irregmc.randomkit import (
    BLOCK_PATHS,
    StreamTag,
    derive_seed,
    increment_batch,
    path_windows,
    stream,
)
from irregmc.sde import block_sums


def test_same_seed_is_bitwise_identical():
    a = increment_batch(42, 2, 1.0, 64, 3, 5)
    b = increment_batch(42, 2, 1.0, 64, 3, 5)
    assert np.array_equal(a, b)


def test_distinct_paths_and_tags_differ():
    base = increment_batch(42, 1, 1.0, 32, 0, 2)
    aux = increment_batch(42, 1, 1.0, 32, 0, 1, StreamTag.AUXILIARY)
    other_block = increment_batch(42, 1, 1.0, 32, BLOCK_PATHS, 1)
    assert not np.allclose(base[0], base[1])
    assert not np.allclose(base[0], aux[0])
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
    assert drawn[0] == [2.6292954581206547, -1.0641639569917798]
    assert rep.lhs.tolist() == [0.1312, 0.0628]
    for i, first_two in enumerate(drawn):
        gen = stream(derive_seed(113, i), 0, StreamTag.AUXILIARY)
        assert gen.standard_normal(2).tolist() == first_two


def test_seeds_above_2_63_stay_exact():
    # keys differing only in low bits of a large seed give different streams
    a = increment_batch(2**63 + 1, 1, 1.0, 4, 0, 1)
    b = increment_batch(2**63 + 2, 1, 1.0, 4, 0, 1)
    top = increment_batch(2**64 - 1, 1, 1.0, 4, 0, 1)
    assert not np.array_equal(a, b)
    assert np.all(np.isfinite(top))


def test_path_windows_cover_and_align():
    for first, n, per_path in [(0, 5000, 1), (1000, 3000, 256), (7, 10, 1 << 22)]:
        wins = list(path_windows(first, n, per_path))
        starts = [s for s, _ in wins]
        assert starts[0] == first
        assert sum(c for _, c in wins) == n
        assert all(s + c == t for (s, c), t in zip(wins, starts[1:]))
        size = max(c for _, c in wins)
        assert all((s + c) % size == 0 for s, c in wins[:-1])
    # windows split no block (so none is drawn twice) while a block holds at
    # most 2**24 normals; past that they narrow to 2**24 normals
    for per_path in (256, 4096, 1 << 14):
        wins = list(path_windows(100, 5000, per_path))
        blocks = [b for s, c in wins
                  for b in range(s // BLOCK_PATHS, -(-(s + c) // BLOCK_PATHS))]
        assert len(blocks) == len(set(blocks))
    assert max(c for _, c in path_windows(0, 5000, 1 << 15)) == BLOCK_PATHS // 2
    assert list(path_windows(3, 0, 16)) == []


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1) != derive_seed(2)
