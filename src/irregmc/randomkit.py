"""Seedable Brownian increments from block-keyed, time-major SFC64 streams.

Path indices are grouped into fixed blocks of ``BLOCK_PATHS`` consecutive
paths, and each (master_seed, block, stream_tag) triple keys one SFC64 stream
(Doty-Humphrey's Small Fast Chaotic generator) through numpy's
``SeedSequence``, whose hashing keeps the streams of distinct keys independent
(numpy's "Parallel random number generation" guide). Streams are keyed, not
skipped: ziggurat rejection makes the words per normal vary, so no stream can
skip ahead, and each block is drawn forward from step 0. A block's stream is
read time-major: every path's step k comes before any path's step k+1.
Windows of paths are cut out of whole blocks, so a path's increments are
bit-identical whatever batch size or order produced them. Sequential draws
from one stream do not depend on how they are chunked, so a window can be
drawn in time chunks from block streams keyed once and carried from call to
call. Coarse increments are always obtained by summing fine ones, never by
bridge refinement, so the coarse/fine coupling is a structural identity.

``path_layout`` is the one rule that cuts a range of paths into windows and
time chunks, for every driver. Windows are cut at multiples of W, the largest
power of two no more than ``_DRAW_NORMALS // d`` and
``CHUNK_NORMALS // (2 * multiple * d)`` but at least ``BLOCK_PATHS``, so a
range narrower than W is one window; W sets the width of the arrays
Euler-Maruyama steps. Every chunk is as many steps as fit
``CHUNK_NORMALS // 8`` normals (2 MB), at least one, whatever the
coarsening factors. A sweep whose widest window holds more than
``CHUNK_NORMALS // 2`` normals in all draws its chunks on a background
thread, a smaller one inline: short sweeps would hand the GIL back and forth
between two threads for no gain, and inline chunks of a quarter of this
size made glibc trim and refault the heap on the wider windows (about 2300
page faults per MLMC run). So an MLMC top-up round is one window of a few
inline chunks, and a strong-rate sweep at n_ref = 4096 steps 2048-path
windows in overlapped 128-step chunks.

``sweep`` draws a range's windows chunk by chunk and hands out, for each
coarsening factor M the driver names, the coarse increments the chunk
completes. A coarse step may straddle chunks: the sweep carries the left
fold of the step in progress, one (b, d) partial per window and factor, from
one chunk to the next, and continues it in the chunk's spare row 0, so each
coarse increment is the time-order sum ``block_sums`` gives over the whole
window, bit for bit. When it overlaps, a background thread sums chunk j
while the caller steps it, and only then draws chunk j+1 (numpy's
``standard_normal(out=...)`` releases the GIL for the whole fill); each
block's stream is still advanced by one thread at a time, in the same order,
so every increment is bit-identical. At most chunk j, its sums, chunk j+1
and the partials are then alive: two chunks of at most ``CHUNK_NORMALS // 8``
normals, 1/M of a chunk per factor M, and F (b, d) partials for F factors.
"""

from __future__ import annotations

import enum
import math
from functools import partial

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .errors import InvalidArgumentError

_MASK64 = (1 << 64) - 1

# Paths per stream key. Part of the stream definition: changing it changes
# every increment drawn.
BLOCK_PATHS = 1024
# Normals per draw into the reusable block buffer, and the most paths times d
# in a window; sequential draws are chunk-invariant, so this bounds memory
# without touching the streams. Read at call time.
_DRAW_NORMALS = 1 << 16
# The sweep budget in normals (16 MB): each time chunk holds at most an eighth
# of it, and a sweep whose widest window holds more than half of it overlaps
# its draws. Read at call time.
CHUNK_NORMALS = 1 << 21


class StreamTag(enum.IntEnum):
    PATH = 0
    AUXILIARY = 1


def _check_key(master_seed: int, index: int) -> None:
    if not 0 <= master_seed <= _MASK64:
        raise InvalidArgumentError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    if not 0 <= index < 1 << 63:
        raise InvalidArgumentError(f"stream index must lie in [0, 2**63), got {index}")


def stream(master_seed: int, index: int, stream_tag: StreamTag = StreamTag.PATH) -> Generator:
    """Generator for the substream keyed [master_seed, (index << 1) | tag]."""
    _check_key(master_seed, index)
    # word 0 identifies the experiment, word 1 the substream; SeedSequence
    # takes exact Python ints, so seeds >= 2**63 stay exact
    key = SeedSequence([master_seed, (index << 1) | int(stream_tag)])
    return Generator(SFC64(key))


def derive_seed(master_seed: int, *words: int) -> int:
    """Mix extra words into a master seed (splitmix64-style) for sub-experiments."""
    z = master_seed & _MASK64
    for w in words:
        z = (z + 0x9E3779B97F4A7C15 + (w & _MASK64)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
    return z


def _blocks(first_path: int, n_paths: int) -> range:
    if n_paths == 0:
        return range(0)
    return range(first_path // BLOCK_PATHS, -(-(first_path + n_paths) // BLOCK_PATHS))


def block_streams(master_seed: int, first_path: int, n_paths: int) -> list[Generator]:
    """One PATH generator per block that paths first_path..first_path+n_paths-1 touch.

    Passed to ``increment_batch``, they carry a window's streams from one time
    chunk to the next; each block is keyed once here.
    """
    return [stream(master_seed, block) for block in _blocks(first_path, n_paths)]


def increment_batch(
    master_seed: int,
    d: int,
    T: float,
    n_fine: int,
    first_path: int,
    n_paths: int,
    streams: list[Generator] | None = None,
    n_steps: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Increments for paths first_path..first_path+n_paths-1, shape (B, n_steps, d).

    Path p belongs to block p // BLOCK_PATHS, whose stream fills an
    (n_fine, BLOCK_PATHS, d) array of standard normals in C order; row i of
    the result is the column of path first_path+i, scaled by sqrt(T/n_fine).
    Blocks the window only partly covers are drawn whole and sliced, so row i
    does not depend on the window. The result is the (B, n_steps, d) transpose
    of a C-contiguous (n_steps, B, d) array: ``result[:, k, :]`` is contiguous.

    Without ``streams`` the call keys the window's blocks and returns all
    n_fine steps (``n_steps`` defaults to n_fine). With ``streams`` from
    ``block_streams`` for the same window, it draws the next ``n_steps``
    steps of each block and the generators advance in place: successive
    calls return successive time chunks of the whole result, bit for bit.
    The increments go to ``out``, a C-contiguous (n_steps, B, d) array, when
    given; the result is its transpose.
    """
    if d < 1:
        raise InvalidArgumentError(f"d must be >= 1, got {d}")
    if n_fine < 1:
        raise InvalidArgumentError(f"n_fine must be >= 1, got {n_fine}")
    if T <= 0:
        raise InvalidArgumentError(f"T must be positive, got {T}")
    if first_path < 0:
        raise InvalidArgumentError(f"first_path must be nonnegative, got {first_path}")
    if n_paths < 0:
        raise InvalidArgumentError("n_paths must be nonnegative")
    n_steps = n_fine if n_steps is None else n_steps
    if not 1 <= n_steps <= n_fine:
        raise InvalidArgumentError(f"n_steps must lie in [1, n_fine={n_fine}], got {n_steps}")
    end = first_path + n_paths
    _check_key(master_seed, end // BLOCK_PATHS)
    blocks = _blocks(first_path, n_paths)
    if streams is None:
        streams = block_streams(master_seed, first_path, n_paths)
    if len(streams) != len(blocks):
        raise InvalidArgumentError(
            f"{len(streams)} streams given for a window over {len(blocks)} blocks")
    shape = (n_steps, n_paths, d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise InvalidArgumentError(f"out must be a C-contiguous array of shape {shape}")
    scale = np.sqrt(T / n_fine)
    rows = max(1, _DRAW_NORMALS // (BLOCK_PATHS * d))
    buf = np.empty((min(rows, n_steps), BLOCK_PATHS, d))
    for block, gen in zip(blocks, streams):
        start = block * BLOCK_PATHS
        lo, hi = max(first_path, start), min(end, start + BLOCK_PATHS)
        src = slice(lo - start, hi - start)
        dst = slice(lo - first_path, hi - first_path)
        for k in range(0, n_steps, rows):
            chunk = buf[: min(rows, n_steps - k)]
            gen.standard_normal(out=chunk)
            np.multiply(chunk[:, src], scale, out=out[k : k + len(chunk), dst])
    return out.transpose(1, 0, 2)


def time_chunks(n_fine: int, width: int, budget: int) -> list[tuple[int, int]]:
    """(k0, k) chunks covering steps 0..n_fine-1 of a window of ``width`` normals per step.

    Each chunk is as many steps as hold at most ``budget`` normals, and at
    least one step; only the last may be shorter.
    """
    step = max(1, budget // width)
    return [(k0, min(step, n_fine - k0)) for k0 in range(0, n_fine, step)]


def path_layout(first_path: int, n_paths: int, n_fine: int, multiple: int = 1, d: int = 1):
    """(windows, overlap) for paths first_path..first_path+n_paths-1: the one window rule.

    ``windows`` lists (first, b, chunks) in path order, with ``chunks`` the
    window's ``time_chunks`` of at most ``CHUNK_NORMALS // 8`` normals each;
    ``overlap`` says whether a sweep draws them on a background thread.
    ``multiple``, the lcm of the coarsening factors, narrows the windows; the
    chunks do not depend on it. The module docstring states the rule.
    """
    width = min(_DRAW_NORMALS // d, CHUNK_NORMALS // (2 * multiple * d))
    width = 1 << (max(BLOCK_PATHS, width).bit_length() - 1)
    spans, pos, end = [], first_path, first_path + n_paths
    while pos < end:
        spans.append((pos, min(end, (pos // width + 1) * width) - pos))
        pos += spans[-1][1]
    widest = max((b for _, b in spans), default=0)
    windows = [(pos, b, time_chunks(n_fine, b * d, CHUNK_NORMALS // 8)) for pos, b in spans]
    return windows, widest * n_fine * d > CHUNK_NORMALS // 2


def block_sums(increments: np.ndarray, M: int, out: np.ndarray | None = None) -> np.ndarray:
    """Coarse increments (B, n // M, d): sums of M consecutive fine steps.

    Each sum is added step by step in time order, so a path's coarse
    increments do not depend on the batch it was drawn in or on the layout.
    The sums go to ``out``, a C-contiguous (n // M, B, d) array, when given;
    the result is its transpose.
    """
    n = increments.shape[1]
    if M < 1 or n % M != 0:
        raise InvalidArgumentError(f"refinement {M} does not divide n_fine={n}")
    steps = increments.transpose(1, 0, 2)  # (n, B, d); a view, never a copy
    shape = (n // M, *steps.shape[1:])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise InvalidArgumentError(f"out must have shape {shape}, got {out.shape}")
    if steps[0].size < 2:
        # numpy would reduce a lone number per step pairwise, not in time order
        np.copyto(out, steps[0::M])
        for j in range(1, M):
            out += steps[j::M]
    else:
        # over a C-contiguous time-major array numpy adds the M steps of a
        # block one after another into the (B, d) sums: the same left fold
        blocks = np.ascontiguousarray(steps).reshape(n // M, M, *shape[1:])
        np.add.reduce(blocks, axis=1, out=out)
    return out.transpose(1, 0, 2)


def carried_sums(buf: np.ndarray, k0: int, M: int, acc: np.ndarray) -> np.ndarray:
    """The coarse increments of factor M that a time chunk completes, (c, b, d).

    ``buf`` is a C-contiguous (k + 1, b, d) array whose rows 1..k hold steps
    k0..k0+k-1 of a window; row 0 is spare. ``acc`` (b, d) holds the left
    fold of the k0 % M steps of the coarse step in progress, and is left
    holding that of the step in progress after the chunk. The result holds
    coarse steps k0 // M to (k0 + k) // M - 1, each the time-order sum
    ``block_sums`` gives over the whole window.
    """
    k = len(buf) - 1
    steps = buf.transpose(1, 0, 2)  # what block_sums takes; each slice of it is contiguous
    out = np.empty(((k0 + k) // M - k0 // M, *buf.shape[1:]))
    row, done = 1, 0
    if k0 % M:
        # continue the fold in progress: acc, then the chunk's first steps
        need = M - k0 % M
        buf[0] = acc
        if need > k:
            block_sums(steps, k + 1, acc[None])
            return out
        block_sums(steps[:, : need + 1], need + 1, out[:1])
        row, done = need + 1, 1
    whole = (k + 1 - row) // M * M
    if whole:
        block_sums(steps[:, row : row + whole], M, out[done:])
    if row + whole <= k:  # a fresh fold, for the next chunk to continue
        block_sums(steps[:, row + whole :], k + 1 - row - whole, acc[None])
    return out


def sweep(draw, master_seed: int, d: int, T: float, n_fine: int, first_path: int,
          n_paths: int, factors=()):
    """Yield (first, b, k0, k, increments, sums) for each time chunk of each window, in order.

    The windows and chunks of paths first_path..first_path+n_paths-1 are
    those of ``path_layout``, with windows narrowed by the lcm of the
    ``factors``, each of which must divide n_fine. ``draw`` is
    ``increment_batch`` as the caller looks it up; each chunk is
    ``draw(master_seed, d, T, n_fine, first, b, streams=..., n_steps=k,
    out=...)`` with the window's blocks keyed once, into the last k rows of a
    (k + 1, b, d) buffer (k rows without factors). ``sums()`` returns, per
    factor M, the (b, c, d) coarse increments of the c coarse steps from k0 // M
    that the chunk completes (``carried_sums``; c may be 0), waiting for the
    background thread when the sweep overlaps its draws. In order, a window's
    sums are ``block_sums`` of its increments, bit for bit. Chunk j is summed
    and chunk j+1 drawn while the caller holds chunk j, so the caller should
    drop the increments and ``sums`` before asking for the next. An exception in
    a draw or a sum reaches the caller; no thread outlives the generator.
    """
    for M in factors:
        if M < 1 or n_fine % M:
            raise InvalidArgumentError(f"refinement {M} does not divide n_fine={n_fine}")
    windows, overlap = path_layout(first_path, n_paths, n_fine, math.lcm(*factors), d)
    spare = int(bool(factors))  # carried_sums's row 0

    def calls():
        for first, b, chunks in windows:
            streams = block_streams(master_seed, first, b)
            accs = [np.empty((b, d)) for _ in factors]  # the folds carried across chunks
            for k0, k in chunks:
                yield ((first, b, k0, k), partial(drawn, first, b, k, streams),
                       partial(summed, k0, accs))

    def drawn(first, b, k, streams):
        buf = np.empty((k + spare, b, d))
        draw(master_seed, d, T, n_fine, first, b, streams=streams, n_steps=k, out=buf[spare:])
        return buf

    def summed(k0, accs, buf):
        return [carried_sums(buf, k0, M, acc).transpose(1, 0, 2)
                for M, acc in zip(factors, accs)]

    if not overlap:
        for where, draw_chunk, sum_chunk in calls():
            buf = draw_chunk()
            sums = sum_chunk(buf)
            yield *where, buf[spare:].transpose(1, 0, 2), lambda sums=sums: sums
            del buf, sums  # before the next chunk is drawn
        return
    from concurrent.futures import ThreadPoolExecutor  # only sweeps that overlap

    with ThreadPoolExecutor(max_workers=1) as pool:  # joined on exit, even on error

        def summing(where, sum_chunk, drawing):
            buf = drawing.result()
            sums = pool.submit(sum_chunk, buf)
            return *where, buf[spare:].transpose(1, 0, 2), sums.result

        ahead = None  # (where, sum_chunk, future) of the draw in flight
        for where, draw_chunk, sum_chunk in calls():
            ready = ahead and summing(*ahead)
            ahead = where, sum_chunk, pool.submit(draw_chunk)  # drawn once those sums are done
            if ready:
                yield ready
                del ready  # chunk j goes before chunk j+1 is summed
        if ahead:
            yield summing(*ahead)
