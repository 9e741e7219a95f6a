"""The drivers' path sweeps with the next time chunk drawn in the background.

Each driver runs several windows of several chunks each, the last window
covering part of a block, with ``CHUNK_NORMALS`` small enough that the sweep
overlaps its draws. Its outputs must be bit-identical to the same sweep drawn
inline and to the sweep of the default budgets (one window, drawn inline),
and no thread may outlive the call, whether it returns or raises.
"""

import concurrent.futures
import threading
from concurrent.futures import Future

import pytest

from irregmc import avikainen as av
from irregmc import diagnostics as dg
from irregmc import mlmc, randomkit, sde
from irregmc.errors import InvalidArgumentError, NumericFailureError
from irregmc.payoff import make_payoff
from irregmc.sde import make_model

# budgets that cut every window into several chunks of at most an eighth of
# each, with the sweep past half of it, so its draws overlap
OVERLAP_BUDGET = {"curves": 1 << 16, "level": 1 << 14, "histogram": 1 << 14}


def _curves():
    # lcm 32: 1024-path windows (0, 1024, 2048 with 952 paths) of 8-step
    # chunks; by default one window of 87-, 87- and 82-step chunks
    targets = [(make_payoff("clamp_ramp"), 2.0), (make_payoff("interval_indicator"), 1.0)]
    curves = av.qerror_curves(make_model("sincos"), targets, [8, 32, 64], 3000, 256, seed=4)
    return [(c.value.tolist(), c.stderr.tolist()) for c in curves]


def _level():
    # level 3 at M = 4: windows of 2048 and 952 paths, 64 steps in 1- and
    # 2-step chunks; by default one window of one chunk
    pay = make_payoff("interval_indicator", a=-1.5, b=1.5)
    stats = mlmc.level_sample(make_model("sincos"), pay, 3, 4, 3000, seed=5)
    return stats.mean, stats.variance


def _histogram():
    # windows of 8192 and 1808 paths, 64 steps in one-step chunks; by
    # default one window of 26-step chunks
    hist = dg.terminal_histogram(make_model("sincos"), 64, 10_000, 40, seed=4)
    return hist.edges.tolist(), hist.counts.tolist()


DRIVERS = {"curves": (_curves, av), "level": (_level, mlmc), "histogram": (_histogram, dg)}


class _InlineExecutor:
    """Stand-in for ThreadPoolExecutor that draws on the caller's thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _record_draw_threads(monkeypatch, module):
    threads = []
    draw = module.increment_batch

    def recording(*args, **kwargs):
        threads.append(threading.current_thread() is threading.main_thread())
        return draw(*args, **kwargs)

    monkeypatch.setattr(module, "increment_batch", recording)
    return threads


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_overlapped_sweep_equals_inline_and_one_chunk_sweeps(monkeypatch, driver):
    run, module = DRIVERS[driver]
    whole = run()  # the default budgets: one window, drawn inline
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", OVERLAP_BUDGET[driver])
    on_main = _record_draw_threads(monkeypatch, module)
    before = threading.active_count()
    overlapped = run()
    assert threading.active_count() == before
    # every draw runs on the background thread
    assert len(on_main) > 8 and not any(on_main)
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ThreadPoolExecutor", _InlineExecutor)
        inline = run()
    assert overlapped == inline == whole


def _fail_on_call(monkeypatch, module, name, call, exc):
    original = getattr(module, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    return failing


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("where", ["draw", "em"])
def test_no_thread_outlives_a_failed_sweep(monkeypatch, driver, where):
    run, module = DRIVERS[driver]
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", OVERLAP_BUDGET[driver])
    if where == "draw":
        exc = InvalidArgumentError("draw failed")
        _fail_on_call(monkeypatch, module, "increment_batch", 3, exc)
    else:
        exc = NumericFailureError("step failed")
        _fail_on_call(monkeypatch, sde, "em_terminal_batch", 5, exc)
    before = threading.active_count()
    with pytest.raises(type(exc), match="failed"):
        run()
    assert threading.active_count() == before


def test_small_sweeps_draw_on_the_callers_thread(monkeypatch):
    # an MLMC-sized round: one window of 113-step chunks, so nothing overlaps
    on_main = _record_draw_threads(monkeypatch, mlmc)
    pay = make_payoff("interval_indicator", a=-1.5, b=1.5)
    mlmc.level_sample(make_model("sincos"), pay, 4, 4, 2300, seed=1)
    assert len(on_main) == 3 and all(on_main)


class _NoThreads:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a sweep started a thread")


def test_mlmc_run_starts_no_thread(monkeypatch):
    # the benchmark's MLMC run: every top-up round is one window, or windows
    # of 65536 paths, of chunks of at most an eighth of CHUNK_NORMALS, drawn
    # and stepped on the caller's thread
    drawn = []
    draw = mlmc.increment_batch

    def recording(*args, **kwargs):
        inc = draw(*args, **kwargs)
        drawn.append(inc.shape)
        return inc

    monkeypatch.setattr(mlmc, "increment_batch", recording)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _NoThreads)
    res = mlmc.run_mlmc(make_model("sincos"), make_payoff("interval_indicator", a=-1.5, b=1.5),
                        0.005, M=4, seed=3)
    assert sum(b * k for b, k, _ in drawn) == sum(lv.N * 4**lv.level for lv in res.levels)
    assert max(b * k for b, k, _ in drawn) <= 1 << 18 == randomkit.CHUNK_NORMALS // 8


def test_overlapped_draws_hold_an_eighth_of_the_budget(monkeypatch):
    # rate-sized sweep scaled down: 2048-path windows (lcm 512) of 128-step
    # chunks, and 289-step chunks of the last 904 paths
    budget = 1 << 21
    drawn = []
    draw = av.increment_batch

    def recording(*args, **kwargs):
        inc = draw(*args, **kwargs)
        drawn.append((args[5], inc.size))
        return inc

    monkeypatch.setattr(av, "increment_batch", recording)
    assert randomkit.CHUNK_NORMALS == budget
    pay = make_payoff("interval_indicator", a=0.0, b=1.0)
    av.qerror_curves(make_model("sincos"), [(pay, 2.0)], [8, 512], 5000, 4096, seed=3)
    assert {paths for paths, _ in drawn} == {2048, 904}
    assert max(size for _, size in drawn) == budget // 8
    assert sum(size for _, size in drawn) == 5000 * 4096


def test_path_terminals_steps_the_fine_path_before_it_asks_for_the_sums(monkeypatch):
    # an overlapped sweep sums chunk j on its thread while the caller steps
    # chunk j's fine path; asking for the sums first would serialize the two.
    # Then each coarse path steps only if the chunk completes one of its steps.
    events = []
    sweep, em = sde.sweep, sde.em_terminal_batch
    factors = (4, 8)

    def recording_sweep(*args, **kwargs):
        for *where, inc, sums in sweep(*args, **kwargs):
            k0, k = where[2:]
            events.append(("chunk", sum((k0 + k) // M > k0 // M for M in factors)))
            yield *where, inc, lambda sums=sums: events.append("sums") or sums()

    def recording_em(*args, **kwargs):
        events.append("em")
        return em(*args, **kwargs)

    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", 1 << 12)
    monkeypatch.setattr(sde, "sweep", recording_sweep)
    monkeypatch.setattr(sde, "em_terminal_batch", recording_em)
    # one window of 3-step chunks
    list(sde.path_terminals(make_model("sincos"), randomkit.increment_batch, 4, 64, 0, 150,
                            factors))
    chunks = [e for e in events if e != "sums" and e != "em"]
    assert len(chunks) == 22 and {coarse for _, coarse in chunks} == {0, 1, 2}
    assert events == [e for chunk in chunks for e in [chunk, "em", "sums", *["em"] * chunk[1]]]
