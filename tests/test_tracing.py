"""The benchmark tracer's contract with the library.

``benchmarks/tracing.py`` rebinds each name in its ``TARGETS`` in the module
that looks the name up, reading the original from the owner's ``__dict__``.
A name the library drops or moves would end the traced benchmark run in a
``KeyError``, and a draw or step made through a name it does not rebind
would go uncounted. The tracer is loaded from its file and not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from irregmc import avikainen as av
from irregmc import diagnostics as dg
from irregmc import mlmc, randomkit
from irregmc.payoff import make_payoff
from irregmc.sde import StepCounter, make_model

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing beside it
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", module)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    """{(module, attribute path): (owner, name)} of every name the tracer rebinds."""
    out = {}
    for mod_name, path, _, _ in tracing.TARGETS:
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[(mod_name, path)] = owner, attr
    return out


def test_every_target_resolves(tracing):
    for (mod_name, path), (owner, attr) in _targets(tracing).items():
        assert attr in owner.__dict__, f"{mod_name}.{path}"


def _traced(tracing, run):
    """run() and its layer totals under the tracer, which must rebind every
    target while installed, restore every original after, and see no failure."""
    targets = _targets(tracing)
    originals = {key: owner.__dict__[attr] for key, (owner, attr) in targets.items()}
    tracer = tracing.Tracer()
    with tracer:
        assert all(owner.__dict__[attr] is not originals[key]
                   for key, (owner, attr) in targets.items())
        result = run()
    assert all(owner.__dict__[attr] is originals[key]
               for key, (owner, attr) in targets.items())
    _, by_layer = tracing.totals(tracer.spans)
    assert by_layer["randomkit"].failures == by_layer["sde"].failures == 0
    return result, by_layer


# the budgets of tests/test_sweep.py: every draw runs on the background thread
def test_traced_overlapped_curves_count_every_normal_and_step(monkeypatch, tracing):
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", 1 << 16)
    N, n_ref, n_list = 3000, 256, [8, 32, 64]
    counter = StepCounter()
    _, by_layer = _traced(tracing, lambda: av.qerror_curves(
        make_model("sincos"), [(make_payoff("interval_indicator"), 2.0)],
        n_list, N, n_ref, seed=4, counter=counter))
    assert by_layer["randomkit"].counts["normals"] == N * n_ref
    assert counter.steps == N * (n_ref + sum(n_list))
    assert by_layer["sde"].counts["path_steps"] == counter.steps


def test_traced_overlapped_level_counts_every_normal_and_step(monkeypatch, tracing):
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", 1 << 14)
    N, level, M = 3000, 3, 4
    counter = StepCounter()
    stats, by_layer = _traced(tracing, lambda: mlmc.level_sample(
        make_model("sincos"), make_payoff("interval_indicator", a=-1.5, b=1.5),
        level, M, N, seed=5, counter=counter))
    assert by_layer["randomkit"].counts["normals"] == N * M**level
    assert counter.steps == stats.cost == N * (M**level + M ** (level - 1))
    assert by_layer["sde"].counts["path_steps"] == counter.steps


def test_traced_overlapped_histogram_counts_every_normal_and_step(monkeypatch, tracing):
    monkeypatch.setattr(randomkit, "CHUNK_NORMALS", 1 << 14)
    N, n = 10_000, 64
    _, by_layer = _traced(tracing, lambda: dg.terminal_histogram(make_model("sincos"), n, N,
                                                                 40, seed=4))
    assert by_layer["randomkit"].counts["normals"] == N * n
    assert by_layer["sde"].counts["path_steps"] == N * n
