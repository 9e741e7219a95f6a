"""SHA-256 digests of fixed irregmc outputs, to show that a change keeps them.

Each line is ``<sha256>  <name>`` for one output computed from fixed seeds:

- ``maximal_at`` (one point per call, and batches of points), ``maximal_field``
  and ``gsp_field`` on the seeded random measures, in 1D and 2D, and
  ``maximal_at`` on nodes and off-grid points of a 64-cell ball grid, whose
  dyadic spacing puts its nodes on the 2D kernel's bin table, and
  ``maximal_field`` of that grid at R = inf and 0.7 (its mass sits on an
  annulus, so the radius ladder stops elsewhere than on Gaussian bumps);
  2D ``maximal_at`` at far points ((+-9, 9), (1e5, 0) and (1e17, 0)) on a
  seeded random measure, on that ball grid and on one hot corner cell, at
  R = inf and 16, and at node points of a grid with h = 0.1, which is not
  exact; 1D ``maximal_at`` at node points of the 1024-cell tent G_{s,p} field with
  R = 2|x - y|, and 1D ``maximal_field`` on a grid with h = 3 2^-7, whose
  node points read the prefix by index, and on one with h = 0.01, whose
  points all take the interpolation; ``gsp_field``
  at (s, p) = (0.5, 2), where the power is a square, and at (0.3, 1.5),
  (0.5, 1) and (0.7, 3), where it takes |f(x) - f(y)| first, also on three
  piecewise-constant 2D grids whose row pairs take every form of the kernel
  (equal constant rows, one constant row, none): a half-plane step and a
  ball indicator on 64 cells, and a 33 x 33 grid of -0.0/+0.0 rows with rows
  of 0.5 and random rows among them; ``gsp_direct``: the direct pair kernel
  ``_gsp_field_direct`` at (0.5, 2) on each of those grids, which
  ``gsp_field`` leaves for its FFT correlations at p = 2 (a tree without it
  runs ``gsp_field``, whose p = 2 was that kernel, so comparing with such a
  tree checks that the kernel keeps its bits);
- ``superlevel_measure_atomic`` on the seeded atomic measures at 12 lambdas;
- ``mollified_ball_gradient``'s smoothed indicator and its |gradient| density
  at 64 and 100 cells and mollifier widths of 2 and 2.5 cells;
- ``pointwise_check`` reports;
- Euler-Maruyama terminals and M=4 coupled terminals of every registry model;
- block sums at 1, 2 and 2048 numbers per step for several M;
- an error curve, a level's statistics and a histogram drawn in small time
  chunks (a tree without ``randomkit.CHUNK_NORMALS`` draws whole windows, so
  comparing with it checks that chunking changes no number);
- a level's statistics over one round of 1000 and of 3000 paths at level 5,
  and over two rounds at level 4 whose second starts inside a block, and a
  histogram of 5000 paths at 1024 steps: shapes that trees cutting each
  round into one-block windows step differently;
- error curves at the default budgets whose coarse steps straddle time
  chunks: the non-nested factors 384, 256 and 32 at n_ref 3072, and a
  factor of 2048 steps, longer than a chunk, at n_ref 16384 (trees that cut
  chunks at whole coarse steps draw these differently);
- ``young``: the conjugate Psi of x^2 log(e + x) and x^1.5 log(e + x)^-0.4
  at 25 points from 1e-3 to 1e3, and ``orlicz_bound_minimize`` at q = 2,
  r = inf and E in {1e-2, 1e-4, 1e-6} for x^2/2 and x^2 log(e + x) (a tree
  that refines these optima another way moves Psi by about 1e-16 and the
  bounds by about 1e-11, relative);
- ``predicted``: ``predicted_strong_exponent`` at q in {1, 2, 4} and
  ``predicted_mlmc_exponent`` for every function-space class, at delta in
  {0.1, 0.5, 0.9, 1 - 1e-12} and (p, s) in {1, 1.5, 2, 3} x {0.1, 0.5, 0.9}
  (a tree whose cost exponent takes a weak-rate regime is asked for "weak1");
- the ``maximal``, ``inequality``, ``rate``, ``mlmc``, ``complexity`` and
  ``density`` CLI artifacts on small configs, and again on configs that set
  only what keeps them small, so the param defaults are compared too
  (``summary.json`` holds wall times and is left out), and those of a
  ``rate`` config whose payoff name, ``interval_indicator(0,1)``, holds a
  comma, so ``rate_curve.csv`` holds a quoted cell;
- ``checks``: the (name, status) pairs of the checks in each of those runs'
  ``summary.json``, the verdicts the benchmark's gates read;
- ``costs``: each of those runs' ``em_steps`` and error type (null for a run
  that ends without one) from its ``summary.json``; wall times are left out.

A change to ``randomkit``'s streams changes every digest drawn from them, and
only those:

- from the streams: ``em`` and ``em_coupled_M4`` of the models with noise
  (``constant``, ``sincos``, ``sincos2d``), ``block_sums``, ``chunked``,
  ``windows``, ``carried``, and the ``cli`` artifacts of ``rate``, ``mlmc``,
  ``complexity``, ``density`` and ``inequality`` (a coarse one, such as a
  fitted exponent, may still match), the ``checks`` of those runs (a
  verdict may still match) and the ``costs`` of the adaptive ``mlmc`` and
  ``complexity`` runs, whose sample counts follow the draws;
- kept by a stream change: ``maximal_at``, ``maximal_field``, ``gsp_field``,
  ``gsp_direct``, ``superlevel``, ``mollifier`` and ``pointwise_check`` (their
  measures and pairs come from numpy's ``default_rng``, or from no random
  numbers at all), the
  ``cli/maximal*`` artifacts, ``em`` and ``em_coupled_M4`` of ``ode`` and
  ``zero``, which have no noise, ``young``, ``predicted``, and the ``costs``
  of the fixed-size ``rate``, ``density``, ``inequality`` and ``maximal`` runs.

Usage, from the repository root:

    python tools/digests.py                  # digests of this tree
    python tools/digests.py --against HEAD~  # compare with a revision

``--against`` extracts the revision's ``src/`` with ``git archive`` into a
temporary directory, runs this same script on it and lists the digests that
differ, with a count per group (the name up to its first ``/``). A digest
that raises is recorded as ``error:<ExceptionType>`` (a group whose own
set-up raises, under the group's name), so an older tree that fails on one
input is still compared on the rest; ``--against`` lists the digests that
errored on either side apart from the compared ones. The exit code is 1 if
any digest differs, if any digest or group of this tree errors, or if this
tree lacks a digest that the revision emits. Floating-point results such as
``np.sin`` may differ between CPUs, so compare two trees on one machine rather
than pinning digests.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CLI_CONFIGS = {
    "maximal": {"kind": "maximal",
                "params": {"n_atomic": 30, "n_grid_1d": 6, "n_grid_2d": 4, "seed": 17}},
    "inequality": {"kind": "inequality", "payoff": {"name": "interval_indicator"},
                   "params": {"family": "gaussian_shift", "rule": "bv", "p": 1, "q": 1,
                              "scale_grid": [0.2, 0.1], "N": 5000, "seed": 5}},
    "rate": {"kind": "rate", "model": {"name": "sincos"},
             "payoff": {"name": "clamp_ramp"},
             "params": {"q": 2, "n_list": [8, 16, 32], "N": 4000, "n_ref": 256, "seed": 1}},
    # the payoff is named interval_indicator(0,1): a quoted cell in rate_curve.csv
    "rate-comma-name": {"kind": "rate", "model": {"name": "sincos"},
                        "payoff": {"name": "interval_indicator"},
                        "params": {"q": 2, "n_list": [8, 16, 32], "N": 2000, "n_ref": 128,
                                   "seed": 2}},
    "mlmc": {"kind": "mlmc", "model": {"name": "sincos"},
             "payoff": {"name": "interval_indicator"},
             "params": {"epsilon": 0.05, "M": 4, "seed": 3}},
    "complexity": {"kind": "complexity", "model": {"name": "constant"},
                   "payoff": {"name": "clamp_ramp"},
                   "params": {"epsilon_list": [0.08, 0.04, 0.02], "M": 2, "seed": 7,
                              "compare_single_level": True}},
    "density": {"kind": "density", "model": {"name": "sincos"},
                "params": {"n_list": [8, 16], "N": 20000, "bins": 40, "seed": 6,
                           "value_range": [-4, 4]}},
    # each sets only what keeps the run small, so every other default is compared
    "maximal-defaults": {"kind": "maximal",
                         "params": {"n_atomic": 5, "n_grid_1d": 2, "n_grid_2d": 1}},
    "inequality-defaults": {"kind": "inequality", "payoff": {"name": "interval_indicator"},
                            "params": {"N": 5000}},
    "rate-defaults": {"kind": "rate", "model": {"name": "sincos"},
                      "payoff": {"name": "clamp_ramp"},
                      "params": {"N": 4000, "n_ref": 1024}},  # n < n_ref, so the fit runs
    "mlmc-defaults": {"kind": "mlmc", "model": {"name": "sincos"},
                      "payoff": {"name": "clamp_ramp"}, "params": {"epsilon": 0.05}},
    "complexity-defaults": {"kind": "complexity", "model": {"name": "constant"},
                            "payoff": {"name": "clamp_ramp"},
                            "params": {"epsilon_list": [0.08, 0.04, 0.02]}},
    "density-defaults": {"kind": "density", "model": {"name": "sincos"},
                         "params": {"N": 10000}},
}


def _sha(payload) -> str:
    if isinstance(payload, np.ndarray):
        payload = repr(payload.shape).encode() + np.ascontiguousarray(payload).tobytes()
    elif not isinstance(payload, bytes):
        payload = repr(payload).encode()
    return hashlib.sha256(payload).hexdigest()


def _batch(mx, nu, xs, R):
    """maximal_at over a (P, d) batch; point by point where the tree has no
    batched form, so the values can still be compared."""
    try:
        return mx.maximal_at(nu, xs, R)
    except (TypeError, ValueError):
        warnings.warn("maximal_at takes no batch in this tree; batched digests "
                      "are computed point by point", stacklevel=1)
        return np.array([mx.maximal_at(nu, x, r) for x, r in zip(xs, R)])


def _points(mx, nu, xs, R):
    """maximal_at one point per call."""
    return np.array([mx.maximal_at(nu, x, r) for x, r in zip(xs, R)])


def _gsp_direct(mx, f, s, p):
    """G_{s,p} by the direct pair kernel; by ``gsp_field`` where the tree has
    no ``_gsp_field_direct`` (there it was ``gsp_field`` at every p)."""
    return getattr(mx, "_gsp_field_direct", mx.gsp_field)(f, s, p).values


def maximal_digests():
    from irregmc import maximal as mx

    makers = {"atomic": mx.random_atomic_measure, "1d": mx.random_density_1d,
              "2d": mx.random_density_2d}
    for kind, maker in makers.items():
        for seed in range(3):
            rng = np.random.default_rng(seed)
            nu = maker(rng)
            if nu.is_atomic:
                xs = np.concatenate([rng.uniform(-6.0, 6.0, (60, 1)), nu.atoms])
            else:
                nodes = nu.density.node_coords()
                xs = np.concatenate([nodes[rng.integers(0, len(nodes), 40)],
                                     rng.uniform(-2.5, 2.5, (40, nu.d))])
            radii = {"inf": np.full(len(xs), math.inf), "0.5": np.full(len(xs), 0.5),
                     "mixed": rng.uniform(0.01, 3.0, len(xs))}
            for label, R in radii.items():
                tag = f"{kind}/seed{seed}/R={label}"
                yield f"maximal_at/point/{tag}", lambda: _sha(_points(mx, nu, xs, R))
                yield f"maximal_at/batch/{tag}", lambda: _sha(_batch(mx, nu, xs, R))
            if not nu.is_atomic:
                for R in (math.inf, 0.3):
                    yield (f"maximal_field/{kind}/seed{seed}/R={R}",
                           lambda: _sha(mx.maximal_field(nu, R).values))
                yield (f"gsp_field/{kind}/seed{seed}",
                       lambda: _sha(mx.gsp_field(nu.density, 0.5, 2.0).values))
                yield (f"gsp_direct/{kind}/seed{seed}",
                       lambda: _sha(_gsp_direct(mx, nu.density, 0.5, 2.0)))
                for s, p in ((0.3, 1.5), (0.5, 1.0), (0.7, 3.0)):
                    yield (f"gsp_field/{kind}/seed{seed}/s={s},p={p}",
                           lambda: _sha(mx.gsp_field(nu.density, s, p).values))
            else:
                lams = np.geomspace(0.01, 50.0, 12)
                yield (f"superlevel/{kind}/seed{seed}", lambda: _sha(
                    np.array([mx.superlevel_measure_atomic(nu, lam) for lam in lams])))
    for cells in (64, 100):
        for width in (2.0, 2.5):
            f, grad = mx.mollified_ball_gradient(1.0, -2.0, 2.0, cells, width)
            yield f"mollifier/{cells}/width={width}/f", lambda: _sha(f.values)
            yield f"mollifier/{cells}/width={width}/grad", lambda: _sha(grad.density.values)
    # the 64-cell ball grid has a dyadic spacing, so its nodes share one bin table
    rng = np.random.default_rng(64)
    _, nu = mx.mollified_ball_gradient(1.0, -2.0, 2.0, 64)
    nodes = nu.density.node_coords()
    xs = np.concatenate([nodes[rng.integers(0, len(nodes), 40)],
                         rng.uniform(-2.5, 2.5, (40, 2))])
    radii = {"inf": np.full(len(xs), math.inf), "0.5": np.full(len(xs), 0.5),
             "mixed": rng.uniform(0.01, 3.0, len(xs))}
    for label, R in radii.items():
        yield f"maximal_at/point/ball64/R={label}", lambda: _sha(_points(mx, nu, xs, R))
        yield f"maximal_at/batch/ball64/R={label}", lambda: _sha(_batch(mx, nu, xs, R))
    for R in (math.inf, 0.7):
        yield f"maximal_field/ball64/R={R}", lambda: _sha(mx.maximal_field(nu, R).values)
    # 2D points far from the mass, whose ladders end at their farthest window
    # node, and one hot cell at the corner (-2, -2) of the 48-cell grid
    far = np.array([[9.0, 9.0], [-9.0, 9.0], [1e5, 0.0], [1e17, 0.0]])
    hot = np.zeros((49, 49))
    hot[0, 0] = 3.0
    corner = mx.measure_from_density(mx.GridField(d=2, lo=-2.0, hi=2.0, spacing=4.0 / 48,
                                                  values=hot))
    for label, measure, xs in (
            ("2d/seed0", mx.random_density_2d(np.random.default_rng(0)), far),
            ("ball64", nu, far),
            ("corner", corner, np.concatenate([corner.density.node_coords()[::37], far]))):
        for R in (math.inf, 16.0):
            yield (f"maximal_at/far/{label}/R={R}",
                   lambda: _sha(_batch(mx, measure, xs, np.full(len(xs), R))))
    # node points of a grid with h = 0.1, which is not exact: they bin their offsets
    f = mx.GridField.from_function(lambda x: np.exp(-(x[..., 0] ** 2 + x[..., 1] ** 2)),
                                   2, -2.0, 2.0, 40)
    rng = np.random.default_rng(40)
    nodes = f.node_coords()
    xs = nodes[rng.integers(0, len(nodes), 60)]
    for label, R in (("inf", math.inf), ("0.5", 0.5), ("mixed", rng.uniform(0.01, 3.0, 60))):
        yield (f"maximal_at/h=0.1/nodes/R={label}",
               lambda: _sha(_batch(mx, mx.measure_from_density(f), xs, np.broadcast_to(R, 60))))
    tent = lambda x: np.maximum(0.0, 1.0 - np.abs(x[..., 0]))  # noqa: E731
    # 1D node points of an exact grid (h = 2^-8), at one bound per point as
    # pointwise_check sets them
    f = mx.GridField.from_function(tent, 1, -2.0, 2.0, 1024)
    nodes = f.node_coords()
    rng = np.random.default_rng(1024)
    xs, ys = nodes[rng.integers(0, len(nodes), 500)], nodes[rng.integers(0, len(nodes), 500)]
    R = 2.0 * np.abs(xs - ys)[:, 0]
    R[R == 0.0] = 1.0
    g = mx.measure_from_density(mx.gsp_field(f, 0.5, 2.0))
    yield ("maximal_at/tent1024/nodes/R=2|x-y|",
           lambda: _sha(_batch(mx, g, np.concatenate([xs, ys]), np.concatenate([R, R]))))
    # 1D fields on an exact grid (h = 3 2^-7) and on one that is not (h = 0.01)
    for label, cells, R in (("3*2^-7", 256, 0.7), ("0.01", 600, math.inf)):
        f = mx.GridField.from_function(
            lambda x: np.abs(np.sin(3.0 * x[..., 0])) + (x[..., 0] > 1.0), 1, -3.0, 3.0, cells)
        yield (f"maximal_field/1d/h={label}",
               lambda: _sha(mx.maximal_field(mx.measure_from_density(f), R).values))
    for cells in (32, 257):
        f = mx.GridField.from_function(tent, 1, -2.0, 2.0, cells)
        yield f"gsp_field/tent/{cells}", lambda: _sha(mx.gsp_field(f, 0.5, 2.0).values)
        yield f"gsp_direct/tent/{cells}", lambda: _sha(_gsp_direct(mx, f, 0.5, 2.0))
        yield f"pointwise_check/tent/{cells}", lambda: _sha(dataclasses.astuple(
            mx.pointwise_check(f, mx.gsp_field(f, 0.5, 2.0), 400, mode="fractional", s=0.5,
                               seed=cells)))
    for cells in (48, 100, 256):
        f, grad = mx.mollified_ball_gradient(1.0, -2.0, 2.0, cells)
        if cells <= 100:  # the 2D G_{s,p} loop is quadratic in the node count
            yield f"gsp_field/ball/{cells}", lambda: _sha(mx.gsp_field(f, 0.5, 2.0).values)
            yield f"gsp_direct/ball/{cells}", lambda: _sha(_gsp_direct(mx, f, 0.5, 2.0))
        yield f"pointwise_check/ball/{cells}", lambda: _sha(dataclasses.astuple(
            mx.pointwise_check(f, grad, 200, mode="bv", seed=cells)))
    # piecewise-constant 2D grids: rows of 0, of 1, of +-0.0 mixed and varied
    # rows pair up in every form of the G_{s,p} kernel
    rng = np.random.default_rng(33)
    zeros = np.where(rng.random((33, 33)) < 0.5, -0.0, 0.0)
    zeros[5::4] = rng.uniform(-1.0, 1.0, (7, 33))
    zeros[3::8] = 0.5
    for label, f in (
            ("step64", mx.GridField.from_function(
                lambda x: (x[..., 0] + 0.25 * x[..., 1] >= 0.0).astype(float), 2, -2.0, 2.0, 64)),
            ("ball_indicator64", mx.GridField.from_function(
                lambda x: (x[..., 0] ** 2 + x[..., 1] ** 2 < 1.0).astype(float), 2, -2.0, 2.0, 64)),
            ("signed_zero_rows", mx.GridField(d=2, lo=-1.0, hi=1.0, spacing=1.0 / 16,
                                              values=zeros))):
        for s, p in ((0.5, 2.0), (0.3, 1.5), (0.5, 1.0), (0.7, 3.0)):
            yield f"gsp_field/{label}/s={s},p={p}", lambda: _sha(mx.gsp_field(f, s, p).values)
        yield f"gsp_direct/{label}/s=0.5,p=2.0", lambda: _sha(_gsp_direct(mx, f, 0.5, 2.0))

    def cross(rng, count):
        return -rng.uniform(0.01, 3.0, (count, 1)), rng.uniform(0.01, 3.0, (count, 1))

    heavi = mx.GridField.from_function(lambda x: (x[..., 0] >= 0).astype(float),
                                       1, -3.0, 3.0, 300)
    yield "pointwise_check/heaviside", lambda: _sha(dataclasses.astuple(
        mx.pointwise_check(heavi, mx.measure_from_atoms([[0.0]], [1.0]), 1000, mode="bv",
                           seed=3, pair_sampler=cross)))


def em_digests():
    from irregmc import sde
    from irregmc.randomkit import increment_batch

    for name in sorted(sde.MODEL_REGISTRY):
        model = sde.make_model(name)
        inc = increment_batch(11, model.d, model.T, 64, 0, 2048)
        yield f"em/{name}", lambda: _sha(sde.em_terminal_batch(model, inc))
        fine, coarse = sde.coupled_terminal_batch(model, inc, 4)
        yield f"em_coupled_M4/{name}/fine", lambda: _sha(fine)
        yield f"em_coupled_M4/{name}/coarse", lambda: _sha(coarse)


def block_sums_digests():
    from irregmc import sde
    from irregmc.randomkit import increment_batch

    # (B, d) with B * d = 1, 2 and 2048; 192 steps take every M below
    for B, d in ((1, 1), (1, 2), (2048, 1)):
        inc = increment_batch(13, d, 1.0, 192, 0, B)
        for M in (1, 2, 3, 8, 64, 192):
            yield f"block_sums/B={B},d={d}/M={M}", lambda: _sha(sde.block_sums(inc, M))


def chunked_digests():
    from irregmc import avikainen, diagnostics, mlmc, randomkit, sde
    from irregmc.payoff import make_payoff

    budget = getattr(randomkit, "CHUNK_NORMALS", None)
    randomkit.CHUNK_NORMALS = 1 << 16  # 8 to 86 chunks per window below
    try:
        model = sde.make_model("sincos")
        curve = avikainen.qerror_curves(model, [(make_payoff("clamp_ramp"), 2.0)], [8, 32, 64],
                                        N=3000, n_ref=256, seed=4)[0]
        yield "chunked/qerror_curve", lambda: _sha((curve.value.tobytes(),
                                                    curve.stderr.tobytes()))
        stats = mlmc.level_sample(model, make_payoff("interval_indicator"), 5, 4, 1500,
                                  seed=9)
        yield "chunked/level_sample", lambda: _sha((stats.mean, stats.variance, stats.cost))
        hist = diagnostics.terminal_histogram(model, 256, 10_000, 40, seed=3)
        yield "chunked/terminal_histogram", lambda: _sha((hist.edges.tobytes(),
                                                          hist.counts.tobytes()))
    finally:
        randomkit.CHUNK_NORMALS = budget


def _two_rounds(mlmc, sde, model, pay):
    """Level 4 at M = 4, seed 12, sampled in rounds of 1500 and 2300 paths;
    through the older level accumulator where the tree has no ``_Level``."""
    if hasattr(mlmc, "_Level"):
        level = mlmc._Level(model, pay, 4, 4, 12, sde.StepCounter())
        return level.sample(1500).sample(2300).stats()
    state = mlmc._LevelAccumulator(4, 4, model.T, 12)
    for n_new in (1500, 2300):
        mlmc._sample_level(model, pay, state, n_new, sde.StepCounter())
    return state.stats()


def window_digests():
    from irregmc import diagnostics, mlmc, sde
    from irregmc.payoff import make_payoff

    model = sde.make_model("sincos")
    pay = make_payoff("interval_indicator", a=-1.5, b=1.5)
    for N in (1000, 3000):
        stats = mlmc.level_sample(model, pay, 5, 4, N, seed=8)
        yield f"windows/level_sample/L5,N{N}", lambda: _sha((stats.mean, stats.variance,
                                                             stats.cost))
    stats = _two_rounds(mlmc, sde, model, pay)
    yield "windows/level_sample/L4,rounds1500+2300", lambda: _sha((stats.mean, stats.variance,
                                                                   stats.cost))
    least = diagnostics.MIN_PATHS
    diagnostics.MIN_PATHS = 5000  # below the driver's floor, read at call time
    try:
        hist = diagnostics.terminal_histogram(model, 1024, 5000, 40, seed=5)
    finally:
        diagnostics.MIN_PATHS = least
    yield "windows/terminal_histogram/n1024,N5000", lambda: _sha((hist.edges.tobytes(),
                                                                  hist.counts.tobytes()))


def carried_digests():
    from irregmc import avikainen, sde
    from irregmc.payoff import make_payoff

    model = sde.make_model("sincos")
    pay = make_payoff("interval_indicator", a=0.0, b=1.0)
    for n_ref, n_list, N in ((3072, [8, 12, 96], 3000), (16384, [8], 1024)):
        curve = avikainen.qerror_curves(model, [(pay, 2.0)], n_list, N, n_ref, seed=12)[0]
        name = f"n_ref{n_ref},n{'+'.join(map(str, n_list))},N{N}"
        yield f"carried/qerror_curve/{name}", lambda: _sha((curve.value.tobytes(),
                                                           curve.stderr.tobytes()))


def young_digests():
    from irregmc import payoff

    xs = np.geomspace(1e-3, 1e3, 25)
    for young in (payoff.young_plog(2.0, 1.0), payoff.young_plog(1.5, -0.4)):
        psi = np.array([payoff.young_complement(young, float(x)) for x in xs])
        yield f"young/complement/{young.name}", lambda: _sha(psi)
    for young in (payoff.young_power(2.0), payoff.young_plog(2.0, 1.0)):
        for E in (1e-2, 1e-4, 1e-6):
            bound, _ = payoff.orlicz_bound_minimize(2.0, math.inf, E, young)
            yield f"young/orlicz_bound/{young.name},E{E:g}", lambda: _sha(bound)


def predicted_digests():
    from irregmc import payoff

    mlmc_exponent = payoff.predicted_mlmc_exponent
    if "regime" in inspect.signature(mlmc_exponent).parameters:
        mlmc_exponent = functools.partial(mlmc_exponent, regime="weak1")
    grid = [(delta, p, s) for delta in (0.1, 0.5, 0.9, 1.0 - 1e-12)
            for p in (1.0, 1.5, 2.0, 3.0) for s in (0.1, 0.5, 0.9)]
    for space in ("bv", "sobolev", "orlicz", "variable", "fractional", "lipschitz"):
        for q in (1.0, 2.0, 4.0):
            yield f"predicted/strong/{space},q{q:g}", lambda: _sha(
                [payoff.predicted_strong_exponent(space, q, delta, p=p, s=s)
                 for delta, p, s in grid])
        yield f"predicted/mlmc/{space}", lambda: _sha(
            [mlmc_exponent(space, delta=delta, p=p, s=s) for delta, p, s in grid])


def cli_digests():
    from irregmc import cli

    with tempfile.TemporaryDirectory() as tmp:
        for label, doc in CLI_CONFIGS.items():
            out = os.path.join(tmp, label)
            summary = cli.run_experiment(cli.parse_config(json.dumps(doc)), out_dir=out)
            for path in sorted(summary.artifacts):
                if os.path.basename(path) != "summary.json":
                    yield (f"cli/{label}/{os.path.basename(path)}",
                           lambda: _sha(Path(path).read_bytes()))
            emitted = json.loads(Path(out, "summary.json").read_text())
            yield f"checks/{label}", lambda: _sha([(c["name"], c["status"])
                                                   for c in emitted["checks"]])
            yield f"costs/{label}", lambda: _sha([emitted["costs"]["em_steps"],
                                                  (emitted["error"] or {}).get("type")])


GROUPS = (maximal_digests, em_digests, block_sums_digests, chunked_digests, window_digests,
          carried_digests, young_digests, predicted_digests, cli_digests)


def emit(groups=GROUPS) -> None:
    """Print each digest; one that raises prints error:<ExceptionType> in its
    place, and a group whose own set-up raises prints it under the group's name."""
    for group in groups:
        try:
            for name, digest in group():
                print(f"{_guarded(name, digest)}  {name}", flush=True)
        except Exception as exc:  # noqa: BLE001 - the group stops, the run goes on
            print(f"{_failed(group.__name__, exc)}  {group.__name__}", flush=True)


def _guarded(name: str, digest) -> str:
    try:
        return digest()
    except Exception as exc:  # noqa: BLE001 - an older tree may raise anywhere
        return _failed(name, exc)


def _failed(name: str, exc: Exception) -> str:
    print(f"{name} raised {type(exc).__name__}: {exc}", file=sys.stderr, flush=True)
    return f"error:{type(exc).__name__}"


def _run(src: Path) -> dict[str, str]:
    """Digests of the tree whose package sources are in src, by name."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--emit"], env=env, check=True,
                         capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in out.stdout.splitlines())}


def against(rev: str) -> int:
    here = _run(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        there = _run(Path(tmp) / "src")
    return compare(here, there, rev)


def compare(here: dict[str, str], there: dict[str, str], rev: str) -> int:
    """Print how the digests of this tree and of rev differ; the exit code."""
    both = here.keys() & there.keys()
    errored = sorted(n for n in both if {_outcome(here[n]), _outcome(there[n])} != {"ok"})
    compared = both.difference(errored)
    differ = sorted(n for n in compared if here[n] != there[n])
    only = sorted(here.keys() ^ there.keys())
    # a digest of rev that this tree no longer emits, as when a group's set-up
    # raises here, is a digest this tree fails to reproduce
    lost = [n for n in only if n in there and _outcome(there[n]) == "ok"]
    print(f"{len(compared)} digests compared against {rev}: {len(differ)} differ")
    for name in differ:
        print(f"differs: {name}")
    for name in errored:
        print(f"errored: {name} (this tree: {_outcome(here[name])}, "
              f"{rev}: {_outcome(there[name])})")
    if differ:
        total = collections.Counter(n.split("/", 1)[0] for n in compared)
        changed = collections.Counter(n.split("/", 1)[0] for n in differ)
        for g in sorted(total):
            print(f"group {g}: {changed[g]} of {total[g]} differ")
    for name in only:
        print(f"only in {'this tree' if name in here else rev}: {name}")
    return 1 if differ or lost or any(_outcome(d) != "ok" for d in here.values()) else 0


def _outcome(digest: str) -> str:
    return digest.removeprefix("error:") if digest.startswith("error:") else "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with this git revision instead of printing")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.against:
        return against(args.against)
    if not args.emit:
        sys.path.insert(0, str(ROOT / "src"))
    emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
