"""The benchmark's workloads: inputs made from a seed, one operation, its gates.

Each workload has ``setup(seed, workdir)``, which imports the library and
builds every input the run needs, and ``operation(state, index)``, which runs
operation ``index`` of the run and returns an ``OpResult``. Operation inputs
are derived from ``(seed, index)`` only, so a run can be repeated exactly.
``calibration()`` returns the workload's calibration loop, whose median pass
on the reference machine is ``calibration_ref_s``. Nothing here imports a
private (underscore) irregmc name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

# Estimates from independent high-accuracy runs; see reference.json for how
# each was made.
REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))


@dataclass
class OpResult:
    path_steps: int  # EM path-steps the program reports for the operation
    normals: int  # Gaussian normals the emitted outputs imply were drawn
    digest: str  # SHA-256 of the emitted numbers
    failures: list[str] = field(default_factory=list)  # failed gates
    layer: dict = field(default_factory=dict)  # per-layer values read from outputs


def op_seed(seed: int, index: int) -> int:
    """Seed of operation ``index`` in a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def digest_of(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def gate(failures: list[str], ok: bool, name: str) -> None:
    if not ok:
        failures.append(name)


# ---------------------------------------------------------------------------
# Calibration loops: numpy-only stand-ins for each workload's hot loop. They
# call no irregmc code, so they meet the same contention from other tenants
# of the machine as the workload does, but do not speed up when irregmc does.
# Each returns the seconds one pass took.
# ---------------------------------------------------------------------------


def rekey_loop():
    """Re-key a Philox generator per path and draw a few normals."""
    bitgen = Philox(key=[0, 0])
    gen = Generator(bitgen)
    state = bitgen.state

    def run() -> float:
        start = time.perf_counter()
        for i in range(12000):
            state["state"]["key"][1] = i
            state["state"]["counter"][:] = 0
            bitgen.state = state
            gen.standard_normal((4, 1))
        return time.perf_counter() - start

    return run


def euler_loop():
    """Draw normals in bulk, then take Euler steps on 4096 paths."""
    gen = Generator(Philox(key=[1, 0]))
    dw = np.empty((160, 4096))

    def run() -> float:
        start = time.perf_counter()
        gen.standard_normal(out=dw)
        x = np.zeros(4096)
        for k in range(160):
            x = x + np.sin(x) * 0.01 + (1.0 + 0.5 * np.cos(x)) * dw[k] * 0.1
        return time.perf_counter() - start

    return run


def grid_loop():
    """Distances from a point to every node of a 257x257 grid, binned by radius."""
    weights = np.abs(np.sin(np.linspace(-2.0, 2.0, 257 * 257)))

    def run() -> float:
        start = time.perf_counter()
        for j in range(12):
            ax = np.linspace(-2.0, 2.0, 257)
            xx, yy = np.meshgrid(ax, ax, indexing="ij")
            coords = np.stack([xx.ravel(), yy.ravel()], axis=1)
            dist = np.linalg.norm(coords - np.array([0.1 * j, -0.2]), axis=1)
            bins = np.ceil(dist / 0.015625 - 1e-12).astype(int)
            np.clip(bins, 0, 200, out=bins)
            np.cumsum(np.bincount(bins, weights=weights, minlength=202))
        return time.perf_counter() - start

    return run


# ---------------------------------------------------------------------------
# Simulation workloads: one cli.run_experiment per operation
# ---------------------------------------------------------------------------


@dataclass
class ExperimentState:
    seed: int
    config: object
    workdir: Path


def _experiment_setup(seed: int, doc: dict, workdir: Path) -> ExperimentState:
    from irregmc import cli, payoff, sde

    config = cli.parse_config(json.dumps(doc))
    sde.make_model(config.model_name, **config.model_params)
    payoff.make_payoff(config.payoff_name, **config.payoff_params)
    workdir.mkdir(parents=True, exist_ok=True)
    return ExperimentState(seed, config, workdir)


def _run_experiment(state: ExperimentState, index: int):
    from irregmc import cli

    for stale in state.workdir.iterdir():  # a failed run must not read old files
        stale.unlink()
    state.config.params["seed"] = op_seed(state.seed, index)
    summary = cli.run_experiment(state.config, out_dir=str(state.workdir))
    with open(state.workdir / "summary.json", encoding="utf-8") as fh:
        emitted = json.load(fh)
    failures = [c["name"] for c in emitted["checks"] if c["status"] == "fail"]
    steps = emitted["costs"]["em_steps"]
    gate(failures, steps == int(steps), "em-steps-integral")
    written = sum(os.path.getsize(p) for p in summary.artifacts)
    return emitted, int(steps), failures, written


MLMC_DOC = {
    "kind": "mlmc",
    "model": {"name": "sincos"},
    "payoff": {"name": "interval_indicator", "params": {"a": -1.5, "b": 1.5}},
    "params": {"epsilon": 0.005, "M": 4, "alpha_hint": 1.0},
}


class MlmcSincosIndicator:
    name = "mlmc-sincos-indicator"
    why = ("adaptive MLMC with 1-256 normals per path, so per-path Philox "
           "re-keying in randomkit dominates; the cost in path-steps is adaptive")
    calibration = staticmethod(rekey_loop)
    calibration_ref_s = 0.050  # median pass on the reference machine

    def setup(self, seed: int, workdir: Path) -> ExperimentState:
        return _experiment_setup(seed, MLMC_DOC, workdir)

    def operation(self, state: ExperimentState, index: int) -> OpResult:
        from irregmc import mlmc

        emitted, steps, failures, written = _run_experiment(state, index)
        layer = {"cli.bytes_written": written}
        mlmc_path = state.workdir / "mlmc.json"
        if "mlmc-run" in failures or not mlmc_path.exists():
            layer["mlmc.nonconvergent"] = 1
            return OpResult(steps, 0, digest_of([b"nonconvergent"]), failures, layer)
        res = json.loads(mlmc_path.read_text(encoding="utf-8"))
        levels = res["levels"]
        eps = res["epsilon"]
        gate(failures, abs(res["estimate"] - REFERENCE[self.name]["estimate"]) <= 4 * eps,
             "estimate-within-4eps-of-reference")
        gate(failures, steps == res["total_cost"] == sum(lv["cost"] for lv in levels),
             "cost-accounting")
        M = MLMC_DOC["params"]["M"]
        per_sample = [1] + [M**lv["level"] + M ** (lv["level"] - 1) for lv in levels[1:]]
        optimal = mlmc.allocate_samples([lv["variance"] for lv in levels],
                                        [lv["h"] for lv in levels], eps)
        layer.update({
            "mlmc.levels": len(levels),
            "mlmc.samples": sum(lv["N"] for lv in levels),
            "mlmc.nonconvergent": 0,
            "mlmc.cost_vs_optimal": steps / float(np.dot(optimal, per_sample)),
        })
        normals = sum(lv["N"] * M ** lv["level"] for lv in levels)
        table = (state.workdir / "mlmc_levels.csv").read_bytes()
        return OpResult(steps, normals, digest_of([table]), failures, layer)


RATE_N_LIST = [8, 16, 32, 64, 128, 256, 512]
RATE_DOC = {
    "kind": "rate",
    "model": {"name": "sincos"},
    "payoff": {"name": "interval_indicator", "params": {"a": 0.0, "b": 1.0}},
    "params": {"q": 2.0, "n_list": RATE_N_LIST, "n_ref": 4096, "N": 16384},
}


class RateSincosNref4096:
    name = "rate-sincos-nref4096"
    why = ("strong-rate curve with 4096 normals per path and a 4096x4096 "
           "increment batch, so EM stepping in sde and peak memory dominate")
    calibration = staticmethod(euler_loop)
    calibration_ref_s = 0.042  # median pass on the reference machine

    def setup(self, seed: int, workdir: Path) -> ExperimentState:
        return _experiment_setup(seed, RATE_DOC, workdir)

    def operation(self, state: ExperimentState, index: int) -> OpResult:
        emitted, steps, failures, written = _run_experiment(state, index)
        p = RATE_DOC["params"]
        gate(failures, any(c["name"] == "rate-slope-conservative" and c["status"] == "pass"
                           for c in emitted["checks"]), "rate-slope-conservative")
        fit_path = state.workdir / "rate_fit.json"
        lo, hi = (json.loads(fit_path.read_text(encoding="utf-8"))["slope_ci95"]
                  if fit_path.exists() else (math.nan, math.nan))
        # At N=16384 the fitted slope centres near -0.58 with a spread of about
        # 0.03 between seeds, so a point test against the range fails correct
        # runs now and then; the fit's own 95 % interval must meet the range.
        gate(failures, lo <= -0.35 and hi >= -0.65, "slope-ci95-meets-[-0.65,-0.35]")
        gate(failures, steps == p["N"] * (p["n_ref"] + sum(p["n_list"])),
             "path-steps-exact")
        curve = (state.workdir / "rate_curve.csv").read_bytes()
        return OpResult(steps, p["N"] * p["n_ref"], digest_of([curve]), failures,
                        {"cli.bytes_written": written})


# ---------------------------------------------------------------------------
# Maximal operators: one batch through the library per operation
# ---------------------------------------------------------------------------

N_ATOMIC, N_DENSITY_1D, N_DENSITY_2D = 10, 5, 5
BALL_PAIRS, TENT_PAIRS, HEAVISIDE_PAIRS = 300, 1000, 2000


def random_atomic_measure(mx, rng):
    k = int(rng.integers(1, 26))
    return mx.measure_from_atoms(rng.uniform(-5.0, 5.0, size=(k, 1)),
                                 rng.uniform(0.1, 2.0, size=k))


def random_density_1d(mx, rng, cells: int = 256):
    steps = rng.uniform(0.0, 1.0, size=16)
    vals = np.repeat(steps, (cells + 1) // 16 + 1)[: cells + 1]
    return mx.measure_from_density(
        mx.GridField(d=1, lo=-3.0, hi=3.0, spacing=6.0 / cells, values=vals))


def random_density_2d(mx, rng, cells: int = 48):
    ax = np.linspace(-2.0, 2.0, cells + 1)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    vals = np.zeros_like(xx)
    for _ in range(int(rng.integers(1, 5))):
        cx, cy = rng.uniform(-1.5, 1.5, size=2)
        width = rng.uniform(0.2, 1.0)
        vals += rng.uniform(0.2, 2.0) * np.exp(
            -((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width**2))
    return mx.measure_from_density(
        mx.GridField(d=2, lo=-2.0, hi=2.0, spacing=4.0 / cells, values=vals))


def cross_sign_pairs(rng, count):
    return (-rng.uniform(0.01, 3.0, size=count)[:, None],
            rng.uniform(0.01, 3.0, size=count)[:, None])


@dataclass
class MaximalState:
    seed: int
    ball: tuple
    tent: object
    heaviside: tuple
    gsp_2d: object
    measures: list


class MaximalPointwise:
    name = "maximal-pointwise"
    why = ("pointwise K0 and weak-type checks through maximal_at, maximal_field "
           "and gsp_field; 2D maximal_at dominates and randomkit/sde are never called")
    calibration = staticmethod(grid_loop)
    calibration_ref_s = 0.040  # median pass on the reference machine

    def setup(self, seed: int, workdir: Path) -> MaximalState:
        from irregmc import cli  # noqa: F401  (set-up cost is the cli import)
        from irregmc import maximal as mx
        from irregmc import payoff as po

        rng = np.random.default_rng(seed)
        tent = po.make_payoff("tent")
        measures = (
            [random_atomic_measure(mx, rng) for _ in range(N_ATOMIC)]
            + [random_density_1d(mx, rng) for _ in range(N_DENSITY_1D)]
            + [random_density_2d(mx, rng) for _ in range(N_DENSITY_2D)]
        )
        heaviside = mx.GridField.from_function(
            lambda x: (x[..., 0] >= 0).astype(float), 1, -3.0, 3.0, 600)
        return MaximalState(
            seed=seed,
            ball=mx.mollified_ball_gradient(1.0, -2.0, 2.0, 256),
            tent=mx.GridField.from_function(tent.fn, 1, -2.0, 2.0, 1024),
            heaviside=(heaviside, mx.measure_from_atoms([[0.0]], [1.0])),
            gsp_2d=mx.mollified_ball_gradient(1.0, -2.0, 2.0, 96)[0],
            measures=measures,
        )

    def operation(self, state: MaximalState, index: int) -> OpResult:
        from irregmc import maximal as mx

        rng = np.random.default_rng(op_seed(state.seed, index))
        pair_seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        f_ball, grad_ball = state.ball
        ball = mx.pointwise_check(f_ball, grad_ball, BALL_PAIRS, mode="bv",
                                  seed=pair_seeds[0])
        g_tent = mx.gsp_field(state.tent, 0.5, 2.0)
        tent = mx.pointwise_check(state.tent, g_tent, TENT_PAIRS, mode="fractional",
                                  s=0.5, seed=pair_seeds[1])
        heavi = mx.pointwise_check(*state.heaviside, HEAVISIDE_PAIRS, mode="bv",
                                   seed=pair_seeds[2], pair_sampler=cross_sign_pairs)
        weak = []
        for nu in state.measures:
            if nu.is_atomic:
                probes = np.concatenate([rng.uniform(-6.0, 6.0, size=200),
                                         nu.atoms[:, 0] + 1e-3])
                vals = [mx.maximal_at(nu, [x]) for x in probes]
            else:
                vals = mx.maximal_field(nu).values.ravel()
            weak.append(mx.weak_type_check(nu, mx.percentile_lambda_grid(vals, 10)))
        g_2d = mx.gsp_field(state.gsp_2d, 0.5, 2.0)

        failures: list[str] = []
        gate(failures, sum(r.violations for r in weak) == 0, "weak-type-violations")
        gate(failures, ball.violations + tent.violations + heavi.violations == 0,
             "pointwise-violations")
        gate(failures, heavi.k0 <= 0.5 + 1e-12, "heaviside-k0")
        gate(failures, bool(np.all(np.isfinite(g_2d.values))), "gsp-2d-finite")
        k0s = [float(r.k0) for r in (ball, tent, heavi)]
        superlevels = [float(v) for r in weak for v in r.superlevel_measures]
        return OpResult(0, 0, digest_of(k0s + superlevels), failures)


WORKLOADS = {w.name: w for w in (MlmcSincosIndicator(), RateSincosNref4096(),
                                 MaximalPointwise())}
