"""Experiment runner: JSON config in, CSV/JSON artifacts out.

Subcommands mirror the experiment kinds (rate, inequality, maximal, mlmc,
complexity, density) plus selftest. Configs are validated strictly against
one param table per kind: unknown keys are rejected, since silent
misconfiguration is the dominant failure mode of numeric experiment runners,
and the defaults are filled in. All artifacts are deterministic given the
seed; wall-clock timings live only in the run summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import avikainen as av
from . import diagnostics as dg
from . import mlmc
from . import payoff as po
from . import sde
from .errors import (ConfigError, DegenerateCurveError, InvalidArgumentError, IrregmcError,
                     NonconvergenceError)
from .stats import Gate, spread_gate

OUT_ENV_VAR = "IRREGMC_OUT"

_COMMON_KEYS = {"kind", "model", "payoff", "params", "out"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _finite(value) -> bool:
    """False if value holds NaN or an infinity, which strict JSON cannot echo."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    return True


def _int_from(low: int) -> tuple:
    return (lambda v: _is_int(v) and v >= low), f"be an integer >= {low}"


# A param is (default, check, requirement): the check is a predicate on the
# JSON value, and a value that fails it exits 2 with "<key> must <requirement>".
_MOMENT = (lambda v: _is_number(v) and 1 <= v < math.inf), "be a finite number >= 1"
_FRACTION = (lambda v: _is_number(v) and 0 < v < 1), "lie in (0,1)"
_N_LIST = (lambda v: isinstance(v, list) and v != [] and all(_is_int(n) and n >= 1 for n in v)
           and len(set(v)) == len(v), "be a nonempty list of distinct integers >= 1")
_SEED = (0, lambda v: _is_int(v) and 0 <= v < 2**64, "be an integer in [0, 2**64)")
_M = (2, lambda v: _is_int(v) and v in mlmc.REFINEMENTS,
      f"be one of the integers {list(mlmc.REFINEMENTS)}")
_ALPHA_HINT = (1.0, lambda v: v is None or _is_number(v) and 0 < v < math.inf,
               "be a positive number or null")


def _rate_rules(p: dict) -> None:
    # n = n_ref is the reference itself: its error reads 0 and no fit is possible
    for n in p["n_list"]:
        if p["n_ref"] % n or n == p["n_ref"]:
            raise ConfigError(f"each n in n_list must divide n_ref={p['n_ref']} "
                              f"and be smaller than it, got n={n}")


def _inequality_rules(p: dict) -> None:
    # strict JSON has no Infinity, so an unbounded r is held, and echoed, as null
    if p["r"] == math.inf:
        p["r"] = None
    av.exponent_rule(p["rule"], p["p"], p["q"], p["r"] or math.inf, p["s"])


def _maximal_rules(p: dict) -> None:
    counts = ["n_atomic", "n_grid_1d", "n_grid_2d"]
    if not any(p[key] for key in counts):
        raise ConfigError(f"at least one of {counts} must be positive")


def _complexity_rules(p: dict) -> None:
    eps_list = p["epsilon_list"]
    if len(eps_list) < mlmc.MIN_EPSILONS:
        raise ConfigError(f"epsilon_list needs at least {mlmc.MIN_EPSILONS} epsilons, "
                          f"got {len(eps_list)}")
    if max(eps_list) < mlmc.MIN_EPSILON_SPAN * min(eps_list):
        raise ConfigError(f"epsilon_list must span at least a "
                          f"{mlmc.MIN_EPSILON_SPAN:g}x range, got {eps_list!r}")
    mlmc.check_alpha_hint(p["alpha_hint"], p["M"])


# kind -> (the config blocks a run needs, its params, the checks on more than
# one param, which may raise InvalidArgumentError from a library check)
_KINDS = {
    "rate": (("model", "payoff"), {
        "q": (2.0, *_MOMENT),
        "n_list": ([8, 16, 32, 64, 128, 256, 512], *_N_LIST),
        "N": (100_000, *_int_from(av.MIN_PATHS)),
        "n_ref": (4096, *_int_from(1)),
        "seed": _SEED,
        "delta": (0.7, *_FRACTION),
    }, _rate_rules),
    "inequality": (("payoff",), {
        "family": ("gaussian_shift", lambda v: isinstance(v, str) and v in av.PAIR_FAMILIES,
                   f"be one of {sorted(av.PAIR_FAMILIES)}"),
        "rule": ("bv", lambda v: isinstance(v, str), "be a rule name"),
        "p": (1.0, *_MOMENT),
        "q": (1.0, *_MOMENT),
        "r": (None, lambda v: v is None or _is_number(v) and v > 1,
              "be a number > 1, Infinity or null"),
        "s": (None, lambda v: v is None or _FRACTION[0](v), "lie in (0,1) or be null"),
        "scale_grid": ([0.2, 0.1, 0.05, 0.025],
                       lambda v: _numbers(v) and v != [] and all(0 < t < math.inf for t in v),
                       "be a nonempty list of numbers, each finite and > 0"),
        "N": (200_000, *_int_from(1)),
        "seed": _SEED,
    }, _inequality_rules),
    "maximal": ((), {
        "n_atomic": (100, *_int_from(0)),
        "n_grid_1d": (50, *_int_from(0)),
        "n_grid_2d": (50, *_int_from(0)),
        "n_lambdas": (10, *_int_from(1)),
        "seed": _SEED,
    }, _maximal_rules),
    "mlmc": (("model", "payoff"), {
        "epsilon": (0.01, lambda v: _is_number(v) and mlmc.MIN_EPSILON <= v < 1,
                    f"lie in [{mlmc.MIN_EPSILON:g}, 1)"),
        "M": _M,
        "alpha_hint": _ALPHA_HINT,
        "seed": _SEED,
        "n_pilot": (mlmc.DEFAULT_PILOT, *_int_from(2)),
    }, lambda p: mlmc.check_alpha_hint(p["alpha_hint"], p["M"])),
    "complexity": (("model", "payoff"), {
        "epsilon_list": ([0.02, 0.01, 0.005],
                         lambda v: _numbers(v) and all(mlmc.MIN_EPSILON <= e < 1 for e in v),
                         f"be a list of numbers in [{mlmc.MIN_EPSILON:g}, 1)"),
        "M": _M,
        "alpha_hint": _ALPHA_HINT,
        "seed": _SEED,
        "compare_single_level": (False, lambda v: isinstance(v, bool), "be true or false"),
    }, _complexity_rules),
    "density": (("model",), {
        "n_list": ([16, 64, 256], *_N_LIST),
        "N": (100_000, *_int_from(dg.MIN_PATHS)),
        "bins": (60, *_int_from(dg.MIN_BINS)),
        "seed": _SEED,
        "value_range": (None, lambda v: v is None or (
                            _numbers(v) and len(v) == 2 and all(map(math.isfinite, v))
                            and v[0] < v[1]),
                        "be a list [lo, hi] of finite numbers with lo < hi, or null"),
    }, lambda p: None),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def _check(key: str, param: tuple, value) -> None:
    _, ok, requirement = param
    if not ok(value):
        raise ConfigError(f"{key} must {requirement}, got {value!r}")


@dataclass
class ExperimentConfig:
    kind: str
    model_name: str | None
    model_params: dict
    payoff_name: str | None
    payoff_params: dict
    params: dict
    out_dir: str | None
    # built from the name and params above, so left out of equality
    model: sde.SdeModel | None = field(default=None, compare=False, repr=False)
    payoff: po.Payoff | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "params": self.params}
        if self.model_name is not None:
            out["model"] = {"name": self.model_name, "params": self.model_params}
        if self.payoff_name is not None:
            out["payoff"] = {"name": self.payoff_name, "params": self.payoff_params}
        if self.out_dir is not None:
            out["out"] = self.out_dir
        return out


@dataclass
class RunSummary:
    """The ledger of one run: its checks, the artifacts it wrote to ``out``,
    and ``steps``, the counter every driver of the run adds its EM steps to."""

    config: dict
    out: str
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_seconds: float = 0.0
    steps: sde.StepCounter = field(default_factory=sde.StepCounter)
    error: dict | None = None  # type, message and diagnostics of an error that ends the run

    def write(self, name: str, content: list[str] | dict) -> None:
        """Write CSV rows (a list) or a JSON object (a dict) to out/name and list it."""
        path = os.path.join(self.out, name)
        if isinstance(content, dict):
            _write_json(path, content)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(content) + "\n")
        self.artifacts.append(path)

    def add_check(self, name: str, status: str, detail) -> None:
        if status not in ("pass", "fail", "informational"):
            raise ValueError(f"bad status {status!r}")
        self.checks.append({"name": name, "status": status, "detail": detail})

    def add_gate(self, gate: Gate, detail: str) -> None:
        """A check that the gate judges; it echoes the gate's value, lo and hi."""
        entry = gate.to_dict()
        self.add_check(gate.name, "pass" if entry.pop("passed") else "fail", detail)
        self.checks[-1].update(entry)

    @property
    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "checks": self.checks,
            "artifacts": self.artifacts,
            "costs": {"wall_seconds": self.wall_seconds, "em_steps": float(self.steps.steps)},
            "error": self.error,
        }


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment config document (strict mode)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _json_object(doc, "config")
    _reject_unknown(doc, _COMMON_KEYS, "config")
    kind = doc.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")

    blocks, table, rules = _KINDS[kind]
    for block in blocks:
        if block not in doc:
            raise ConfigError(f"experiment kind {kind!r} requires a {block} block")
    model_name, model_params, model = _build_block(
        doc, "model", sde.MODEL_REGISTRY, sde.make_model)
    payoff_name, payoff_params, pay = _build_block(
        doc, "payoff", po.PAYOFF_REGISTRY, po.make_payoff)

    given = _json_object(doc.get("params", {}), "params")
    _reject_unknown(given, set(table), f"params for kind {kind!r}")
    params = {key: given.get(key, default) for key, (default, _, _) in table.items()}
    for key, value in params.items():
        _check(key, table[key], value)
    try:
        rules(params)
    except InvalidArgumentError as exc:
        raise ConfigError(f"bad {kind} params: {exc}") from exc
    if "payoff" in blocks and pay.d is not None:
        # the pair families of the inequality kind draw points in d = 1
        d, source = ((model.d, f"model block {model_name!r}") if "model" in blocks
                     else (1, f"params family {params['family']!r}"))
        if pay.d != d:
            raise ConfigError(f"payoff block {payoff_name!r} takes points in d={pay.d}, "
                              f"but {source} draws points in d={d}")
    return ExperimentConfig(
        kind=kind, model_name=model_name, model_params=model_params,
        payoff_name=payoff_name, payoff_params=payoff_params,
        params=params, out_dir=doc.get("out"), model=model, payoff=pay,
    )


def _build_block(doc: dict, key: str, registry: dict, make):
    """(name, params, built object) of the model or payoff block; (None, {}, None)
    if the block is absent.

    Building here turns bad params (a TypeError for an unknown keyword or a
    wrong type, a ValueError such as InvalidArgumentError for a bad value)
    into a ConfigError that names the block.
    """
    if key not in doc:
        return None, {}, None
    block = _json_object(doc[key], f"{key} block")
    _reject_unknown(block, {"name", "params"}, key)
    name = block.get("name")
    if not isinstance(name, str):
        raise ConfigError(f"{key} block needs a string name, got {name!r}")
    if name not in registry:
        raise ConfigError(f"unknown {key} {name!r}; {key} registry has {sorted(registry)}")
    params = dict(_json_object(block.get("params", {}), f"params in {key} block"))
    for param, value in params.items():  # the block is echoed into summary.json
        if not _finite(value):
            raise ConfigError(f"bad params in {key} block for {name!r}: {param} must be "
                              f"finite, got {value!r}")
    try:
        return name, params, make(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params in {key} block for {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_rate(config: ExperimentConfig, summary: RunSummary) -> None:
    model, pay = config.model, config.payoff
    p = config.params
    q, delta = float(p["q"]), float(p["delta"])
    curve = av.qerror_curves(model, [(pay, q)], p["n_list"], p["N"], p["n_ref"],
                             p["seed"], counter=summary.steps)[0]
    summary.write("rate_curve.csv", curve.csv_rows())
    predicted = po.predicted_strong_exponent(pay.space, q, delta, p=pay.p, s=pay.s)
    try:
        fit = av.fit_rate(curve)
    except DegenerateCurveError as exc:
        summary.add_check("rate-fit", "informational", f"degenerate curve: {exc}")
        return
    gate = Gate("rate-slope-conservative", abs(fit.slope), lo=predicted - 0.1)
    payload = {
        "slope": fit.slope,
        "slope_stderr": fit.slope_stderr,
        "slope_ci95": [fit.slope - 1.96 * fit.slope_stderr,
                       fit.slope + 1.96 * fit.slope_stderr],
        "r_squared": fit.r_squared,
        "excluded_n": fit.excluded_n,
        "predicted_exponent": predicted,
        "delta": delta,
        "pass": gate.passed,
    }
    summary.write("rate_fit.json", payload)
    summary.add_gate(gate, f"|slope|={gate.value:.3f} vs predicted-0.1={gate.lo:.3f}")


def _run_inequality(config: ExperimentConfig, summary: RunSummary) -> None:
    pay = config.payoff
    p = config.params
    rep = av.inequality_check(
        p["family"], pay, p=float(p["p"]), q=float(p["q"]), rule=p["rule"],
        scale_grid=p["scale_grid"], N=p["N"], seed=p["seed"], r=float(p["r"] or math.inf),
        s=p["s"],
    )
    summary.write("inequality.csv", rep.csv_rows())
    payload = {
        "family": rep.family, "rule": rep.rule,
        "moment_order": rep.moment_order, "outer_exponent": rep.outer_exponent,
        "max_ratio": rep.max_ratio, "min_ratio": rep.min_ratio,
        "max_over_min": rep.max_ratio / rep.min_ratio if rep.min_ratio > 0 else None,
    }
    summary.write("inequality.json", payload)
    summary.add_check(
        "inequality-ratios", "informational",
        f"max_ratio={rep.max_ratio:.4g}, min_ratio={rep.min_ratio:.4g}",
    )


def _run_maximal(config: ExperimentConfig, summary: RunSummary) -> None:
    from . import maximal as mx  # only this kind loads it, at 10-20 ms of start-up

    p = config.params
    rng = np.random.default_rng(p["seed"])
    rows = ["measure_id,kind,lambda,superlevel,bound"]
    total_violations = 0
    mid = 0
    plans = (
        ("atomic", "n_atomic", mx.random_atomic_measure),
        ("grid1d", "n_grid_1d", mx.random_density_1d),
        ("grid2d", "n_grid_2d", mx.random_density_2d),
    )
    for kind, key, maker in plans:
        for _ in range(p[key]):
            nu = maker(rng)
            fld = None
            if nu.is_atomic:
                probes = np.concatenate(
                    [rng.uniform(-6, 6, size=200), nu.atoms[:, 0] + 1e-3]
                )
                vals = mx.maximal_at(nu, probes[:, None])
            else:
                fld = mx.maximal_field(nu)  # picks the lambdas and counts their sets
                vals = fld.values.ravel()
            lams = mx.percentile_lambda_grid(vals, p["n_lambdas"])
            rep = mx.weak_type_check(nu, lams, fld)
            total_violations += rep.violations
            for lam, sl, bd in zip(rep.lambda_grid, rep.superlevel_measures,
                                   rep.bound_values):
                rows.append(f"{mid},{kind},{float(lam)!r},{float(sl)!r},{float(bd)!r}")
            mid += 1
    summary.write("weak_type.csv", rows)
    summary.write("weak_type.json", {"measures": mid, "violations": total_violations})
    summary.add_gate(Gate("weak-type-bound", total_violations, hi=0),
                     f"{total_violations} violations over {mid} measures")


def _run_mlmc(config: ExperimentConfig, summary: RunSummary) -> None:
    model, pay = config.model, config.payoff
    p = config.params
    eps = float(p["epsilon"])
    try:
        res = mlmc.run_mlmc(model, pay, eps, M=p["M"], alpha_hint=p["alpha_hint"],
                            seed=p["seed"], n_pilot=p["n_pilot"], counter=summary.steps)
    except NonconvergenceError as exc:
        summary.add_check("mlmc-run", "fail", f"nonconvergent: {exc.diagnostics}")
        return
    summary.write("mlmc_levels.csv",
                  [mlmc.LEVEL_CSV_HEADER] + [ls.csv_row() for ls in res.levels])
    summary.write("mlmc.json", res.to_dict())
    if config.model_name == "constant" and config.payoff_name == "clamp_ramp":
        err = abs(res.estimate - sde.constant_model_mean(model, pay))
        gate = Gate("mlmc-vs-quadrature", err, hi=3 * eps)
        summary.add_gate(gate, f"|estimate - truth| = {err:.5f} vs 3*eps = {gate.hi:.5f}")
    else:
        summary.add_check(
            "mlmc-run", "informational",
            f"estimate={res.estimate:.6f}, cost={res.total_cost:.3g}, "
            f"levels={len(res.levels)}",
        )


def _run_complexity(config: ExperimentConfig, summary: RunSummary) -> None:
    model, pay = config.model, config.payoff
    p = config.params
    predicted = po.predicted_mlmc_exponent(pay.space, p=pay.p, s=pay.s)
    sw = mlmc.complexity_sweep(
        model, pay, p["epsilon_list"], M=p["M"], seed=p["seed"],
        alpha_hint=p["alpha_hint"], predicted_exponent=predicted,
        compare_single_level=p["compare_single_level"], counter=summary.steps,
    )
    summary.write("complexity.csv", sw.csv_rows())
    payload = {
        "fitted_cost_exponent": sw.fitted_cost_exponent,
        "fit_r_squared": sw.fit.r_squared,
        "predicted_exponent_weak1": sw.predicted_exponent,
        "standard_mc_exponent": sw.standard_mc_exponent,
        "failed_epsilons": sw.failed_epsilons,
    }
    if sw.single_level is not None:
        payload["single_level"] = {
            "estimate": sw.single_level.estimate,
            "n_steps": sw.single_level.n_steps,
            "N": sw.single_level.N,
            "cost": sw.single_level.cost,
            "calibration_cost": sw.single_level.calibration_cost,
        }
    summary.write("complexity.json", payload)
    status = "informational" if not sw.failed_epsilons else "fail"
    summary.add_check(
        "complexity-sweep", status,
        f"fitted exponent {sw.fitted_cost_exponent:.3f} "
        f"(predicted {predicted:.3f}, standard MC {sw.standard_mc_exponent:.2f})",
    )


def _run_density(config: ExperimentConfig, summary: RunSummary) -> None:
    model = config.model
    p = config.params
    n_list, seed = p["n_list"], p["seed"]
    value_range = p["value_range"]
    if value_range is not None:
        value_range = tuple(float(v) for v in value_range)
    x0 = float(model.x0[0])
    cs = []
    env_payload = {}
    for n in n_list:
        # wrapped, so a seed near 2**64 keys a valid stream for every n
        hist = dg.terminal_histogram(model, int(n), p["N"], p["bins"],
                                     (seed + int(n)) % 2**64, value_range, summary.steps)
        summary.write(f"histogram_n{int(n)}.csv", hist.csv_rows())
        env = dg.fit_gaussian_envelope(hist, x0, model.T)
        cs.append(env.C_plus)
        env_payload[str(int(n))] = env.to_dict()
        env_payload[str(int(n))]["lower_bound_positive"] = dg.lower_bound_positive(
            hist, x0, model.T
        )
    summary.write("envelope.json", env_payload)
    if len(cs) >= 2:
        gate = spread_gate("envelope-uniformity", cs)
        summary.add_gate(gate, f"C+ spread {gate.value:.2f} across n={list(map(int, n_list))}")
    else:
        summary.add_check("envelope-fit", "informational", f"C+={cs[0]:.3f}")


_RUNNERS = {
    "rate": _run_rate,
    "inequality": _run_inequality,
    "maximal": _run_maximal,
    "mlmc": _run_mlmc,
    "complexity": _run_complexity,
    "density": _run_density,
}


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> RunSummary:
    """Dispatch a validated config to its module and write artifacts.

    ``summary.json`` is written however the run ends; an error is recorded in
    it and then raised again.
    """
    out = out_dir or config.out_dir or os.environ.get(OUT_ENV_VAR) or "."
    os.makedirs(out, exist_ok=True)
    summary = RunSummary(config.to_dict(), out)
    t0 = time.time()
    try:
        _RUNNERS[config.kind](config, summary)
    except BaseException as exc:
        summary.error = {"type": type(exc).__name__, "message": str(exc),
                         "diagnostics": getattr(exc, "diagnostics", {})}
        raise
    finally:
        summary.wall_seconds = time.time() - t0
        summary.write("summary.json", summary.to_dict())
    return summary


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the JSON config")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="seed override")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="irregmc",
        description="Monte Carlo experiments for irregular functionals of SDEs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        _add_common(subs.add_parser(kind, help=f"run a {kind} experiment"))
    st = subs.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--scale", type=float, default=0.25,
                    help="sample-size scale (1.0 = full acceptance scale)")
    st.add_argument("--out", default=None, help="optional directory for results JSON")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        from . import selftest  # imports every module

        results = selftest.run_all(scale=args.scale)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_json(os.path.join(args.out, "selftest.json"),
                        {r.criterion: r.to_dict() for r in results})
        n_fail = sum(not r.passed for r in results)
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
        return 0 if n_fail == 0 else 1

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
        if args.seed is not None:
            _check("seed", _SEED, args.seed)
            config.params["seed"] = args.seed
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.kind != args.command:
        print(f"config kind {config.kind!r} does not match subcommand "
              f"{args.command!r}", file=sys.stderr)
        return 2
    try:
        summary = run_experiment(config, out_dir=args.out)
    except IrregmcError as exc:
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for check in summary.checks:
        print(f"[{check['status'].upper()}] {check['name']}: {check['detail']}")
    for path in summary.artifacts:
        print(f"wrote {path}")
    return 1 if summary.failed else 0


if __name__ == "__main__":
    sys.exit(main())
