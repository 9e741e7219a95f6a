"""Experiment runner: JSON config in, CSV/JSON artifacts out.

Subcommands mirror the experiment kinds (rate, inequality, maximal, mlmc,
complexity, density) plus selftest. Configs are validated strictly: unknown
keys are rejected, since silent misconfiguration is the dominant failure mode
of numeric experiment runners. All artifacts are deterministic given the seed;
wall-clock timings live only in the run summary.
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
from . import maximal as mx
from . import mlmc
from . import payoff as po
from . import sde
from . import selftest
from .errors import ConfigError, DegenerateCurveError, NonconvergenceError

OUT_ENV_VAR = "IRREGMC_OUT"

EXPERIMENT_KINDS = ("rate", "inequality", "maximal", "mlmc", "complexity", "density")

_COMMON_KEYS = {"kind", "model", "payoff", "params", "out"}

_PARAM_KEYS = {
    "rate": {"q", "n_list", "N", "n_ref", "seed", "delta"},
    "inequality": {"family", "rule", "p", "q", "r", "s", "scale_grid", "N", "seed"},
    "maximal": {"n_atomic", "n_grid_1d", "n_grid_2d", "n_lambdas", "seed"},
    "mlmc": {"epsilon", "M", "alpha_hint", "seed", "n_pilot"},
    "complexity": {"epsilon_list", "M", "alpha_hint", "seed", "compare_single_level"},
    "density": {"n_list", "N", "bins", "seed", "value_range"},
}

_NEEDS_MODEL = {"rate", "mlmc", "complexity", "density"}
_NEEDS_PAYOFF = {"rate", "inequality", "mlmc", "complexity"}


@dataclass
class ExperimentConfig:
    kind: str
    model_name: str | None
    model_params: dict
    payoff_name: str | None
    payoff_params: dict
    params: dict
    out_dir: str | None

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
    config: dict
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_seconds: float = 0.0
    em_steps: float = 0.0

    def add_check(self, name: str, status: str, detail) -> None:
        if status not in ("pass", "fail", "informational"):
            raise ValueError(f"bad status {status!r}")
        self.checks.append({"name": name, "status": status, "detail": detail})

    @property
    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "checks": self.checks,
            "artifacts": self.artifacts,
            "costs": {"wall_seconds": self.wall_seconds, "em_steps": self.em_steps},
        }


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment config document (strict mode)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, _COMMON_KEYS, "config")
    kind = doc.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")

    model_name, model_params = None, {}
    if "model" in doc:
        block = doc["model"]
        _reject_unknown(block, {"name", "params"}, "model")
        model_name = block.get("name")
        model_params = dict(block.get("params", {}))
        if model_name not in sde.MODEL_REGISTRY:
            raise ConfigError(
                f"unknown model {model_name!r}; model registry has "
                f"{sorted(sde.MODEL_REGISTRY)}"
            )
    elif kind in _NEEDS_MODEL:
        raise ConfigError(f"experiment kind {kind!r} requires a model block")

    payoff_name, payoff_params = None, {}
    if "payoff" in doc:
        block = doc["payoff"]
        _reject_unknown(block, {"name", "params"}, "payoff")
        payoff_name = block.get("name")
        payoff_params = dict(block.get("params", {}))
        if payoff_name not in po.PAYOFF_REGISTRY:
            raise ConfigError(
                f"unknown payoff {payoff_name!r}; payoff registry has "
                f"{sorted(po.PAYOFF_REGISTRY)}"
            )
    elif kind in _NEEDS_PAYOFF:
        raise ConfigError(f"experiment kind {kind!r} requires a payoff block")

    params = dict(doc.get("params", {}))
    _reject_unknown(params, _PARAM_KEYS[kind], f"params for kind {kind!r}")
    _validate_ranges(kind, params)
    return ExperimentConfig(
        kind=kind, model_name=model_name, model_params=model_params,
        payoff_name=payoff_name, payoff_params=payoff_params,
        params=params, out_dir=doc.get("out"),
    )


def _validate_ranges(kind: str, params: dict) -> None:
    if "delta" in params and not 0.0 < params["delta"] < 1.0:
        raise ConfigError(f"delta must lie in (0,1), got {params['delta']}")
    if "epsilon" in params and not 0.0 < params["epsilon"] < 1.0:
        raise ConfigError(f"epsilon must lie in (0,1), got {params['epsilon']}")
    if "epsilon_list" in params:
        for eps in params["epsilon_list"]:
            if not 0.0 < eps < 1.0:
                raise ConfigError(f"epsilon must lie in (0,1), got {eps}")
    if "q" in params and params["q"] < 1:
        raise ConfigError(f"q must be >= 1, got {params['q']}")
    if "M" in params and params["M"] not in (2, 4):
        raise ConfigError(f"M must be 2 or 4, got {params['M']}")
    if "s" in params and params["s"] is not None and not 0.0 < params["s"] < 1.0:
        raise ConfigError(f"s must lie in (0,1), got {params['s']}")


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


def _write_rows(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build(config: ExperimentConfig):
    model = (sde.make_model(config.model_name, **config.model_params)
             if config.model_name else None)
    pay = (po.make_payoff(config.payoff_name, **config.payoff_params)
           if config.payoff_name else None)
    return model, pay


def _run_rate(config: ExperimentConfig, out: str, summary: RunSummary) -> None:
    model, pay = _build(config)
    p = config.params
    q = float(p.get("q", 2.0))
    n_list = p.get("n_list", [8, 16, 32, 64, 128, 256, 512])
    N = int(p.get("N", 100_000))
    n_ref = int(p.get("n_ref", 4096))
    seed = int(p.get("seed", 0))
    delta = float(p.get("delta", 0.7))
    counter = sde.StepCounter()
    curve = av.qerror_curves(model, [(pay, q)], n_list, N, n_ref, seed,
                             counter=counter)[0]
    curve_path = os.path.join(out, "rate_curve.csv")
    _write_rows(curve_path, curve.csv_rows())
    summary.artifacts.append(curve_path)
    summary.em_steps += counter.steps
    predicted = po.predicted_strong_exponent(pay.space, q, delta, p=pay.p, s=pay.s)
    try:
        fit = av.fit_rate(curve)
    except DegenerateCurveError as exc:
        summary.add_check("rate-fit", "informational", f"degenerate curve: {exc}")
        return
    ok = abs(fit.slope) >= predicted - 0.1
    payload = {
        "slope": fit.slope,
        "slope_stderr": fit.slope_stderr,
        "slope_ci95": [fit.slope - 1.96 * fit.slope_stderr,
                       fit.slope + 1.96 * fit.slope_stderr],
        "r_squared": fit.r_squared,
        "excluded_n": fit.excluded_n,
        "predicted_exponent": predicted,
        "delta": delta,
        "pass": bool(ok),
    }
    fit_path = os.path.join(out, "rate_fit.json")
    _write_json(fit_path, payload)
    summary.artifacts.append(fit_path)
    summary.add_check(
        "rate-slope-conservative", "pass" if ok else "fail",
        f"|slope|={abs(fit.slope):.3f} vs predicted-0.1={predicted - 0.1:.3f}",
    )


def _run_inequality(config: ExperimentConfig, out: str, summary: RunSummary) -> None:
    _, pay = _build(config)
    p = config.params
    rep = av.inequality_check(
        p.get("family", "gaussian_shift"), pay,
        p=float(p.get("p", 1.0)), q=float(p.get("q", 1.0)),
        rule=p.get("rule", "bv"),
        scale_grid=p.get("scale_grid", [0.2, 0.1, 0.05, 0.025]),
        N=int(p.get("N", 200_000)), seed=int(p.get("seed", 0)),
        r=float(p.get("r", math.inf)), s=p.get("s"),
    )
    csv_path = os.path.join(out, "inequality.csv")
    _write_rows(csv_path, rep.csv_rows())
    summary.artifacts.append(csv_path)
    payload = {
        "family": rep.family, "rule": rep.rule,
        "moment_order": rep.moment_order, "outer_exponent": rep.outer_exponent,
        "max_ratio": rep.max_ratio, "min_ratio": rep.min_ratio,
        "max_over_min": rep.max_ratio / rep.min_ratio if rep.min_ratio > 0 else None,
    }
    json_path = os.path.join(out, "inequality.json")
    _write_json(json_path, payload)
    summary.artifacts.append(json_path)
    summary.add_check(
        "inequality-ratios", "informational",
        f"max_ratio={rep.max_ratio:.4g}, min_ratio={rep.min_ratio:.4g}",
    )


def _run_maximal(config: ExperimentConfig, out: str, summary: RunSummary) -> None:
    p = config.params
    seed = int(p.get("seed", 0))
    n_lambdas = int(p.get("n_lambdas", 10))
    rng = np.random.default_rng(seed)
    rows = ["measure_id,kind,lambda,superlevel,bound"]
    total_violations = 0
    mid = 0
    plans = (
        ("atomic", int(p.get("n_atomic", 100)), mx.random_atomic_measure),
        ("grid1d", int(p.get("n_grid_1d", 50)), mx.random_density_1d),
        ("grid2d", int(p.get("n_grid_2d", 50)), mx.random_density_2d),
    )
    for kind, count, maker in plans:
        for _ in range(count):
            nu = maker(rng)
            if nu.is_atomic:
                probes = np.concatenate(
                    [rng.uniform(-6, 6, size=200), nu.atoms[:, 0] + 1e-3]
                )
                vals = [mx.maximal_at(nu, [x]) for x in probes]
            else:
                vals = mx.maximal_field(nu).values.ravel()
            lams = mx.percentile_lambda_grid(vals, n_lambdas)
            rep = mx.weak_type_check(nu, lams)
            total_violations += rep.violations
            for lam, sl, bd in zip(rep.lambda_grid, rep.superlevel_measures,
                                   rep.bound_values):
                rows.append(f"{mid},{kind},{float(lam)!r},{float(sl)!r},{float(bd)!r}")
            mid += 1
    csv_path = os.path.join(out, "weak_type.csv")
    _write_rows(csv_path, rows)
    summary.artifacts.append(csv_path)
    json_path = os.path.join(out, "weak_type.json")
    _write_json(json_path, {"measures": mid, "violations": total_violations})
    summary.artifacts.append(json_path)
    summary.add_check(
        "weak-type-bound", "pass" if total_violations == 0 else "fail",
        f"{total_violations} violations over {mid} measures",
    )


def _run_mlmc(config: ExperimentConfig, out: str, summary: RunSummary) -> None:
    model, pay = _build(config)
    p = config.params
    eps = float(p.get("epsilon", 0.01))
    M = int(p.get("M", 2))
    seed = int(p.get("seed", 0))
    kwargs = {}
    if "n_pilot" in p:
        kwargs["n_pilot"] = int(p["n_pilot"])
    try:
        res = mlmc.run_mlmc(model, pay, eps, M=M,
                            alpha_hint=p.get("alpha_hint", 1.0), seed=seed, **kwargs)
    except NonconvergenceError as exc:
        summary.add_check("mlmc-run", "fail", f"nonconvergent: {exc.diagnostics}")
        return
    rows = [mlmc.LEVEL_CSV_HEADER] + [ls.csv_row() for ls in res.levels]
    csv_path = os.path.join(out, "mlmc_levels.csv")
    _write_rows(csv_path, rows)
    summary.artifacts.append(csv_path)
    json_path = os.path.join(out, "mlmc.json")
    _write_json(json_path, res.to_dict())
    summary.artifacts.append(json_path)
    summary.em_steps += res.total_cost
    if config.model_name == "constant" and config.payoff_name == "clamp_ramp":
        mu = float(config.model_params.get("mu", 0.1))
        sig = float(config.model_params.get("sigma", 0.2))
        x0 = float(config.model_params.get("x0", 0.0))
        T = float(config.model_params.get("T", 1.0))
        gh_x, gh_w = np.polynomial.hermite_e.hermegauss(120)
        truth = float(
            np.sum(gh_w * np.clip(x0 + mu * T + sig * math.sqrt(T) * gh_x, 0.0, 1.0))
            / math.sqrt(2 * math.pi)
        )
        err = abs(res.estimate - truth)
        summary.add_check(
            "mlmc-vs-quadrature", "pass" if err <= 3 * eps else "fail",
            f"|estimate - truth| = {err:.5f} vs 3*eps = {3 * eps:.5f}",
        )
    else:
        summary.add_check(
            "mlmc-run", "informational",
            f"estimate={res.estimate:.6f}, cost={res.total_cost:.3g}, "
            f"levels={len(res.levels)}",
        )


def _run_complexity(config: ExperimentConfig, out: str, summary: RunSummary) -> None:
    model, pay = _build(config)
    p = config.params
    eps_list = p.get("epsilon_list", [0.02, 0.01, 0.005])
    M = int(p.get("M", 2))
    seed = int(p.get("seed", 0))
    delta = 0.9
    predicted = po.predicted_mlmc_exponent(pay.space, "weak1", delta, p=pay.p, s=pay.s)
    sw = mlmc.complexity_sweep(
        model, pay, eps_list, M=M, seed=seed,
        alpha_hint=p.get("alpha_hint", 1.0), predicted_exponent=predicted,
        compare_single_level=bool(p.get("compare_single_level", False)),
    )
    csv_path = os.path.join(out, "complexity.csv")
    _write_rows(csv_path, sw.csv_rows())
    summary.artifacts.append(csv_path)
    summary.em_steps += float(np.sum(sw.costs))
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
        summary.em_steps += sw.single_level.cost + sw.single_level.calibration_cost
    json_path = os.path.join(out, "complexity.json")
    _write_json(json_path, payload)
    summary.artifacts.append(json_path)
    status = "informational" if not sw.failed_epsilons else "fail"
    summary.add_check(
        "complexity-sweep", status,
        f"fitted exponent {sw.fitted_cost_exponent:.3f} "
        f"(predicted {predicted:.3f}, standard MC {sw.standard_mc_exponent:.2f})",
    )


def _run_density(config: ExperimentConfig, out: str, summary: RunSummary) -> None:
    model, _ = _build(config)
    p = config.params
    n_list = p.get("n_list", [16, 64, 256])
    N = int(p.get("N", 100_000))
    bins = int(p.get("bins", 60))
    seed = int(p.get("seed", 0))
    value_range = p.get("value_range")
    if value_range is not None:
        value_range = tuple(float(v) for v in value_range)
    x0 = float(model.x0[0])
    cs = []
    env_payload = {}
    for n in n_list:
        hist = dg.terminal_histogram(model, int(n), N, bins, seed + int(n),
                                     value_range=value_range)
        csv_path = os.path.join(out, f"histogram_n{int(n)}.csv")
        _write_rows(csv_path, hist.csv_rows())
        summary.artifacts.append(csv_path)
        env = dg.fit_gaussian_envelope(hist, x0, model.T)
        cs.append(env.C_plus)
        env_payload[str(int(n))] = env.to_dict()
        env_payload[str(int(n))]["lower_bound_positive"] = dg.lower_bound_positive(
            hist, x0, model.T
        )
    json_path = os.path.join(out, "envelope.json")
    _write_json(json_path, env_payload)
    summary.artifacts.append(json_path)
    if len(cs) >= 2:
        uniform = max(cs) / min(cs)
        summary.add_check(
            "envelope-uniformity", "pass" if uniform < 2.0 else "fail",
            f"C+ spread {uniform:.2f} across n={list(map(int, n_list))}",
        )
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
    """Dispatch a validated config to its module and write artifacts."""
    out = out_dir or config.out_dir or os.environ.get(OUT_ENV_VAR) or "."
    os.makedirs(out, exist_ok=True)
    summary = RunSummary(config=config.to_dict())
    t0 = time.time()
    _RUNNERS[config.kind](config, out, summary)
    summary.wall_seconds = time.time() - t0
    summary_path = os.path.join(out, "summary.json")
    _write_json(summary_path, summary.to_dict())
    summary.artifacts.append(summary_path)
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
        results = selftest.run_all(scale=args.scale)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_json(
                os.path.join(args.out, "selftest.json"),
                {r.criterion: {"name": r.name, "passed": r.passed,
                               "details": {k: str(v) for k, v in r.details.items()},
                               "runtime_s": r.runtime_s}
                 for r in results},
            )
        n_fail = sum(not r.passed for r in results)
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
        return 0 if n_fail == 0 else 1

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if config.kind != args.command:
        print(f"config kind {config.kind!r} does not match subcommand "
              f"{args.command!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config.params["seed"] = args.seed
    summary = run_experiment(config, out_dir=args.out)
    for check in summary.checks:
        print(f"[{check['status'].upper()}] {check['name']}: {check['detail']}")
    for path in summary.artifacts:
        print(f"wrote {path}")
    return 1 if summary.failed else 0


if __name__ == "__main__":
    sys.exit(main())
