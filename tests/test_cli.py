import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import irregmc
from irregmc import avikainen as av
from irregmc import cli, mlmc
from irregmc import payoff as po
from irregmc import sde
from irregmc.cli import (
    main,
    parse_config,
    run_experiment,
)
from irregmc.errors import (ConfigError, InvalidArgumentError, NonconvergenceError,
                            NumericFailureError)

RATE_CONFIG = {
    "kind": "rate",
    "model": {"name": "constant", "params": {"mu": 0.1, "sigma": 0.2}},
    "payoff": {"name": "clamp_ramp", "params": {}},
    "params": {"q": 2, "n_list": [8, 16, 32], "N": 2000, "n_ref": 256, "seed": 1},
}


def test_parse_roundtrip():
    cfg = parse_config(json.dumps(RATE_CONFIG))
    again = parse_config(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    assert cfg == again


def test_malformed_json_reports_position():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{not json")


def test_unknown_keys_rejected():
    doc = dict(RATE_CONFIG)
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(json.dumps(doc))
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc["params"]["bogus"] = 2
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(json.dumps(doc))


def test_unknown_payoff_names_registry():
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc["payoff"]["name"] = "no_such"
    with pytest.raises(ConfigError, match="payoff registry"):
        parse_config(json.dumps(doc))


def test_unknown_model_names_registry():
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc["model"]["name"] = "no_such"
    with pytest.raises(ConfigError, match="model registry"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("block, name, params", [
    ("model", "sincos", {"bogus": 1}),
    ("payoff", "clamp_ramp", {"lo": "a"}),
])
def test_bad_block_params_exit_2(tmp_path, capsys, block, name, params):
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc[block] = {"name": name, "params": params}
    with pytest.raises(ConfigError, match=f"{block} block"):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "bad_params.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["rate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{block} block" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("model", 5),
    ("payoff", "tent"),
    ("params", [1]),
])
def test_blocks_that_are_not_objects_exit_2(tmp_path, capsys, key, value):
    doc = {
        "kind": "mlmc",
        "model": {"name": "constant"},
        "payoff": {"name": "clamp_ramp"},
        "params": {"epsilon": 0.05},
        key: value,
    }
    with pytest.raises(ConfigError, match="must be a JSON object"):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "not_object.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["mlmc", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_block_name_must_be_a_string():
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc["model"]["name"] = ["sincos"]
    with pytest.raises(ConfigError, match="string name"):
        parse_config(json.dumps(doc))


def _doc(kind, params):
    doc = {"kind": kind, "model": {"name": "sincos"}, "params": params}
    if kind != "density":
        doc["payoff"] = {"name": "interval_indicator"}
    return doc


@pytest.mark.parametrize("kind, params, message", [
    ("rate", {"n_list": [3, 8], "n_ref": 64}, "divide n_ref"),
    ("rate", {"n_ref": 100}, "divide n_ref"),  # the default n_list
    ("rate", {"n_list": [0, 8]}, "n_list"),
    ("density", {"n_list": [16, "many"]}, "n_list"),
    ("mlmc", {"n_pilot": "many"}, "n_pilot"),
    ("mlmc", {"n_pilot": 1}, "n_pilot"),
    ("rate", {"N": 10}, "N must be an integer >= 1000"),
    ("density", {"N": 100}, "N must be an integer >= 10000"),
    ("inequality", {"rule": "sobolev", "q": 2.0, "r": 2.0}, "need q < r"),
    ("inequality", {"family": "cauchy_shift"}, "family must be one of"),
    ("inequality", {"rule": "holder"}, "unknown exponent rule 'holder'"),
    ("inequality", {"N": "many"}, "N must be an integer >= 1"),
    ("density", {"bins": 5}, "bins must be an integer >= 20"),
    ("complexity", {"epsilon_list": [0.02, 0.005]}, "at least 3 epsilons"),
    ("complexity", {"epsilon_list": [0.02, 0.01, 0.008]}, "span at least a 4x range"),
    ("mlmc", {"epsilon": "small"}, "epsilon must lie in"),
    ("rate", {"delta": "0.7"}, "delta must lie in"),
    ("inequality", {"rule": "fractional", "s": "half"}, "s must lie in"),
    ("rate", {"seed": "7"}, "seed must be an integer"),
    ("mlmc", {"seed": 1.5}, "seed must be an integer"),
    ("density", {"seed": -1}, "seed must be an integer"),
    ("inequality", {"scale_grid": "0.1"}, "scale_grid must be a nonempty list of numbers"),
    ("inequality", {"scale_grid": [0.1, "x"]}, "scale_grid must be a nonempty list"),
    ("density", {"value_range": "wide"}, "value_range must be a list"),
    ("density", {"value_range": [1.0, -1.0]}, "value_range must be a list"),
    ("mlmc", {"alpha_hint": "x"}, "alpha_hint must be a positive number or null"),
    ("mlmc", {"alpha_hint": 0}, "alpha_hint must be a positive number or null"),
    ("mlmc", {"alpha_hint": -1}, "alpha_hint must be a positive number or null"),
    ("complexity", {"alpha_hint": -1}, "alpha_hint must be a positive number or null"),
    ("complexity", {"compare_single_level": "no"}, "compare_single_level must be true or false"),
    ("rate", {"n_list": []}, "n_list must be a nonempty list"),
    ("density", {"n_list": []}, "n_list must be a nonempty list"),
    ("mlmc", {"epsilon": 0.1, "M": 4, "alpha_hint": 1000.5}, "positive finite float"),
    ("complexity", {"epsilon_list": [0.2, 0.1, 0.05], "M": 4, "alpha_hint": 1000.5},
     "positive finite float"),
    ("mlmc", {"epsilon": 1e-300, "M": 4}, "epsilon must lie in"),
    ("inequality", {"p": -1}, "p must be a finite number >= 1"),
    ("inequality", {"p": 0}, "p must be a finite number >= 1"),
    ("inequality", {"p": math.nan}, "p must be a finite number >= 1"),
    ("inequality", {"scale_grid": [0.0]}, "scale_grid must be a nonempty list of numbers"),
    ("inequality", {"scale_grid": [math.nan]}, "scale_grid must be a nonempty list of numbers"),
    ("inequality", {"scale_grid": [0.1, -0.1]}, "scale_grid must be a nonempty list of numbers"),
    ("rate", {"q": math.inf}, "q must be a finite number >= 1"),
    ("mlmc", {"M": 2.0}, "M must be one of the integers"),
    ("rate", {"n_list": [8, 64], "n_ref": 64}, "n_list must divide n_ref=64 and be smaller"),
    # a repeated n ran the whole sweep before the fit refused it, or wrote one histogram twice
    ("rate", {"n_list": [8, 8, 16, 32], "N": 1000, "n_ref": 64}, "n_list must be a nonempty "
     "list of distinct integers"),
    ("density", {"n_list": [16, 16, 64]}, "n_list must be a nonempty list of distinct integers"),
])
def test_runtime_param_errors_exit_2(tmp_path, capsys, kind, params, message):
    # each of these used to reach the library and end in a traceback, or to
    # run on a value the paper's estimates do not cover
    doc = _doc(kind, params)
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("params, message", [
    ({"n_lambdas": "x"}, "n_lambdas must be an integer >= 1"),
    ({"n_lambdas": 0}, "n_lambdas must be an integer >= 1"),
    ({"n_lambdas": 2.0}, "n_lambdas must be an integer >= 1"),
    ({"n_atomic": -1}, "n_atomic must be an integer >= 0"),
    ({"n_atomic": 1.5}, "n_atomic must be an integer >= 0"),
    ({"n_grid_2d": True}, "n_grid_2d must be an integer >= 0"),
    ({"n_atomic": 0, "n_grid_1d": 0, "n_grid_2d": 0}, "must be positive"),
])
def test_maximal_counts_exit_2(tmp_path, capsys, params, message):
    # each of these used to end in a traceback or pass over zero measures
    doc = {"kind": "maximal", "params": params}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["maximal", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# One small valid config per kind that sets every param the kind takes, and
# values that each param rejects, except where noted in the test
_VALID_PARAMS = {
    "rate": {"q": 2, "n_list": [8, 16], "N": 1000, "n_ref": 64, "seed": 1, "delta": 0.7},
    "inequality": {"family": "gaussian_shift", "rule": "fractional", "p": 1, "q": 1,
                   "r": 4.0, "s": 0.5, "scale_grid": [0.2, 0.1], "N": 100, "seed": 5},
    "maximal": {"n_atomic": 1, "n_grid_1d": 0, "n_grid_2d": 0, "n_lambdas": 2, "seed": 4},
    "mlmc": {"epsilon": 0.1, "M": 2, "alpha_hint": 1.0, "seed": 3, "n_pilot": 10},
    "complexity": {"epsilon_list": [0.2, 0.1, 0.05], "M": 4, "alpha_hint": 1.0, "seed": 7,
                   "compare_single_level": False},
    "density": {"n_list": [8], "N": 10000, "bins": 20, "seed": 6, "value_range": [-4, 4]},
}
_BAD_VALUES = ["x", {"a": 1}, math.nan, -1, True, None]


@settings(max_examples=300, deadline=None)
@given(slot=st.sampled_from([(kind, key) for kind in _VALID_PARAMS
                             for key in _VALID_PARAMS[kind]]),
       bad=st.sampled_from(_BAD_VALUES))
def test_one_bad_param_exits_2_and_names_it(slot, bad):
    kind, key = slot
    assume(not (bad is True and key == "compare_single_level"))
    assume(not (bad is None and key in ("alpha_hint", "r", "s", "value_range")))
    parse_config(json.dumps(_doc(kind, _VALID_PARAMS[kind])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            json.dump(_doc(kind, {**_VALID_PARAMS[kind], key: bad}), fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([kind, "--config", path, "--out", os.path.join(tmp, "out")])
    assert rc == 2
    assert re.search(rf"\b{key}\b", err.getvalue()), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_library_error_exits_3_and_writes_the_summary(tmp_path, capsys):
    # an empty histogram range used to end in a traceback and leave no summary
    doc = _doc("density", {"n_list": [1], "N": 10000, "value_range": [0, 1e-300]})
    cfg_path = tmp_path / "density.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "empty histogram range" in err and "Traceback" not in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == {"type": "InvalidArgumentError",
                                "message": "empty histogram range", "diagnostics": {}}
    # the histogram stepped its N = 10000 one-step paths before the range was found empty
    assert summary["costs"]["em_steps"] == 10000
    # a library caller sees the error itself
    (out / "summary.json").unlink()
    with pytest.raises(InvalidArgumentError, match="empty histogram range"):
        run_experiment(parse_config(json.dumps(doc)), out_dir=str(out))
    assert json.loads((out / "summary.json").read_text())["error"] == summary["error"]


def test_a_rate_run_that_fails_counts_the_steps_it_took(tmp_path, monkeypatch):
    def stepped_then_failed(*args, counter, **kwargs):
        counter.add(1234)
        raise InvalidArgumentError("failed after stepping")

    monkeypatch.setattr(av, "qerror_curves", stepped_then_failed)
    doc = _doc("rate", {"n_list": [8], "N": 1000, "n_ref": 64})
    with pytest.raises(InvalidArgumentError):
        run_experiment(parse_config(json.dumps(doc)), out_dir=str(tmp_path))
    assert json.loads((tmp_path / "summary.json").read_text())["costs"]["em_steps"] == 1234


def test_an_mlmc_run_that_hits_the_level_cap_counts_the_steps_it_took(tmp_path, monkeypatch):
    capped = functools.partial(mlmc.run_mlmc, max_level=1)
    monkeypatch.setattr(mlmc, "run_mlmc", capped)
    doc = _doc("mlmc", {"epsilon": 0.02, "M": 4, "seed": 3})
    run_experiment(parse_config(json.dumps(doc)), out_dir=str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(c["name"], c["status"]) for c in summary["checks"]] == [("mlmc-run", "fail")]
    with pytest.raises(NonconvergenceError) as err:
        capped(sde.make_model("sincos"), po.make_payoff("interval_indicator"), 0.02, M=4,
               seed=3)
    # N_0 one-step paths, and N_1 pairs of a 4-step fine and a 1-step coarse path
    n0, n1 = err.value.diagnostics["samples"]
    assert summary["costs"]["em_steps"] == n0 + n1 * (4 + 1) > 0


@pytest.mark.parametrize("epsilon_list", [[0.2, 0.1, 0.02], [0.04, 0.02, 0.01]])
def test_a_complexity_run_counts_the_steps_of_its_failed_epsilons(tmp_path, monkeypatch,
                                                                    epsilon_list):
    # capped at level 1, 0.02 and 0.01 fail the bias test and so does 0.04;
    # the second sweep fails for want of convergent runs
    real, spent = mlmc.run_mlmc, []

    def capped_below(model, payoff, eps, **kwargs):
        try:
            res = real(model, payoff, eps, max_level=1 if eps < 0.05 else 12, **kwargs)
        except NonconvergenceError as exc:
            n0, n1 = exc.diagnostics["samples"]
            spent.append(n0 + n1 * (kwargs["M"] + 1))
            raise
        spent.append(sum(ls.cost for ls in res.levels))
        return res

    monkeypatch.setattr(mlmc, "run_mlmc", capped_below)
    doc = _doc("complexity", {"epsilon_list": epsilon_list, "M": 2, "seed": 3})
    config = parse_config(json.dumps(doc))
    if max(epsilon_list) > 0.05:
        run_experiment(config, out_dir=str(tmp_path))
    else:
        with pytest.raises(NonconvergenceError, match="too few convergent runs"):
            run_experiment(config, out_dir=str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(spent) == 3
    assert summary["costs"]["em_steps"] == sum(spent) > 0


@pytest.mark.parametrize("kind, params", [
    ("mlmc", {"epsilon": 0.002, "seed": 1}),
    ("complexity", {"epsilon_list": [0.002, 0.004, 0.008], "seed": 1}),
])
def test_a_run_that_overflows_counts_its_pilot_steps(tmp_path, kind, params):
    # sigma * dW overflows in a top-up after the pilots of levels 0 and 1 have
    # stepped: these runs used to write em_steps 0, and numpy's overflow
    # warning went to stderr ahead of the error line
    doc = {"kind": kind, "model": {"name": "constant", "params": {"mu": 0, "sigma": 4.5e307}},
           "payoff": {"name": "clamp_ramp"}, "params": params}
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # in a child process, so that stderr is what a shell would see: pytest
    # records warnings instead of printing them
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(irregmc.__file__)))
    proc = subprocess.run([sys.executable, "-m", "irregmc.cli", kind, "--config",
                           str(cfg_path), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "run error: NumericFailureError: non-finite state at Euler-Maruyama step 0"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"]["type"] == "NumericFailureError"
    # N_0 one-step paths, and N_1 pairs of a 2-step fine and a 1-step coarse path (M = 2)
    assert summary["costs"]["em_steps"] == 1000 * 1 + 1000 * (2 + 1)


def test_summary_records_the_diagnostics_of_an_error(tmp_path, monkeypatch):
    def nonconvergent(*args, **kwargs):
        raise NonconvergenceError("too few convergent runs for a cost fit",
                                  diagnostics={"failed_epsilons": [0.05, 0.1]})

    monkeypatch.setattr(mlmc, "complexity_sweep", nonconvergent)
    cfg_path = tmp_path / "complexity.json"
    cfg_path.write_text(json.dumps(_doc("complexity", {"epsilon_list": [0.4, 0.2, 0.1]})))
    out = tmp_path / "out"
    assert main(["complexity", "--config", str(cfg_path), "--out", str(out)]) == 3
    error = json.loads((out / "summary.json").read_text())["error"]
    assert error["type"] == "NonconvergenceError"
    assert error["diagnostics"] == {"failed_epsilons": [0.05, 0.1]}


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("kind, extra", [*((kind, {}) for kind in _VALID_PARAMS),
                                         ("inequality", {"p": 1000})],
                         ids=[*_VALID_PARAMS, "inequality-underflow"])
def test_summary_is_strict_json(tmp_path, kind, extra):
    # an infinite r, the default, is echoed as null, and null reads back as it
    params = {**_VALID_PARAMS[kind], **extra}
    if kind == "inequality":
        params.update(rule="bv", r=math.inf)
    config = parse_config(json.dumps(_doc(kind, params)))
    if extra:
        # the base t^1000 underflows to 0 at every scale, which left only
        # Infinity and NaN to write
        with pytest.raises(NumericFailureError, match="moment order 1000"):
            run_experiment(config, out_dir=str(tmp_path))
    else:
        run_experiment(config, out_dir=str(tmp_path))
    echoed = json.loads((tmp_path / "summary.json").read_text(), parse_constant=_no_constant)
    assert parse_config(json.dumps(echoed["config"])) == config
    if extra:
        assert echoed["error"]["type"] == "NumericFailureError"
    for path in echoed["artifacts"]:
        if path.endswith(".json"):
            json.loads(Path(path).read_text(), parse_constant=_no_constant)
    if kind == "inequality":
        assert echoed["config"]["params"]["r"] is None
        del params["r"]
        assert parse_config(json.dumps(_doc(kind, params))) == config


@pytest.mark.parametrize("block, name, params, bad", [
    ("payoff", "interval_indicator", {"a": -math.inf, "b": 0.0}, "a"),
    ("payoff", "clamp_ramp", {"lo": 0.0, "hi": math.nan}, "hi"),
    ("model", "constant", {"mu": [0.1, math.inf], "d": 2}, "mu"),
    ("model", "sincos", {"x0": -math.inf}, "x0"),
])
def test_non_finite_block_params_exit_2_and_name_the_param(tmp_path, capsys, block, name,
                                                            params, bad):
    # the blocks are echoed into summary.json, and strict JSON has no NaN or Infinity
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc[block] = {"name": name, "params": params}
    message = f"{block} block for {name!r}: {bad} must be finite"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["rate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_summary_echoes_every_param_the_run_used(tmp_path):
    doc = _doc("mlmc", {"epsilon": 0.2})
    summary = run_experiment(parse_config(json.dumps(doc)), out_dir=str(tmp_path))
    echoed = json.loads((tmp_path / "summary.json").read_text())
    assert echoed["config"]["params"] == {"epsilon": 0.2, "M": 2, "alpha_hint": 1.0,
                                          "seed": 0, "n_pilot": mlmc.DEFAULT_PILOT}
    assert echoed["error"] is None and summary.error is None


def test_delta_range_rejected():
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc["params"]["delta"] = 1.5
    with pytest.raises(ConfigError, match="delta"):
        parse_config(json.dumps(doc))


def test_epsilon_range_rejected():
    doc = {
        "kind": "mlmc",
        "model": {"name": "constant"},
        "payoff": {"name": "clamp_ramp"},
        "params": {"epsilon": 2.0},
    }
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config(json.dumps(doc))


def test_rate_constant_model_is_informational(tmp_path):
    cfg = parse_config(json.dumps(RATE_CONFIG))
    summary = run_experiment(cfg, out_dir=str(tmp_path))
    assert any(
        c["name"] == "rate-fit" and c["status"] == "informational"
        for c in summary.checks
    )
    assert not summary.failed
    assert (tmp_path / "rate_curve.csv").exists()
    with open(tmp_path / "rate_curve.csv") as fh:
        assert fh.readline().strip() == "model,payoff,q,n,value,stderr,N,seed"


def test_a_payoff_name_with_a_comma_is_one_csv_field(tmp_path):
    # interval_indicator(0,1) used to split into two fields, nine in all
    doc = _doc("rate", {"n_list": [1, 2], "N": 1000, "n_ref": 4})
    run_experiment(parse_config(json.dumps(doc)), out_dir=str(tmp_path))
    with open(tmp_path / "rate_curve.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 8 and len(rows) == 2
    assert all(len(row) == 8 and row[1] == "interval_indicator(0,1)" for row in rows)


def test_a_model_of_no_dimension_exits_2(tmp_path, capsys):
    # d = 0 built a model, and every path kind then ended in a ZeroDivisionError
    doc = _doc("mlmc", {"epsilon": 0.2})
    doc["model"] = {"name": "constant", "params": {"d": 0}}
    cfg_path = tmp_path / "d0.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["mlmc", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "d must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind, name, T", [
    ("rate", "sincos", -1.0), ("rate", "sincos", 0.0), ("density", "ode", 0.0)])
def test_a_model_of_no_positive_horizon_exits_2(tmp_path, capsys, kind, name, T):
    # T <= 0 was caught only when paths were drawn: exit 3 after summary.json
    doc = _doc(kind, {})
    doc["model"] = {"name": name, "params": {"T": T}}
    cfg_path = tmp_path / "horizon.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "model block" in capsys.readouterr().err
    assert not out.exists()


def test_rate_sincos_passes_and_is_deterministic(tmp_path):
    doc = json.loads(json.dumps(RATE_CONFIG))
    doc["model"] = {"name": "sincos", "params": {}}
    doc["params"].update({"N": 4000, "n_ref": 512})
    cfg = parse_config(json.dumps(doc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    s1 = run_experiment(cfg, out_dir=str(out1))
    s2 = run_experiment(cfg, out_dir=str(out2))
    assert not s1.failed
    assert (out1 / "rate_curve.csv").read_bytes() == (out2 / "rate_curve.csv").read_bytes()
    fit = json.loads((out1 / "rate_fit.json").read_text())
    assert fit["pass"] is True
    gate, = (c for c in s1.checks if c["name"] == "rate-slope-conservative")
    assert gate["status"] == "pass" and gate["value"] == abs(fit["slope"])
    assert gate["lo"] == fit["predicted_exponent"] - 0.1 and gate["hi"] is None


def test_mlmc_quadrature_judges_the_run_s_own_payoff(tmp_path, capsys):
    # the truth of a ramp clamped to [-10, 10] under N(0, 4) is 0; a truth that
    # clamps to [0, 1] whatever the payoff's bounds reads 0.405 and fails a correct run
    doc = {
        "kind": "mlmc",
        "model": {"name": "constant", "params": {"mu": 0.0, "sigma": 2.0}},
        "payoff": {"name": "clamp_ramp", "params": {"lo": -10, "hi": 10}},
        "params": {"epsilon": 0.05, "M": 2, "seed": 3},
    }
    cfg_path = tmp_path / "ramp.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["mlmc", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "[PASS] mlmc-vs-quadrature" in capsys.readouterr().out
    check, = json.loads((out / "summary.json").read_text())["checks"]
    assert check["name"] == "mlmc-vs-quadrature" and check["status"] == "pass"
    estimate = json.loads((out / "mlmc.json").read_text())["estimate"]
    assert check["value"] == pytest.approx(abs(estimate), abs=1e-12)
    assert check["lo"] is None and check["hi"] == 3 * 0.05


@pytest.mark.parametrize("doc, message", [
    ({"kind": "rate", "model": {"name": "sincos"}, "payoff": {"name": "ball_indicator"},
      "params": {"n_list": [8, 16], "N": 1000, "n_ref": 64}},
     "payoff block 'ball_indicator' takes points in d=2, but model block 'sincos' draws "
     "points in d=1"),
    ({"kind": "inequality", "payoff": {"name": "ball_indicator"}, "params": {"N": 1000}},
     "payoff block 'ball_indicator' takes points in d=2, but params family 'gaussian_shift' "
     "draws points in d=1"),
    ({"kind": "mlmc", "model": {"name": "sincos2d"},
      "payoff": {"name": "ball_indicator", "params": {"d": 3}}, "params": {"epsilon": 0.1}},
     "payoff block 'ball_indicator' takes points in d=3, but model block 'sincos2d' draws "
     "points in d=2"),
], ids=["rate", "inequality", "mlmc"])
def test_a_payoff_of_another_dimension_exits_2(tmp_path, capsys, doc, message):
    # these ran on a broadcast payoff and exited 0, or ended in a numpy traceback
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([doc["kind"], "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_mlmc_experiment_quadrature_check(tmp_path):
    doc = {
        "kind": "mlmc",
        "model": {"name": "constant", "params": {"mu": 0.1, "sigma": 0.2}},
        "payoff": {"name": "clamp_ramp"},
        "params": {"epsilon": 0.01, "M": 2, "seed": 3},
    }
    cfg = parse_config(json.dumps(doc))
    summary = run_experiment(cfg, out_dir=str(tmp_path))
    statuses = {c["name"]: c["status"] for c in summary.checks}
    assert statuses["mlmc-vs-quadrature"] == "pass"
    with open(tmp_path / "mlmc_levels.csv") as fh:
        assert fh.readline().strip() == "level,h,M,N,mean,variance,cost"
    payload = json.loads((tmp_path / "mlmc.json").read_text())
    assert "estimate" in payload and "levels" in payload


def test_maximal_experiment(tmp_path):
    doc = {
        "kind": "maximal",
        "params": {"n_atomic": 5, "n_grid_1d": 2, "n_grid_2d": 2, "seed": 4},
    }
    cfg = parse_config(json.dumps(doc))
    summary = run_experiment(cfg, out_dir=str(tmp_path))
    statuses = {c["name"]: c["status"] for c in summary.checks}
    assert statuses["weak-type-bound"] == "pass"
    with open(tmp_path / "weak_type.csv") as fh:
        assert fh.readline().strip() == "measure_id,kind,lambda,superlevel,bound"


def test_maximal_experiment_computes_each_field_once(tmp_path, monkeypatch):
    from irregmc import maximal as mx

    calls = []
    field = mx.maximal_field

    def counted(measure, R=math.inf):
        calls.append(measure.d)
        return field(measure, R)

    monkeypatch.setattr(mx, "maximal_field", counted)
    doc = {"kind": "maximal",
           "params": {"n_atomic": 1, "n_grid_1d": 1, "n_grid_2d": 2, "seed": 4}}
    summary = run_experiment(parse_config(json.dumps(doc)), out_dir=str(tmp_path))
    assert not summary.failed
    assert calls == [1, 2, 2]


def test_inequality_experiment(tmp_path):
    doc = {
        "kind": "inequality",
        "payoff": {"name": "interval_indicator"},
        "params": {"family": "gaussian_shift", "rule": "bv", "p": 1, "q": 1,
                   "scale_grid": [0.2, 0.1], "N": 5000, "seed": 5},
    }
    cfg = parse_config(json.dumps(doc))
    summary = run_experiment(cfg, out_dir=str(tmp_path))
    assert not summary.failed
    with open(tmp_path / "inequality.csv") as fh:
        assert fh.readline().strip() == "family,rule,t,lhs,lhs_stderr,rhs_base,ratio"


def test_density_experiment(tmp_path):
    doc = {
        "kind": "density",
        "model": {"name": "constant", "params": {"mu": 0.0, "sigma": 1.0}},
        "params": {"n_list": [8, 16], "N": 20000, "bins": 40, "seed": 6,
                   "value_range": [-4, 4]},
    }
    cfg = parse_config(json.dumps(doc))
    summary = run_experiment(cfg, out_dir=str(tmp_path))
    statuses = {c["name"]: c["status"] for c in summary.checks}
    assert statuses["envelope-uniformity"] == "pass"
    gate, = (c for c in summary.checks if c["name"] == "envelope-uniformity")
    assert gate["value"] < gate["hi"] == 2.0 and gate["lo"] is None
    with open(tmp_path / "histogram_n8.csv") as fh:
        assert fh.readline().strip() == "bin_center,density,count"
    env = json.loads((tmp_path / "envelope.json").read_text())
    assert set(env) == {"8", "16"}


def test_density_with_the_largest_seed_exits_0(tmp_path):
    # histogram n is keyed with seed + n, wrapped into [0, 2**64)
    doc = {
        "kind": "density",
        "model": {"name": "constant", "params": {"mu": 0.0, "sigma": 1.0}},
        "params": {"n_list": [16], "N": 20000, "bins": 40, "seed": 2**64 - 1,
                   "value_range": [-4, 4]},
    }
    cfg_path = tmp_path / "density.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["density", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "histogram_n16.csv").exists()


def test_complexity_experiment_headers(tmp_path):
    doc = {
        "kind": "complexity",
        "model": {"name": "constant", "params": {"mu": 0.1, "sigma": 0.2}},
        "payoff": {"name": "clamp_ramp"},
        "params": {"epsilon_list": [0.08, 0.04, 0.02], "M": 2, "seed": 7},
    }
    cfg = parse_config(json.dumps(doc))
    summary = run_experiment(cfg, out_dir=str(tmp_path))
    assert not summary.failed
    with open(tmp_path / "complexity.csv") as fh:
        assert fh.readline().strip() == "epsilon,estimate,total_cost"
    payload = json.loads((tmp_path / "complexity.json").read_text())
    assert "fitted_cost_exponent" in payload


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "rate.json"
    cfg_path.write_text(json.dumps(RATE_CONFIG))
    rc = main(["rate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    rc = main(["mlmc", "--config", str(cfg_path), "--out", str(tmp_path / "out2")])
    assert rc == 2  # kind mismatch
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rc = main(["rate", "--config", str(bad)])
    assert rc == 2
    rc = main(["rate", "--config", str(cfg_path), "--seed", "-1"])
    assert rc == 2  # the override is checked like the config's seed


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("IRREGMC_OUT", str(tmp_path / "envout"))
    cfg = parse_config(json.dumps(RATE_CONFIG))
    summary = run_experiment(cfg)
    assert os.path.dirname(summary.artifacts[0]) == str(tmp_path / "envout")


def test_summary_lists_every_artifact(tmp_path):
    cfg = parse_config(json.dumps(RATE_CONFIG))
    summary = run_experiment(cfg, out_dir=str(tmp_path))
    for path in summary.artifacts:
        assert os.path.exists(path)
    listed = {os.path.basename(p) for p in summary.artifacts}
    produced = {p for p in os.listdir(tmp_path)}
    assert produced == listed


# Imports every irregmc module in a fresh interpreter, runs each config through
# main and the two checks with closed-form oracles, and prints the irregmc and
# scipy modules that are loaded at the end.
_IMPORT_PROBE = """
import importlib, json, os, pkgutil, sys
import irregmc
for module in pkgutil.iter_modules(irregmc.__path__):
    importlib.import_module(f"irregmc.{module.name}")
from irregmc import cli, selftest
out = sys.argv[1]
for i, doc in enumerate(json.loads(sys.argv[2])):
    path = os.path.join(out, f"{i}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = cli.main([doc["kind"], "--config", path, "--out", os.path.join(out, str(i))])
    assert rc == 0, (doc["kind"], rc)
selftest.check_inequality_closed_form(scale=0.01)
assert selftest.check_orlicz_toolkit(scale=0.01).passed
print(json.dumps([sorted(m for m in sys.modules if m.startswith(prefix))
                  for prefix in ("irregmc.", "scipy")]))
"""


def test_simulation_kinds_never_import_scipy(tmp_path):
    # numpy is the one runtime dependency: scipy serves only as a test oracle,
    # and importing it costs about a second of each run's start-up
    constant = {"name": "constant", "params": {"mu": 0.1, "sigma": 0.2}}
    docs = [
        RATE_CONFIG,
        {"kind": "mlmc", "model": constant, "payoff": {"name": "clamp_ramp"},
         "params": {"epsilon": 0.05, "seed": 3}},
        {"kind": "inequality", "payoff": {"name": "interval_indicator"},
         "params": {"scale_grid": [0.2, 0.1], "N": 2000, "seed": 5}},
        {"kind": "complexity", "model": constant, "payoff": {"name": "clamp_ramp"},
         "params": {"epsilon_list": [0.08, 0.04, 0.02], "seed": 7}},
        {"kind": "density", "model": {"name": "constant", "params": {"sigma": 1.0}},
         "params": {"n_list": [8], "N": 10000, "bins": 20, "seed": 6,
                    "value_range": [-4, 4]}},
        {"kind": "maximal", "params": {"n_atomic": 2, "n_grid_1d": 1, "n_grid_2d": 1,
                                       "seed": 4}},
    ]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(irregmc.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), json.dumps(docs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    package = os.path.dirname(irregmc.__file__)
    assert loaded == sorted(f"irregmc.{name[:-3]}" for name in os.listdir(package)
                            if name.endswith(".py") and name != "__init__.py")
    assert scipy_modules == []


def test_selftest_command_writes_results(tmp_path, monkeypatch, capsys):
    # main imports selftest only for this command; run_all is stubbed
    from irregmc import selftest
    from irregmc.stats import Gate

    fake = [
        selftest.CheckResult("1", "one", [Gate("slope", -0.5, lo=-0.65, hi=-0.35)],
                             {"N": 10, "values": [1.0, math.inf]}),
        selftest.CheckResult("2", "two", [Gate("growth", 2.0, hi=2.0, strict=True),
                                          Gate("spread", math.nan, lo=0.0)]),
    ]
    monkeypatch.setattr(selftest, "run_all", lambda scale: fake)
    assert main(["selftest", "--scale", "0.01", "--out", str(tmp_path)]) == 1
    assert "1/2 checks passed" in capsys.readouterr().out
    results = json.loads((tmp_path / "selftest.json").read_text(), parse_constant=_no_constant)
    assert results["1"]["passed"] is True and results["2"]["passed"] is False
    assert results["1"]["gates"] == [
        {"name": "slope", "value": -0.5, "lo": -0.65, "hi": -0.35, "passed": True}]
    assert results["1"]["info"] == {"N": 10, "values": [1.0, None]}
    assert results["2"]["gates"] == [
        {"name": "growth", "value": 2.0, "lo": None, "hi": 2.0, "passed": False},
        {"name": "spread", "value": None, "lo": 0.0, "hi": None, "passed": False}]


# Whole configs for the exit-code property. Each param, and each model and
# payoff block, has (valid values, rejected values): the valid ones are small
# or extreme, and some pairs of them are rejected together. Sizes stay small,
# since N, n_ref, bins and n_lambdas have no upper bound.
_PARAM_VALUES = {
    "rate": {"q": ([1, 2.5, 1e3], [0.5]), "n_list": ([[1, 2], [1, 2, 4]], [[2, 2]]),
             "N": ([av.MIN_PATHS], [av.MIN_PATHS - 1]), "n_ref": ([4, 8], [0]),
             "delta": ([1e-12, 0.7, 1 - 1e-12], [1])},
    "inequality": {"family": (sorted(av.PAIR_FAMILIES), ["cauchy_shift"]),
                   "rule": (["bv", "sobolev", "fractional"], ["holder"]),
                   "p": ([1, 2.5, 1e3], [0.5]), "q": ([1, 2, 1e3], [math.nan]),
                   "r": ([None, 4.0, 1e308], [1]), "s": ([0.5, 1e-12, None], [1]),
                   "scale_grid": ([[0.2, 0.1], [1e-300], [1e300]], [[]]),
                   "N": ([1, 100], [0])},
    "maximal": {"n_atomic": ([0, 1], [-1]), "n_grid_1d": ([0, 1], [1.5]),
                "n_grid_2d": ([0, 1], [True]), "n_lambdas": ([1, 3], [0])},
    "mlmc": {"epsilon": ([0.2, 1 - 1e-12], [1.0]), "M": (list(mlmc.REFINEMENTS), [3]),
             "alpha_hint": ([None, 1.0, 1000.0], [0]), "n_pilot": ([2, 1000], [1])},
    "complexity": {"epsilon_list": ([[0.8, 0.4, 0.2], [0.2, 0.1, 0.05]], [[0.2, 0.1]]),
                   "M": (list(mlmc.REFINEMENTS), [1]),
                   "alpha_hint": ([None, 1.0, 1000.0], [-1]),
                   "compare_single_level": ([False, True], [0])},
    "density": {"n_list": ([[1], [1, 4]], [[0]]), "N": ([10_000], [9_999]),
                "bins": ([20, 200], [19]),
                "value_range": ([None, [-4, 4], [0, 1e-300]], [[1, 0]])},
}
_SEEDS = ([0, 2**64 - 1], [2**64])
_MODEL_PARAMS = {
    "constant": ([{}, {"mu": 0, "sigma": 4.5e307}, {"mu": 1e308, "sigma": 0},
                  {"d": 2, "T": 1e-300}], [{"d": 0}]),
    "sincos": ([{}, {"x0": 1e300, "T": 1e300}], [{"cos_amp": 1.0}]),
    "sincos2d": ([{}, {"cos_amp": 1e-300}], [{"T": -1.0}]),
    "zero": ([{}, {"d": 3, "x0": -1e300}], [{"x0": "far"}]),
    "ode": ([{}, {"T": 1e-300}], [{"sigma": 1}]),
}
_PAYOFF_PARAMS = {
    "interval_indicator": ([{}, {"a": -1e-300, "b": 1e-300}], [{"a": 1, "b": 0}]),
    "ball_indicator": ([{}, {"d": 1, "radius": 1e300}], [{"radius": 0}]),
    "clamp_ramp": ([{}, {"lo": -1e300, "hi": 1e300}], [{"lo": 1, "hi": 1}]),
    "tent": ([{}, {"s": 1e-12, "p": 1}], [{"q": 1}]),
    "tent_power": ([{}, {"s": 1}], [{"s": 1.5}]),
    "capped_hat": ([{}, {"p": 1e300}], [{"p": "two"}]),
    "inverse_quarter": ([{}, {"cap": -1}], [{"cap": None}]),
}


@st.composite
def _whole_configs(draw):
    def value(valid_and_rejected):
        valid, rejected = valid_and_rejected
        return draw(st.sampled_from(rejected if draw(st.integers(0, 11)) == 0 else valid))

    kind = draw(st.sampled_from(sorted(cli._KINDS)))
    doc = {"kind": kind, "params": {key: value(values)
                                    for key, values in _PARAM_VALUES[kind].items()}}
    doc["params"]["seed"] = value(_SEEDS)
    for block, table in (("model", _MODEL_PARAMS), ("payoff", _PAYOFF_PARAMS)):
        if block in cli._KINDS[kind][0]:
            name = draw(st.sampled_from(sorted(table)))
            doc[block] = {"name": name, "params": value(table[name])}
    if kind == "mlmc" and doc["model"]["name"] == "zero" and draw(st.booleans()):
        # the smallest target; it stays cheap only where every level's variance is 0
        doc["params"]["epsilon"] = mlmc.MIN_EPSILON
    return doc


def test_the_whole_config_tables_cover_every_kind_model_and_payoff():
    assert set(_PARAM_VALUES) == set(cli._KINDS)
    for kind, (_, table, _) in cli._KINDS.items():
        assert set(_PARAM_VALUES[kind]) | {"seed"} == set(table)
    assert set(_MODEL_PARAMS) == set(sde.MODEL_REGISTRY)
    assert set(_PAYOFF_PARAMS) == set(po.PAYOFF_REGISTRY)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(doc=_whole_configs())
def test_every_whole_config_exits_cleanly_and_writes_what_it_lists(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([doc["kind"], "--config", path, "--out", out])
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert not os.path.exists(out)
            return
        summary = json.loads(Path(out, "summary.json").read_text(),
                             parse_constant=_no_constant)
        assert (rc == 3) == (summary["error"] is not None)
        assert (rc == 1) == any(c["status"] == "fail" for c in summary["checks"])
        assert summary["costs"]["em_steps"] == int(summary["costs"]["em_steps"]) >= 0
        listed = summary["artifacts"]
        assert sorted(os.listdir(out)) == sorted(
            [os.path.basename(p) for p in listed] + ["summary.json"])
        for artifact in listed:
            text = Path(artifact).read_text()
            if artifact.endswith(".json"):
                json.loads(text, parse_constant=_no_constant)
            else:
                rows = list(csv.reader(io.StringIO(text)))
                assert len(rows) >= 2 and len({len(row) for row in rows}) == 1, artifact
