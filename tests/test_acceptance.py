"""Acceptance suite: runs every criterion at full scale with pinned tolerances.

Each test prints its own pass/fail line, so ``pytest -s tests/test_acceptance.py``
doubles as the acceptance report. The same checks run (down-scaled) behind the
``irregmc selftest`` command.
"""

import dataclasses
import math

import numpy as np
import pytest

from irregmc import selftest
from irregmc.stats import Gate, spread_gate


def _run(check):
    result = check(scale=1.0)
    print()
    print(result.line())
    print(f"        runtime: {result.runtime_s:.1f}s")
    assert result.gates
    assert result.passed == all(g.passed for g in result.gates)
    return result


def test_gate_keeps_strict_and_inclusive_bounds():
    assert Gate("g", 2.0, hi=2.0).passed and not Gate("g", 2.0, hi=2.0, strict=True).passed
    assert Gate("g", -0.65, lo=-0.65, hi=-0.35).passed
    assert not Gate("g", -0.66, lo=-0.65, hi=-0.35).passed
    for gate in (Gate("g", math.nan, hi=1.0), Gate("g", math.nan, lo=0.0), Gate("g", math.nan)):
        assert not gate.passed
    assert Gate("g", math.inf, lo=1.0).to_dict() == {
        "name": "g", "value": None, "lo": 1.0, "hi": None, "passed": True}
    assert str(Gate("growth", 1.0, hi=2.0, strict=True)) == "growth=1 (< 2)"
    assert str(Gate("slope", -0.561, lo=-0.65, hi=-0.35)) == "slope=-0.561 (in [-0.65, -0.35])"
    assert spread_gate("c", [1.0, 1.9]).passed and not spread_gate("c", [1.0, 2.0]).passed


def test_criterion_1_exact_coupling():
    assert _run(selftest.check_exact_coupling).passed


def test_criterion_2_strong_rates():
    assert _run(selftest.check_strong_rates).passed


def test_criterion_3_power_trick():
    assert _run(selftest.check_power_trick).passed


def test_criterion_4_weak_type():
    assert _run(selftest.check_weak_type).passed


def test_criterion_5_pointwise_estimates():
    assert _run(selftest.check_pointwise_estimates).passed


def test_criterion_6a_inequality_closed_form():
    assert _run(selftest.check_inequality_closed_form).passed


def test_criterion_6b_inequality_ratio_spread():
    # Boundedness gate: max ratio over the ratio at the largest t stays < 2.
    assert _run(selftest.check_inequality_ratio_bounded).passed


def test_criterion_6b_fails_when_ratio_grows(monkeypatch):
    real = selftest.av.inequality_check

    def frozen_lhs(*args, **kwargs):
        rep = real(*args, **kwargs)
        lhs = np.full_like(rep.lhs, rep.lhs[np.argmax(rep.scale_grid)])
        ratios = lhs / rep.rhs_base
        return dataclasses.replace(
            rep, lhs=lhs, ratios=ratios,
            max_ratio=float(ratios.max()), min_ratio=float(ratios.min()),
        )

    monkeypatch.setattr(selftest.av, "inequality_check", frozen_lhs)
    result = selftest.check_inequality_ratio_bounded(scale=0.1)
    assert not result.passed
    growth = next(g for g in result.gates if g.name == "growth")
    assert not growth.passed
    assert growth.value == pytest.approx(8**0.5, abs=1e-3)


def test_criterion_7_orlicz_toolkit():
    assert _run(selftest.check_orlicz_toolkit).passed


def test_criterion_8_mlmc_correctness():
    assert _run(selftest.check_mlmc_correctness).passed


def test_criterion_9_mlmc_complexity():
    assert _run(selftest.check_mlmc_complexity).passed


def test_criterion_10_density_diagnostics():
    assert _run(selftest.check_density_diagnostics).passed
