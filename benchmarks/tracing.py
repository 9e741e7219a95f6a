"""Layer spans recorded from outside the library.

The tracer rebinds public function names in the irregmc module that looks
them up, so a call made anywhere in the library passes through a wrapper that
records a span (name, start, end, parent) and a few work counts. Nothing under
``src/`` is edited; ``uninstall`` puts every original back.

Span names are ``<layer>.<what>``; a layer's self time is the sum of the self
times of its spans, where a span's self time is its duration minus the part
of its interval that its direct child spans cover.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans, None for a root
    start: int  # perf_counter_ns
    end: int = 0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[int]:
    """Per-span duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# ---------------------------------------------------------------------------
# What gets rebound, and what each span counts
# ---------------------------------------------------------------------------


def _count_increments(args, kwargs, result) -> dict:
    return {"calls": 1, "normals": int(result.size), "paths": int(result.shape[0]),
            "bytes": int(result.nbytes)}


def _count_em(args, kwargs, result) -> dict:
    inc = _arg(args, kwargs, 1, "increments")
    return {"calls": 1, "path_steps": int(inc.shape[0]) * int(inc.shape[1])}


def _count_payoff(args, kwargs, result) -> dict:
    return {"evals": int(getattr(result, "size", 1))}


def _count_field(args, kwargs, result) -> dict:
    return {"nodes": int(result.values.size)}


def _maximal_at_name(args, kwargs) -> str:
    measure = _arg(args, kwargs, 0, "measure")
    if measure.is_atomic:
        return "maximal.at_atomic"
    return "maximal.at_1d" if measure.density.d == 1 else "maximal.at_2d"


# (module, attribute path, span name or namer, counter). A namer is called with
# the call's arguments, for spans classed by what they are given.
TARGETS = [
    ("irregmc.mlmc", "increment_batch", "randomkit.increment_batch", _count_increments),
    ("irregmc.avikainen", "increment_batch", "randomkit.increment_batch", _count_increments),
    ("irregmc.diagnostics", "increment_batch", "randomkit.increment_batch", _count_increments),
    ("irregmc.mlmc", "em_terminal_batch", "sde.em_terminal_batch", _count_em),
    ("irregmc.avikainen", "em_terminal_batch", "sde.em_terminal_batch", _count_em),
    ("irregmc.diagnostics", "em_terminal_batch", "sde.em_terminal_batch", _count_em),
    # coupled_terminal_batch looks em_terminal_batch up in irregmc.sde itself
    ("irregmc.sde", "em_terminal_batch", "sde.em_terminal_batch", _count_em),
    ("irregmc.mlmc", "coupled_terminal_batch", "sde.coupled_terminal_batch", None),
    ("irregmc.payoff", "Payoff.__call__", "payoff.eval", _count_payoff),
    ("irregmc.stats", "Welford.update", "stats.welford_update", None),
    ("irregmc.avikainen", "qerror_curves", "avikainen.qerror_curves", None),
    ("irregmc.avikainen", "fit_rate", "avikainen.fit_rate", None),
    ("irregmc.mlmc", "run_mlmc", "mlmc.run_mlmc", None),
    ("irregmc.maximal", "maximal_at", _maximal_at_name, None),
    ("irregmc.maximal", "maximal_field", "maximal.field", _count_field),
    ("irregmc.maximal", "gsp_field", "maximal.gsp", _count_field),
    ("irregmc.maximal", "pointwise_check", "maximal.pointwise", None),
    ("irregmc.maximal", "weak_type_check", "maximal.weak_type", None),
    ("irregmc.cli", "run_experiment", "cli.run_experiment", None),
]


class Tracer:
    """Records spans while installed; install/uninstall around traced work only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span = Span(span_name, stack[-1] if stack else None, time.perf_counter_ns())
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, path, name, counter in TARGETS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


@dataclass
class SpanTotals:
    calls: int = 0
    self_ns: int = 0
    failures: int = 0
    counts: dict = field(default_factory=dict)


def totals(spans: list[Span]) -> tuple[dict[str, SpanTotals], dict[str, SpanTotals]]:
    """Aggregate by span name and by layer: calls, self time, failures, counts."""
    by_name: dict[str, SpanTotals] = {}
    by_layer: dict[str, SpanTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        for key, table in ((span.name, by_name), (span.layer, by_layer)):
            t = table.setdefault(key, SpanTotals())
            t.calls += 1
            t.self_ns += own
            t.failures += span.failed
            for k, v in span.counts.items():
                t.counts[k] = max(t.counts.get(k, 0), v) if k == "bytes" else t.counts.get(k, 0) + v
    return by_name, by_layer
