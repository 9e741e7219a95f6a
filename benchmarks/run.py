"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has finished, until ``--seconds`` have
passed (at least one operation always runs). Every operation's outputs pass
through the workload's correctness gates; a failed gate or an exception
counts as a failed operation.

Every time is given in reference-speed seconds. The machines this runs on
are shared, and their speed drifts by up to a factor of two within a minute,
so raw seconds from two runs are not comparable. Each workload brings a
calibration loop, a numpy-only stand-in for its hot loop that calls no
irregmc code, and the loop is timed before and after each timed piece. A
piece's slowness is the mean of those two loop times over the loop's
reference time, and a run reports the sum of its pieces' seconds over the sum
of their slownesses. Raw seconds go to the readable table and the results
file.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
each operation twice, untraced and traced, in alternating order; it reports
the per-layer metrics of the traced copies and fails unless the trace is
complete (see ``check_trace``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table. A results file with every operation's timings and
output digest goes to benchmarks/out/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 5
LAYERS = ("randomkit", "sde", "payoff", "stats", "avikainen", "mlmc", "maximal", "cli")
MAXIMAL_AT_KINDS = ("at_atomic", "at_1d", "at_2d")


@dataclass
class Timed:
    index: int
    wall_s: float
    cpu_s: float
    result: object = None  # workloads.OpResult, None when the operation raised
    error: str | None = None
    spans: list = field(default_factory=list)
    slowness: float = 1.0  # see Speedometer.slowness

    @property
    def speed(self) -> float:
        """Reference-speed seconds per measured second."""
        return 1.0 / self.slowness

    @property
    def failed(self) -> bool:
        return self.result is None or bool(self.result.failures)


class Speedometer:
    """Times a workload's calibration loop between pieces of work."""

    def __init__(self, workload):
        self.run = workload.calibration()
        self.ref_s = workload.calibration_ref_s
        self.before = self.run()

    def slowness(self) -> float:
        """Mean loop time either side of the work done since the last call,
        over the loop's reference time."""
        after = self.run()
        mean = (self.before + after) / 2.0
        self.before = after
        return mean / self.ref_s


def timed_op(workload, state, index: int, meter: Speedometer, tracer=None) -> Timed:
    t0, c0 = time.perf_counter(), time.process_time()
    result = error = None
    try:
        if tracer is None:
            result = workload.operation(state, index)
        else:
            with tracer:
                result = workload.operation(state, index)
    except Exception:  # a failing operation is counted, not fatal to the run
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    timed = Timed(index, time.perf_counter() - t0, time.process_time() - c0,
                  result, error)
    timed.slowness = meter.slowness()
    if tracer is not None:
        timed.spans = tracer.spans
    return timed


def probe_setup(workload: str, seed: int, meter: Speedometer) -> tuple[float, float]:
    """Seconds of one cold set-up in a fresh interpreter, and the slowness around it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return raw, meter.slowness()


def median(values) -> float:
    return float(statistics.median(values))


def ref_mean(seconds, slowness) -> float:
    """Mean of ``seconds`` in reference-speed seconds: a ratio of sums, so that
    the noise of single calibration loops averages out over the run."""
    return sum(seconds) / sum(slowness)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced operation
# ---------------------------------------------------------------------------


def layer_metrics(traced: Timed, untraced: Timed) -> dict:
    """Per-layer metrics of one traced operation, times in reference-speed units."""
    from tracing import SpanTotals, totals

    by_name, by_layer = totals(traced.spans)
    none = SpanTotals()
    sec = traced.speed / 1e9  # reference-speed seconds per measured ns

    def per(total_ns, count, unit_ns):
        return total_ns * traced.speed / unit_ns / count if count else 0.0

    rk, sd = by_layer.get("randomkit", none), by_layer.get("sde", none)
    pay = by_layer.get("payoff", none)
    normals, paths = rk.counts.get("normals", 0), rk.counts.get("paths", 0)
    steps, evals = sd.counts.get("path_steps", 0), pay.counts.get("evals", 0)
    from_outputs = traced.result.layer
    m = {
        "randomkit.calls": rk.counts.get("calls", 0),
        "randomkit.normals": normals,
        "randomkit.normals_per_path": per(normals, paths, 1),
        "randomkit.self_s": rk.self_ns * sec,
        "randomkit.ns_per_normal": per(rk.self_ns, normals, 1),
        "randomkit.bytes_max": rk.counts.get("bytes", 0),
        "sde.calls": sd.counts.get("calls", 0),
        "sde.path_steps": steps,
        "sde.self_s": sd.self_ns * sec,
        "sde.ns_per_path_step": per(sd.self_ns, steps, 1),
        "sde.failures": sd.failures,
        "payoff.evals": evals,
        "payoff.self_s": pay.self_ns * sec,
        "payoff.ns_per_eval": per(pay.self_ns, evals, 1),
        "stats.self_s": by_layer.get("stats", none).self_ns * sec,
        "avikainen.self_s": by_layer.get("avikainen", none).self_ns * sec,
        "mlmc.self_s": by_layer.get("mlmc", none).self_ns * sec,
        "mlmc.levels": from_outputs.get("mlmc.levels", 0),
        "mlmc.samples": from_outputs.get("mlmc.samples", 0),
        "mlmc.nonconvergent": by_name.get("mlmc.run_mlmc", none).failures,
        "mlmc.cost_vs_optimal": from_outputs.get("mlmc.cost_vs_optimal", 0.0),
    }
    for kind in MAXIMAL_AT_KINDS:
        t = by_name.get(f"maximal.{kind}", none)
        m[f"maximal.{kind}.calls"] = t.calls
        m[f"maximal.{kind}.self_s"] = t.self_ns * sec
        m[f"maximal.{kind}.us_per_call"] = per(t.self_ns, t.calls, 1e3)
    for what in ("field", "gsp"):
        t = by_name.get(f"maximal.{what}", none)
        m[f"maximal.{what}.self_s"] = t.self_ns * sec
        m[f"maximal.{what}.nodes"] = t.counts.get("nodes", 0)
    for what in ("pointwise", "weak_type"):
        m[f"maximal.{what}.self_s"] = by_name.get(f"maximal.{what}", none).self_ns * sec
    m["cli.self_s"] = by_layer.get("cli", none).self_ns * sec
    m["cli.bytes_written"] = from_outputs.get("cli.bytes_written", 0)
    m["trace.overhead_s"] = traced.wall_s * traced.speed - untraced.wall_s * untraced.speed
    return m


def layer_shares(traced: Timed) -> dict:
    """Each layer's self time as a share of the traced operation's wall time."""
    from tracing import totals

    _, by_layer = totals(traced.spans)
    shares = {layer: by_layer[layer].self_ns / 1e9 / traced.wall_s
              for layer in LAYERS if layer in by_layer}
    shares["harness"] = 1.0 - sum(shares.values())
    return shares


def check_trace(traced: Timed, untraced: Timed) -> list[str]:
    """Completeness of one traced operation against its untraced twin."""
    if traced.result is None or untraced.result is None:
        return ["operation raised"]
    from tracing import totals

    _, by_layer = totals(traced.spans)
    problems = []
    steps = by_layer["sde"].counts.get("path_steps", 0) if "sde" in by_layer else 0
    normals = by_layer["randomkit"].counts.get("normals", 0) if "randomkit" in by_layer else 0
    if steps != untraced.result.path_steps:
        problems.append(f"traced sde.path_steps {steps} != untraced "
                        f"path_steps {untraced.result.path_steps}")
    if normals != untraced.result.normals:
        problems.append(f"traced randomkit.normals {normals} != sum B*n*d "
                        f"{untraced.result.normals} implied by the outputs")
    if untraced.result.path_steps == 0:
        for layer in ("randomkit", "sde"):
            if layer in by_layer:
                problems.append(f"{layer} recorded {by_layer[layer].calls} calls "
                                "on a workload that simulates no paths")
    if traced.result.digest != untraced.result.digest:
        problems.append("traced and untraced outputs differ")
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def loop(seconds: float, step) -> list:
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(step(len(out)))
    return out


def path_steps_per_s(ops: list[Timed]) -> float:
    ok = [t for t in ops if t.result is not None]
    if not ok:
        return 0.0
    steps = sum(t.result.path_steps for t in ok) / len(ok)
    return steps / ref_mean((t.wall_s for t in ok), (t.slowness for t in ok))


def plain_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    meter = Speedometer(workload)
    setup = [probe_setup(workload.name, seed, meter) for _ in range(SETUP_SAMPLES)]
    state = workload.setup(seed, workdir)
    meter.slowness()  # the in-process set-up is not a timed piece
    ops = loop(seconds, lambda i: timed_op(workload, state, i, meter))
    ok = [t for t in ops if t.result is not None]
    metrics = {
        "wall_s": ref_mean((t.wall_s for t in ops), (t.slowness for t in ops)),
        "cpu_s": ref_mean((t.cpu_s for t in ops), (t.slowness for t in ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median(raw / slowness for raw, slowness in setup),
    }
    readable = {
        "raw wall_s": median(t.wall_s for t in ops),
        "raw cpu_s": median(t.cpu_s for t in ops),
        "raw setup_s": median(raw for raw, _ in setup),
        "path_steps": median(t.result.path_steps for t in ok) if ok else 0,
        "path_steps_per_s": path_steps_per_s(ops),
        "fail_frac": sum(t.failed for t in ops) / len(ops),
    }
    return {"ops": ops, "metrics": metrics, "readable": readable,
            "setup_samples_s": setup, "problems": []}


def traced_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    from tracing import Tracer

    state = workload.setup(seed, workdir)
    meter = Speedometer(workload)

    def pair(i):
        # alternate which copy runs first, so warm-up favours neither
        if i % 2 == 0:
            untraced = timed_op(workload, state, i, meter)
            traced = timed_op(workload, state, i, meter, Tracer())
        else:
            traced = timed_op(workload, state, i, meter, Tracer())
            untraced = timed_op(workload, state, i, meter)
        return untraced, traced

    pairs = loop(seconds, pair)
    problems = [f"op {u.index}: {p}" for u, t in pairs for p in check_trace(t, u)]
    ops = [t for p in pairs for t in p]
    good = [(u, t) for u, t in pairs if u.result is not None and t.result is not None]
    per_op = [layer_metrics(t, u) for u, t in good]
    metrics = ({k: statistics.median_low(m[k] for m in per_op) for k in per_op[0]}
               if per_op else {})
    metrics["path_steps"] = median(u.result.path_steps for u, _ in good) if good else 0
    metrics["path_steps_per_s"] = path_steps_per_s([u for u, _ in good])
    metrics["fail_frac"] = sum(t.failed for t in ops) / len(ops)
    per_op_shares = [layer_shares(t) for _, t in good]
    shares = {k: median(s.get(k, 0.0) for s in per_op_shares)
              for k in (per_op_shares[0] if good else ())}
    return {"ops": ops, "metrics": metrics, "readable": {}, "shares": shares,
            "problems": problems}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "irregmc" / "__init__.py").is_file():
        print(f"error: the irregmc sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    workdir = OUT / "work" / args.workload
    run = (traced_run if args.trace else plain_run)(workload, args.seed, args.seconds,
                                                    workdir)
    metrics = run["metrics"]
    if set(metrics) != set(declared):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(declared)}", file=sys.stderr)
        return 3
    ops = run["ops"]
    failed = sum(t.failed for t in ops)
    digest = ops[0].result.digest if ops[0].result is not None else None

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "src_lines": src_lines(), "digest_op0": digest,
        "metrics": metrics, "readable": run["readable"],
        "shares": run.get("shares"), "trace_problems": run["problems"],
        "setup_samples_s": run.get("setup_samples_s"),
        "ops": [{"index": t.index, "wall_s": t.wall_s, "cpu_s": t.cpu_s, "slowness": t.slowness,
                 "path_steps": t.result.path_steps if t.result else None,
                 "digest": t.result.digest if t.result else None,
                 "failures": t.result.failures if t.result else ["exception"],
                 "error": t.error}
                for t in ops],
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    units = dict(declared, path_steps="count", path_steps_per_s="1/s", fail_frac="ratio",
                 **{f"raw {k}": "s" for k in ("wall_s", "cpu_s", "setup_s")})
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{failed} failed; digest of operation 0: {digest}")
    for name, value in {**metrics, **run["readable"]}.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    for layer, share in (run.get("shares") or {}).items():
        print(f"  share of traced wall: {layer:12s} {100 * share:6.1f} %")
    for problem in run["problems"]:
        print(f"  trace check failed: {problem}")
    print(f"  results: {results_path.relative_to(ROOT)} (src/ has {results['src_lines']} lines)")
    print(json.dumps({
        "correct": failed == 0 and not run["problems"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
