"""anonsim's benchmark: seeded campaigns and exhaustive explore, end to end
and layer by layer.

    python3 perfbench/run.py --workload campaign-mix --seed 0 --seconds 25 --trace 0

It benchmarks the sources in `src/` beside this directory.  One process runs
one workload, one operation at a time, with no pool and no threads.  Every
operation passes a correctness gate (see `workloads.py`).  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it print each metric by name with
its unit, fail_frac (failed / attempted operations) and the fingerprints.

--trace 0 first runs the workload's full-size operations once, untimed (the
explore workloads' criterion-sized jobs: gate, fingerprints, peak memory),
then repeats passes over its timed operations until --seconds have passed
(at least MIN_PASSES passes), and takes each operation's median over them.
On a shared host other tenants slow every instruction, in bursts and for
minutes at a time: a fixed 10 ms kernel's 2-second median moved between
6.1 and 10.3 ms on a 2-vCPU VM, and a 5-second explore job's wall time by
20% between runs.  So every timed operation, and every set-up, runs right
after a fixed 1 ms reference kernel and is scaled to reference speed: time
x REFERENCE_S / kernel time.  Over five 30-second campaign runs that cut the
quartile spread of the median operation from 0.19 to 0.017.  An adjacent
kernel only speaks for an operation of milliseconds, which is why the timed
explore jobs are small (`workloads.py`).

  setup_s      median over SETUP_REPEATS set-ups: fresh import of the
               package, scenario construction, warm-up on toy instances
  runs_per_s   timed operations per second
  run_ms_p50   median time of one timed operation
  run_ms_p99   99th percentile by nearest rank, with the samples beyond it
  verdict_s    median time of one verdict: the three scenarios at one seed
               (campaign-mix), the whole timed job set (explore-*)
  peak_rss_mb  peak resident set of this process, which ran one workload

--trace 1 wraps anonsim's layer boundaries at run time (`tracer.py`), runs
one pass over the full-size operations (the timed ones on campaign-mix)
traced and then the same pass untraced, and reports each layer's self time
and counts plus the tracing overhead.  The spans and per-layer totals are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 7
MIN_PASSES = 3  # a median of two passes is their mean, and keeps a one-off stall
REFERENCE_S = 0.001  # scaled times are seconds at the speed where the kernel takes 1 ms
MODULES = ("cli", "consensus", "detectors", "model", "simulator", "transforms", "verify")


class SetupError(Exception):
    pass


def import_anonsim() -> SimpleNamespace:
    """A fresh import of the package under ROOT/src, never an installed one."""
    src = ROOT / "src"
    if not (src / "anonsim" / "__init__.py").is_file():
        raise SetupError(f"no anonsim sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "anonsim" or m.startswith("anonsim.")]:
        del sys.modules[name]
    package = importlib.import_module("anonsim")
    if Path(package.__file__).resolve().parent != (src / "anonsim").resolve():
        raise SetupError(f"imported anonsim from {package.__file__}, not from {src}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"anonsim.{m}") for m in MODULES}
    )


def reference_seconds() -> float:
    """Time of a fixed interpreter-bound kernel, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i, i % 7)] = str(i)
        sum(len(v) for v in table.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def set_up(name: str, seed: int) -> tuple[float, SimpleNamespace, Any]:
    """Set up SETUP_REPEATS times; the median scaled time and the last set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_S / reference_seconds()
        start = time.perf_counter()
        api = import_anonsim()
        workload = workloads.make(name, api, seed)
        workload.warm_up()
        times.append((time.perf_counter() - start) * scale)
    return statistics.median(times), api, workload


@dataclass
class Pass:
    """One pass over a list of operations."""

    durations: list[float] = field(default_factory=list)  # scaled, when the pass is
    raw: list[float] = field(default_factory=list)
    wall: float = 0.0
    explore_s: float = 0.0
    failed: int = 0
    fingerprints: dict[str, str] = field(default_factory=dict)


def run_pass(ops: list[Callable[[], Any]], scaled: bool = False) -> Pass:
    result = Pass()
    trace_bytes = None
    start = time.perf_counter()
    for op in ops:
        scale = REFERENCE_S / reference_seconds() if scaled else 1.0
        outcome = op()
        result.raw.append(outcome.seconds)
        result.durations.append(outcome.seconds * scale)
        result.explore_s += outcome.explore_seconds
        result.failed += outcome.failed
        result.fingerprints.update(outcome.fingerprints)
        if outcome.text:
            trace_bytes = trace_bytes or hashlib.sha256()
            trace_bytes.update(outcome.text.encode())
    result.wall = time.perf_counter() - start
    if trace_bytes is not None:
        result.fingerprints["trace"] = "sha256:" + trace_bytes.hexdigest()
    return result


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    idx = max(math.ceil(q * len(sorted_values)) - 1, 0)
    return sorted_values[idx], len(sorted_values) - idx - 1


def end_to_end(workload: Any, setup_s: float, passes: list[Pass]) -> dict:
    typical = [statistics.median(times) for times in zip(*(p.durations for p in passes))]
    raw = [statistics.median(times) for times in zip(*(p.raw for p in passes))]
    times = sorted(typical)
    p99, beyond = nearest_rank(times, 0.99)
    group = workload.verdict_ops
    verdicts = [sum(typical[k : k + group]) for k in range(0, len(typical) - group + 1, group)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    n, k = len(typical), len(passes)
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} scaled set-ups"),
        "runs_per_s": (n / sum(typical), "1/s", f"{n} operations, median of {k} passes, scaled"),
        "run_ms_p50": (
            statistics.median(times) * 1e3, "ms",
            f"n={n}, median of {k} passes, scaled; raw {statistics.median(raw) * 1e3:.6g} ms",
        ),
        "run_ms_p99": (p99 * 1e3, "ms", f"n={n}, {beyond} beyond, median of {k} passes, scaled"),
        "verdict_s": (statistics.median(verdicts), "s", f"n={len(verdicts)}, scaled"),
        "peak_rss_mb": (peak_kb / 1024, "MB", "this process"),
    }


def fingerprint_lines(name: str, seed: int, prints: dict[str, str]) -> list[str]:
    """Each fingerprint, compared with the one recorded at baseline."""
    path = BENCH / "baseline.json"
    recorded = json.loads(path.read_text())["fingerprints"].get(name, {}) if path.is_file() else {}
    if recorded.get("seed", seed) != seed:
        recorded = {}
    lines = []
    for key, value in prints.items():
        if key not in recorded:
            verdict = "not recorded for this seed"
        else:
            verdict = "matches baseline" if recorded[key] == value else "DIFFERS from baseline"
        lines.append(f"fingerprint {key}: {value} [{verdict}]")
    return lines


def measure(workload: Any, seconds: float) -> tuple[list[Pass], bool]:
    """The full-size pass, then timed passes until `seconds` have passed and
    there are at least MIN_PASSES.
    Also returns whether every timed pass printed the same fingerprints."""
    full = run_pass(workload.full)
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload.timed, scaled=True))
    agree = all(p.fingerprints == passes[0].fingerprints for p in passes)
    return [full, *passes], agree


def traced(workload: Any, api: SimpleNamespace, out: Path, stem: str) -> tuple[list[Pass], bool, dict, list]:
    """One traced pass, then the same pass untraced; spans and totals go to `out`.
    Also returns the layer boundaries that were not found."""
    ops = workload.full or workload.timed
    with tracing.Tracer() as tracer:
        missing = tracing.instrument(tracer, api)
        root = tracer.wrap(lambda op: op(), "bench.op", keep=True)
        on = run_pass([partial(root, op) for op in ops])
    off = run_pass(ops)
    tracer.write(out, stem)
    layers = tracing.layer_metrics(tracer, on.wall, off.wall, off.explore_s)
    return [on, off], on.fingerprints == off.fingerprints, layers, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        setup_s, api, workload = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        stem = f"{args.workload}-seed{args.seed}"
        passes, agree, metrics, missing = traced(workload, api, BENCH / "out", stem)
        notes = {key: "" for key in metrics}
        if missing:
            print("boundaries not found, their layers read 0:", ", ".join(missing))
    else:
        passes, agree = measure(workload, args.seconds)
        found = end_to_end(workload, setup_s, passes[1:])
        metrics = {key: (value, unit) for key, (value, unit, _) in found.items()}
        notes = {key: f" ({note})" for key, (_, _, note) in found.items()}

    attempted = sum(len(p.durations) for p in passes)
    failed = sum(p.failed for p in passes)
    prints = {key: value for p in reversed(passes) for key, value in p.fingerprints.items()}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {len(passes)} passes")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}{notes[key]}")
    print(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    print(*fingerprint_lines(args.workload, args.seed, prints), sep="\n")
    print(f"fingerprints of all passes {'agree' if agree else 'DISAGREE'}")
    doc = {
        "correct": failed == 0 and agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
