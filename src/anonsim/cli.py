"""Command-line front end.

Subcommands:

* ``run``              execute one scenario, write trace + check report
* ``campaign``         sweep a scenario over a seed range and aggregate verdicts
* ``explore``          enumerate every schedule of a scenario, up to a state budget
* ``check``            re-run the checkers on a saved trace
* ``validate-history`` run a detector validator on a history file

Exit codes: 0 all checks pass, 1 property failure, 2 usage or config error
(a closed standard output included), 3 internal error.  Every failure line
printed by any command carries the scenario path, the seed, and (for
explore) the schedule, so it can be reproduced with a single command.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import verify
from .detectors import DetectorSpec
from .model import history_from_json, pattern_from_json
from .simulator import (
    POLICIES,
    SCHEMA,
    ScenarioConfig,
    ScenarioError,
    Trace,
    explore,
    int_field,
    run,
    run_schedule,
)
from .verify import ALGORITHMS, algorithm_info  # ALGORITHMS: re-exported table

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

CAMPAIGN_CHUNK = 16  # seeds per task handed to a campaign worker


class UsageError(Exception):
    pass


def normalize_scenario(scenario: ScenarioConfig) -> ScenarioConfig:
    """Cross-check the scenario against the algorithm registry."""
    info = algorithm_info(scenario.algorithm)
    if scenario.oracle_kind not in info.oracle_kinds:
        raise ScenarioError(
            f"algorithm {info.name!r} runs on oracle kinds {list(info.oracle_kinds)}, "
            f"not {scenario.oracle_kind!r}"
        )
    if info.consensus and len(scenario.inputs) != scenario.cfg.n:
        raise ScenarioError(f"algorithm {info.name!r} needs one binary input per process")
    if info.majority and scenario.cfg.n <= 2 * scenario.cfg.f:
        raise ScenarioError(f"algorithm {info.name!r} needs n > 2f")
    return replace(scenario, identified=info.identified)


def _read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} file: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{what} file is not valid JSON: {exc}")


def _write(files: dict[Path, str], directory: Path | None = None) -> None:
    """Write each file's text, after making `directory` if one is given; an
    output that cannot be written is a usage error."""
    try:
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")


def load_scenario(path: str | Path) -> ScenarioConfig:
    """A scenario file, parsed and validated, not yet normalized."""
    return ScenarioConfig.from_dict(_read_json(path, "scenario"))


def run_and_check(scenario: ScenarioConfig) -> tuple[Trace, list[verify.CheckReport], bool]:
    """One seeded run plus every checker that applies to its algorithm, and
    whether every check passed."""
    trace = run(scenario, algorithm_info(scenario.algorithm).factory)
    reports = verify.check_trace(trace)
    return trace, reports, _reports_ok(reports)


def _reports_ok(reports: list[verify.CheckReport]) -> bool:
    return not any(r.failed for r in reports)


def _print_reports(reports: list[verify.CheckReport], reproduce: str | None = None) -> int:
    for r in reports:
        print(f"{r.prop}: {r.verdict}" + (f" ({r.detail})" if r.detail else ""))
        if r.failed and reproduce:
            print(f"  reproduce: {reproduce}")
    return EXIT_OK if _reports_ok(reports) else EXIT_PROPERTY


def _campaign_worker(scenario: ScenarioConfig, seed: int) -> dict:
    """One seed of a campaign over `scenario`, which is normalized."""
    _, reports, ok = run_and_check(scenario.reseeded(seed))
    return {"seed": seed, "reports": [r.to_dict() for r in reports], "ok": ok}


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.reseeded(args.seed)
    if args.horizon is not None:
        scenario = replace(scenario, horizon=args.horizon)
    if args.policy is not None:
        scenario = replace(scenario, policy=args.policy)
    scenario = normalize_scenario(scenario)
    trace, reports, ok = run_and_check(scenario)

    out = Path(args.out)
    stem = f"{scenario.algorithm}-seed{scenario.seed}"
    trace_path = out / f"{stem}.trace.jsonl"
    report_path = out / f"{stem}.report.json"
    report_doc = {
        "scenario": scenario.to_dict(),
        "truncated": trace.truncated,
        "reports": [r.to_dict() for r in reports],
        "ok": ok,
    }
    report = json.dumps(report_doc, indent=2, sort_keys=True) + "\n"
    _write({trace_path: trace.to_jsonl(), report_path: report}, out)

    command = ["anonsim", "run", args.scenario, "--seed", str(scenario.seed)]
    if args.horizon is not None:
        command += ["--horizon", str(args.horizon)]
    if args.policy is not None:
        command += ["--policy", args.policy]
    code = _print_reports(reports, shlex.join(command))
    print(f"trace: {trace_path}")
    print(f"report: {report_path}")
    return code


def cmd_campaign(args: argparse.Namespace) -> int:
    doc = _read_json(args.campaign, "campaign")
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ScenarioError("campaign file needs a JSON object with a 'scenario' template")
    if int_field(doc, "schema", SCHEMA) != SCHEMA:
        raise ScenarioError(f"unsupported campaign schema {doc['schema']!r}")
    scenario = normalize_scenario(ScenarioConfig.from_dict(doc["scenario"]))
    jobs = args.jobs if args.jobs is not None else int_field(doc, "jobs", 1)
    if jobs < 1:
        raise ScenarioError(f"jobs must be at least 1, not {jobs}")
    mode = doc.get("mode", "sweep")
    if mode != "sweep":
        raise ScenarioError(f"unknown campaign mode {mode!r}")
    spec = doc.get("seeds", {})
    if isinstance(spec, dict):
        start, count = int_field(spec, "start", 0), int_field(spec, "count", 0)
        try:
            seeds = list(range(start, start + count))
        except (MemoryError, OverflowError):
            raise ScenarioError(f"campaign seed count {count} is too large to list") from None
    else:
        seeds = spec
    if not isinstance(seeds, list) or any(type(s) is not int for s in seeds):
        raise ScenarioError("campaign seeds must be a list of integers or a {start, count} object")
    if not seeds:
        raise ScenarioError("campaign seed range is empty")

    # a pool forks all its workers at the first submit, so start no more than
    # there are chunks to hand out
    workers = min(jobs, (len(seeds) + CAMPAIGN_CHUNK - 1) // CAMPAIGN_CHUNK)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(_campaign_worker, scenario), seeds, chunksize=CAMPAIGN_CHUNK))
    else:
        results = [_campaign_worker(scenario, seed) for seed in seeds]

    counts: Counter = Counter()
    failures = []
    successes = 0
    for res in results:
        for r in res["reports"]:
            counts[(r["property"], r["verdict"])] += 1
            if r["verdict"] == verify.FAIL:
                failures.append((res["seed"], r))
        successes += res["ok"]

    print(f"campaign: {scenario.algorithm}, {len(seeds)} seeds")
    for (prop, verdict), c in sorted(counts.items()):
        print(f"  {prop:<20} {verdict:<9} {c}")
    for seed, r in failures:
        print(f"FAIL seed={seed} {r['property']}: {r['detail']}")
        print(f"  reproduce: anonsim run <scenario.json> --seed {seed}")
    bound = algorithm_info(scenario.algorithm).success_bound
    if bound is not None:
        rate = successes / len(seeds)
        print(f"success-rate: {successes}/{len(seeds)} = {rate:.4f} (bound {bound}: {'PASS' if rate >= bound else 'FAIL'})")
        # the bound allows some failing seeds; it alone decides the verdict
        if rate >= bound:
            failures = []
        else:
            failures.append((None, {"property": "success-rate", "detail": f"{rate:.4f} < {bound}"}))

    if args.out:
        out_doc = {
            "scenario": scenario.to_dict(),
            "seeds": seeds,
            "counts": {f"{p}/{v}": c for (p, v), c in sorted(counts.items())},
            "failures": [{"seed": s, **r} for s, r in failures],
        }
        _write({Path(args.out): json.dumps(out_doc, indent=2, sort_keys=True) + "\n"})
    return EXIT_OK if not failures else EXIT_PROPERTY


def _default_rounds(scenario: ScenarioConfig) -> int | None:
    info = algorithm_info(scenario.algorithm)
    if info.consensus or scenario.rounds is not None:
        return scenario.rounds
    return scenario.cfg.f + 5


def explore_crash_limit(scenario: ScenarioConfig) -> int | None:
    """Latest round a crash may strike during exploration (see
    `verify.AlgorithmInfo.crash_margin`)."""
    margin = algorithm_info(scenario.algorithm).crash_margin
    if scenario.rounds is None or margin is None:
        return None
    return max(scenario.rounds - margin(scenario.cfg.f), 0)


def peak_rss_mb() -> float:
    """The high-water mark of this process's resident set, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)  # bytes on macOS, KiB elsewhere


def cmd_explore(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.reseeded(args.seed)
    scenario = normalize_scenario(scenario)
    info = algorithm_info(scenario.algorithm)
    scenario = replace(scenario, rounds=_default_rounds(scenario))
    monitor = verify.monitor_for(
        scenario.algorithm, scenario.cfg.n, scenario.cfg.f, scenario.inputs
    )
    kwargs = {} if args.max_states is None else {"max_states": args.max_states}
    start = time.perf_counter()
    result = explore(
        scenario,
        info.factory,
        monitor=monitor,
        crash_round_limit=explore_crash_limit(scenario),
        **kwargs,
    )
    seconds = time.perf_counter() - start
    print(f"explored states: {result.states}")
    new_per_child = (result.states - 1) / result.children if result.children else 0.0
    print(f"children: {result.children} (dedup ratio: {new_per_child:.4f} new states per child), "
          f"{result.skipped} skipped unbuilt")
    print(f"peak frontier: {result.peak_frontier}")
    print(f"depth: {result.depth}")
    print(f"local transitions: {result.computed} computed, {result.reused} reused")
    print(f"states/s: {result.states / seconds:.0f} ({seconds:.3f} s)")
    print(f"peak memory: {peak_rss_mb():.1f} MB")
    print(f"terminal states: {result.terminals}")
    print(f"distinct outcomes: {len(result.terminal_profiles)}")
    if result.partial:
        print("PARTIAL: state budget exceeded, enumeration incomplete")
    print(f"violations: {result.violation_count}")
    for v in result.violations:
        print(f"FAIL [{v.check}] {v.detail}")
        print(f"  schedule: {json.dumps([list(a) for a in v.schedule])}")
    if args.out and result.violations:
        witness = result.violations[0]
        trace = run_schedule(scenario, info.factory, witness.schedule)
        out_path = Path(args.out)
        schedule = {"scenario": scenario.to_dict(), "schedule": [list(a) for a in witness.schedule]}
        _write({
            out_path / "violation.trace.jsonl": trace.to_jsonl(),
            out_path / "violation.schedule.json": json.dumps(schedule, indent=2, sort_keys=True) + "\n",
        }, out_path)
        print(f"witness written to {out_path}/violation.*")
    return EXIT_OK if result.ok else EXIT_PROPERTY


def cmd_check(args: argparse.Namespace) -> int:
    try:
        text = Path(args.trace).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read trace file: {exc}")
    trace = Trace.from_jsonl(text)
    if normalize_scenario(trace.scenario) != trace.scenario:
        raise ScenarioError("the trace's scenario differs from what run would record for it")
    # a run applies each scheduled crash at its step, unless it ended first
    last = max((ev["step"] for ev in trace.events), default=-1)
    crashes = sorted((ev["proc"], ev["step"]) for ev in trace.events if ev["ev"] == "crash")
    if crashes != [(p, s) for p, s in sorted(trace.scenario.pattern.crash_steps) if s <= last]:
        raise ScenarioError("the trace's crash events differ from its scenario's crash map")
    return _print_reports(verify.check_trace(trace))


def cmd_validate_history(args: argparse.Namespace) -> int:
    try:
        history = history_from_json(Path(args.history).read_text())
        _, pattern = pattern_from_json(Path(args.pattern).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read input file: {exc}")
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ScenarioError(f"malformed input: {exc}")
    kind = args.kind or history.kind
    try:
        spec = DetectorSpec(kind, history.n)
        ok = spec.validates(history, pattern)
    except ValueError as exc:
        raise ScenarioError(str(exc))
    print(f"history kind={kind}: {'valid' if ok else 'INVALID'}")
    if ok and args.anonymity:
        report = verify.check_permutation_closure(spec, pattern, history)
        print(f"permutation-closure: {report.verdict}" + (f" ({report.detail})" if report.detail else ""))
        if report.failed:
            print(f"  violating relabelling: {report.witness}")
            return EXIT_PROPERTY
    return EXIT_OK if ok else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anonsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--policy", choices=POLICIES)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_camp = sub.add_parser("campaign", help="seed sweep with aggregated verdicts")
    p_camp.add_argument("campaign")
    p_camp.add_argument("--jobs", type=int)
    p_camp.add_argument("--out")
    p_camp.set_defaults(fn=cmd_campaign)

    p_exp = sub.add_parser("explore", help="enumerate all schedules, up to --max-states states")
    p_exp.add_argument("scenario")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--max-states", type=int, dest="max_states")
    p_exp.add_argument("--out")
    p_exp.set_defaults(fn=cmd_explore)

    p_check = sub.add_parser("check", help="re-run checkers on a saved trace")
    p_check.add_argument("trace")
    p_check.set_defaults(fn=cmd_check)

    p_val = sub.add_parser("validate-history", help="validate a detector history file")
    p_val.add_argument("--history", required=True)
    p_val.add_argument("--pattern", required=True)
    p_val.add_argument("--kind")
    p_val.add_argument("--anonymity", action="store_true")
    p_val.set_defaults(fn=cmd_validate_history)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`anonsim explore ... | head`); send what
        # is still buffered to devnull, or the interpreter's flush at exit
        # raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
