"""Command-line front end.

Subcommands:

* ``run``              execute one scenario, write trace + check report
* ``campaign``         sweep a scenario over a seed range and aggregate verdicts
* ``explore``          enumerate every schedule of a small scenario (n <= 3)
* ``check``            re-run the checkers on a saved trace
* ``validate-history`` run a detector validator on a history file

Exit codes: 0 all checks pass, 1 property failure, 2 usage or config error,
3 internal error.  Every failure line printed by any command carries the
scenario path, the seed, and (for explore) the schedule, so it can be
reproduced with a single command.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import verify
from .detectors import ALL_KINDS, DetectorSpec
from .model import history_from_json, pattern_from_json
from .simulator import (
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
    scenario = replace(scenario, identified=info.identified)
    scenario.validate()
    return scenario


def _read_json(path: str | Path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} file: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{what} file is not valid JSON: {exc}")


def load_scenario(path: str | Path) -> ScenarioConfig:
    doc = _read_json(path, "scenario")
    if isinstance(doc, dict) and doc.get("schema") not in (None, 1):
        raise ScenarioError(f"unsupported scenario schema {doc.get('schema')!r}")
    return normalize_scenario(ScenarioConfig.from_dict(doc))


def run_and_check(scenario: ScenarioConfig) -> tuple[Trace, list[verify.CheckReport], dict]:
    """One seeded run plus every checker that applies to its algorithm."""
    info = algorithm_info(scenario.algorithm)
    trace = run(scenario, info.factory)
    reports = verify.check_trace(trace)
    extras = {} if info.success_bound is None else {"success": _reports_ok(reports)}
    return trace, reports, extras


def _reports_ok(reports: list[verify.CheckReport]) -> bool:
    return not any(r.failed for r in reports)


def _print_reports(reports: list[verify.CheckReport], reproduce: str | None = None) -> int:
    for r in reports:
        print(f"{r.prop}: {r.verdict}" + (f" ({r.detail})" if r.detail else ""))
        if r.failed and reproduce:
            print(f"  reproduce: {reproduce}")
    return EXIT_OK if _reports_ok(reports) else EXIT_PROPERTY


def _campaign_worker(scenario_json: str, seed: int) -> dict:
    scenario = ScenarioConfig.from_dict(json.loads(scenario_json)).reseeded(seed)
    scenario = normalize_scenario(scenario)
    _, reports, extras = run_and_check(scenario)
    return {
        "seed": seed,
        "reports": [r.to_dict() for r in reports],
        "extras": extras,
    }


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.reseeded(args.seed)
    if args.horizon is not None:
        scenario = replace(scenario, horizon=args.horizon)
    if args.policy is not None:
        scenario = replace(scenario, policy=args.policy)
    scenario = normalize_scenario(scenario)
    trace, reports, extras = run_and_check(scenario)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{scenario.algorithm}-seed{scenario.seed}"
    trace_path = out / f"{stem}.trace.jsonl"
    trace_path.write_text(trace.to_jsonl())
    report_path = out / f"{stem}.report.json"
    report_doc = {
        "scenario": scenario.to_dict(),
        "truncated": trace.truncated,
        "reports": [r.to_dict() for r in reports],
        "extras": extras,
        "ok": _reports_ok(reports),
    }
    report_path.write_text(json.dumps(report_doc, indent=2, sort_keys=True) + "\n")

    code = _print_reports(reports, f"anonsim run {args.scenario} --seed {scenario.seed}")
    print(f"trace: {trace_path}")
    print(f"report: {report_path}")
    return code


def cmd_campaign(args: argparse.Namespace) -> int:
    doc = _read_json(args.campaign, "campaign")
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ScenarioError("campaign file needs a JSON object with a 'scenario' template")
    scenario = normalize_scenario(ScenarioConfig.from_dict(doc["scenario"]))
    mode = doc.get("mode", "sweep")
    if mode == "explore":
        return _explore_scenario(scenario, args.out, max_states=int_field(doc, "max_states"))
    if mode == "single":
        seeds = [scenario.seed]
    elif mode == "sweep":
        spec = doc.get("seeds", {})
        if isinstance(spec, dict):
            start = int_field(spec, "start", 0)
            seeds = list(range(start, start + int_field(spec, "count", 0)))
        else:
            seeds = spec
        if not isinstance(seeds, list) or any(type(s) is not int for s in seeds):
            raise ScenarioError("campaign seeds must be a list of integers or a {start, count} object")
        if not seeds:
            raise ScenarioError("campaign seed range is empty")
    else:
        raise ScenarioError(f"unknown campaign mode {mode!r}")

    jobs = args.jobs if args.jobs is not None else int_field(doc, "jobs", 1)
    scenario_json = json.dumps(scenario.to_dict(), sort_keys=True)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_campaign_worker, [scenario_json] * len(seeds), seeds, chunksize=16))
    else:
        results = [_campaign_worker(scenario_json, seed) for seed in seeds]

    counts: Counter = Counter()
    failures = []
    successes = 0
    for res in results:
        for r in res["reports"]:
            counts[(r["property"], r["verdict"])] += 1
            if r["verdict"] == verify.FAIL:
                failures.append((res["seed"], r))
        successes += bool(res["extras"].get("success"))

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
        Path(args.out).write_text(json.dumps(out_doc, indent=2, sort_keys=True) + "\n")
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


def _explore_scenario(scenario: ScenarioConfig, out: str | None, max_states: int | None = None) -> int:
    info = algorithm_info(scenario.algorithm)
    scenario = replace(scenario, rounds=_default_rounds(scenario))
    monitor = verify.monitor_for(
        scenario.algorithm, scenario.cfg.n, scenario.cfg.f, scenario.inputs
    )
    kwargs = {} if max_states is None else {"max_states": max_states}
    result = explore(
        scenario,
        info.factory,
        monitor=monitor,
        crash_round_limit=explore_crash_limit(scenario),
        **kwargs,
    )
    print(f"explored states: {result.states}")
    new_per_child = (result.states - 1) / result.children if result.children else 0.0
    print(f"children built: {result.children} (dedup ratio: {new_per_child:.4f} new states per child)")
    print(f"peak frontier: {result.peak_frontier}")
    print(f"terminal states: {result.terminals}")
    print(f"distinct outcomes: {len(result.terminal_profiles)}")
    if result.partial:
        print("PARTIAL: state budget exceeded, enumeration incomplete")
    print(f"violations: {result.violation_count}")
    for v in result.violations:
        print(f"FAIL [{v.check}] {v.detail}")
        print(f"  schedule: {json.dumps([list(a) for a in v.schedule])}")
    if out and result.violations:
        witness = result.violations[0]
        trace = run_schedule(scenario, info.factory, witness.schedule)
        out_path = Path(out)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "violation.trace.jsonl").write_text(trace.to_jsonl())
        (out_path / "violation.schedule.json").write_text(
            json.dumps(
                {"scenario": scenario.to_dict(), "schedule": [list(a) for a in witness.schedule]},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"witness written to {out_path}/violation.*")
    return EXIT_OK if result.ok else EXIT_PROPERTY


def cmd_explore(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.reseeded(args.seed)
    return _explore_scenario(scenario, args.out, max_states=args.max_states)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        text = Path(args.trace).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read trace file: {exc}")
    return _print_reports(verify.check_trace(Trace.from_jsonl(text)))


def cmd_validate_history(args: argparse.Namespace) -> int:
    try:
        history = history_from_json(Path(args.history).read_text())
        _, pattern = pattern_from_json(Path(args.pattern).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read input file: {exc}")
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ScenarioError(f"malformed input: {exc}")
    kind = args.kind or history.kind
    if kind not in ALL_KINDS:
        raise ScenarioError(f"unknown detector kind {kind!r}")
    spec = DetectorSpec(kind, history.n)
    try:
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
    p_run.add_argument("--policy", choices=("fifo", "random", "crash-adjacent"))
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_camp = sub.add_parser("campaign", help="seed sweep with aggregated verdicts")
    p_camp.add_argument("campaign")
    p_camp.add_argument("--jobs", type=int)
    p_camp.add_argument("--out")
    p_camp.set_defaults(fn=cmd_campaign)

    p_exp = sub.add_parser("explore", help="enumerate all schedules (n <= 3)")
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
        return args.fn(args)
    except (ScenarioError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
