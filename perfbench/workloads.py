"""The benchmark's workloads: seeded campaigns and exhaustive explore jobs.

A workload has a fixed list of short `timed` operations, each a callable
returning an `Outcome`, and an optional list of `full` operations.  Every
operation is a pure function of (workload, seed, index), so repeated passes,
and a traced and an untraced pass, do the same work.  Every loop is closed:
the next operation starts when the previous one ends.  `verdict_ops`
consecutive timed operations make one verdict.

Timed operations last milliseconds because only short operations can be
timed steadily on a shared host: each is scaled by a reference kernel run
right before it (see run.py).  An explore job of the sizes below runs for
seconds through bursts of contention from other tenants, and its wall time
moved by up to 20% between runs; so those jobs are `full` operations, run
once per run untimed for their correctness gate, their fingerprints and the
peak memory, and they are what `--trace 1` traces.  The timed jobs are the
same algorithms at n=2 or without crashes.

* campaign-mix -- one operation is `cli.run_and_check(scenario)` followed by
  `Trace.to_jsonl()`, which is `anonsim run` minus the file write.  The three
  acceptance-criterion-2 scenarios take turns seed by seed (a verdict is one
  seed of all three), and the workload seed offsets the seed range.  The
  horizon lies far beyond the decision step (about 206 steps for lockmin),
  so eager oracle tables dominate: `sample_history` draws every cell while
  runs read a few percent of them.  It exercises detectors, model, the
  scheduler loop, the consensus automata, the checkers and serialization,
  and never touches `explore`.
* explore-consensus -- exhaustive `explore` with `verify.monitor_for` of
  anonymous lockmin and floodmax on a count oracle; the full jobs are two
  criterion-1 instances.  No sampler and no serialization, so state keying,
  cloning and guard probes dominate, and about 3 children are built per
  distinct state.  These are the states symmetry reduction would merge.
* explore-suspector -- exhaustive `explore` of stable-suspector on
  crash-count, the crash round limit taken from `cli.explore_crash_limit`;
  the full job is n=3 f=1 with 5 rounds (criterion 4's 6 rounds takes over
  40 s).  Identified (senders are part of the key), deep round-tagged
  inboxes, `SuspectorMonitor` hooks on rounds and outputs, and the largest
  visited set; symmetry reduction does not apply.  So a gain for anonymous
  states that costs identified ones, or speed bought with memory, shows here.

The explore workloads ignore the seed: these automata draw no randomness.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any

CAMPAIGN_OPS = 1200  # a p99 with 12 samples beyond it
FINGERPRINT_OPS = 60  # trace bytes of the first 60 operations form the trace fingerprint
SEED_STRIDE = 100_000  # scenario seeds of workload seed s start at s * SEED_STRIDE

_CAMPAIGN = (
    {
        "algorithm": "floodmax", "n": 4, "f": 3, "inputs": [0, 1, 1, 0],
        "crash": {"2": 25, "4": 60},
        "oracle": {"kind": "crash-count", "behavior": "adversarial", "convergence": 100},
        "horizon": 1200,
    },
    {
        "algorithm": "lockmin", "n": 5, "f": 2, "inputs": [0, 1, 0, 1, 1],
        "crash": {"2": 30, "4": 80},
        "oracle": {"kind": "eventual-crash-count", "behavior": "adversarial", "convergence": 150},
        "horizon": 1500,
    },
    {
        "algorithm": "leadervote", "n": 5, "f": 2, "inputs": [0, 1, 0, 1, 1],
        "crash": {"3": 40, "5": 90},
        "oracle": {"kind": "self-trust", "behavior": "adversarial", "convergence": 150},
        "horizon": 1500,
    },
)


@dataclass(frozen=True)
class Job:
    """One exhaustive exploration with the counts recorded at baseline."""

    name: str
    doc: dict
    states: int
    terminals: int


_CONSENSUS_JOBS = (
    Job("lockmin-n3-f1-011",
        {"algorithm": "lockmin", "n": 3, "f": 1, "inputs": [0, 1, 1],
         "oracle": {"kind": "eventual-crash-count"}},
        states=36_536, terminals=707),
    Job("floodmax-n3-f2-001",
        {"algorithm": "floodmax", "n": 3, "f": 2, "inputs": [0, 0, 1],
         "oracle": {"kind": "crash-count"}},
        states=22_594, terminals=2_330),
)
_SUSPECTOR_JOBS = (
    Job("stable-suspector-n3-f1-r5",
        {"algorithm": "stable-suspector", "n": 3, "f": 1, "rounds": 5,
         "oracle": {"kind": "crash-count"}},
        states=110_449, terminals=289),
)

def _small(algorithm: str, n: int, f: int, states: int, terminals: int, inputs=(), rounds=None) -> Job:
    kind = "eventual-crash-count" if algorithm == "lockmin" else "crash-count"
    doc = {"algorithm": algorithm, "n": n, "f": f, "inputs": list(inputs), "oracle": {"kind": kind}}
    if rounds is not None:
        doc["rounds"] = rounds
    tag = "".join(map(str, inputs)) or f"r{rounds}"
    return Job(f"{algorithm}-n{n}-f{f}-{tag}", doc, states, terminals)


# The timed jobs, 3-30 ms each; also the set-up warm-up.
SMALL_JOBS = {
    "explore-consensus": (
        _small("floodmax", 2, 1, 88, 21, inputs=(0, 0)),
        _small("floodmax", 2, 1, 92, 25, inputs=(0, 1)),
        _small("lockmin", 2, 0, 44, 3, inputs=(0, 0)),
        _small("lockmin", 2, 0, 68, 3, inputs=(0, 1)),
        _small("floodmax", 3, 0, 157, 1, inputs=(0, 0, 1)),
        _small("floodmax", 3, 0, 157, 1, inputs=(0, 1, 1)),
    ),
    "explore-suspector": tuple(
        _small("stable-suspector", 2, 1, 106 + 50 * k, 19 + 14 * k, rounds=4 + k) for k in range(5)
    ),
}


@dataclass
class Outcome:
    """What one operation did: its timed seconds and its correctness gate."""

    seconds: float
    explore_seconds: float = 0.0
    failed: int = 0
    fingerprints: dict[str, str] = field(default_factory=dict)
    text: str = ""  # campaign trace bytes, for the trace fingerprint


def _digest(data: str) -> str:
    return "sha256:" + hashlib.sha256(data.encode()).hexdigest()


class CampaignMix:
    name = "campaign-mix"

    def __init__(self, api: Any, seed: int):
        self.api = api
        self.base = seed * SEED_STRIDE
        self.templates = [
            api.cli.normalize_scenario(
                api.simulator.ScenarioConfig.from_dict({"schema": 1, "policy": "random", **doc})
            )
            for doc in _CAMPAIGN
        ]
        self.verdict_ops = len(self.templates)
        self.timed = [partial(self.op, i) for i in range(CAMPAIGN_OPS)]
        self.full: list = []

    def scenario(self, i: int) -> Any:
        return self.templates[i % len(self.templates)].reseeded(self.base + i // len(self.templates))

    def warm_up(self) -> None:
        for i in range(len(self.templates)):
            self.op(i)

    def op(self, i: int) -> Outcome:
        scenario = self.scenario(i)
        cli, clock = self.api.cli, time.perf_counter
        start = clock()
        trace, reports, _ = cli.run_and_check(scenario)
        text = trace.to_jsonl()
        seconds = clock() - start
        bad = trace.truncated or any(r.failed for r in reports)
        return Outcome(seconds, failed=int(bad), text=text if i < FINGERPRINT_OPS else "")


class Explore:
    """Each operation explores one job and gates it on its recorded counts."""

    def __init__(self, api: Any, name: str, full: tuple[Job, ...], timed: tuple[Job, ...]):
        self.api = api
        self.name = name
        self.timed = [partial(self._explore, job, self._scenario(job)) for job in timed]
        self.full = [partial(self._explore, job, self._scenario(job)) for job in full]
        self.verdict_ops = len(timed)

    def _scenario(self, job: Job) -> Any:
        api = self.api
        return api.cli.normalize_scenario(api.simulator.ScenarioConfig.from_dict({"schema": 1, **job.doc}))

    def warm_up(self) -> None:
        for op in self.timed:
            op()

    def _explore(self, job: Job, scenario: Any) -> Outcome:
        api = self.api
        info = api.cli.algorithm_info(scenario.algorithm)
        monitor = api.verify.monitor_for(scenario.algorithm, scenario.cfg.n, scenario.cfg.f, scenario.inputs)
        limit = api.cli.explore_crash_limit(scenario)
        start = time.perf_counter()
        result = api.simulator.explore(scenario, info.factory, monitor=monitor, crash_round_limit=limit)
        seconds = time.perf_counter() - start
        return Outcome(
            seconds,
            explore_seconds=seconds,
            failed=int(not accepts(job, result)),
            fingerprints={job.name: explore_fingerprint(result)},
        )


def accepts(job: Job, result: Any) -> bool:
    """The correctness gate of one explore job."""
    return (
        not result.partial
        and result.violation_count == 0
        and result.states == job.states
        and result.terminals == job.terminals
    )


def explore_fingerprint(result: Any) -> str:
    profiles = sorted(result.terminal_profiles.items(), key=repr)
    return f"states={result.states} terminals={result.terminals} " + _digest(
        repr((result.states, result.terminals, profiles))
    )


def make(name: str, api: Any, seed: int) -> Any:
    if name == CampaignMix.name:
        return CampaignMix(api, seed)
    if name == "explore-consensus":
        return Explore(api, name, _CONSENSUS_JOBS, SMALL_JOBS[name])
    if name == "explore-suspector":
        return Explore(api, name, _SUSPECTOR_JOBS, SMALL_JOBS[name])
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")


NAMES = ("campaign-mix", "explore-consensus", "explore-suspector")
