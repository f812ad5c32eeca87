"""Digests that pin sampled oracle tables, seeded trace bytes and explore
results.

The oracle sampler's draw order is part of the replay contract: a change
that reorders, adds or drops a single RNG call changes these digests.  So is
explore's search order: a change to state identity must keep the states,
terminals, terminal profiles, violations and witness schedules of every
small job.  The module needs no pytest, so every supported interpreter can
check the pins:

    PYTHONPATH=src python tests/pins.py
"""

from __future__ import annotations

import hashlib
import sys

from helpers import campaign_scenario, factory_of, scenario, selftrust_scenario

from anonsim import DetectorSpec, FailurePattern, OracleProfile, explore, run, sample_history
from anonsim.cli import ALGORITHMS, explore_crash_limit
from anonsim.detectors import ALL_KINDS, BEHAVIORS
from anonsim.model import history_to_json
from anonsim.mutants import MUTANTS
from anonsim.verify import monitor_for

GRID_SHA256 = "95de135c7bc70f97a29f85f2715a70c6df564a49270d645fa2baf3ef47ee40eb"
GRID_TABLES = 2376
TRACE_SHA256 = "340efff0f48edc3052ce931986d10199041c53aeb41bf0f68b661f4c9993cb39"
TRACE_ALGORITHMS = ("floodmax", "lockmin", "leadervote", "random-selftrust")
TRACE_SEEDS = range(20)
POLICY_TRACE_SHA256 = "fba391a97fa355df5bd1341f4e81cdcd92daecf55345bc6e9283add832a72ce8"
POLICY_TRACE_POLICIES = ("fifo", "crash-adjacent")
POLICY_TRACE_SEEDS = range(5)
EXPLORE_SHA256 = "8ceb20781f908fc8f9607823798a20aa914c77139fa0dce0c3d8204c98e90e5e"
EXPLORE_JOBS = 23
# each explore job's (states, terminals, violation_count), so that a moved
# EXPLORE_SHA256 comes with the names of the jobs whose counts moved
EXPLORE_COUNTS = {
    "floodmax n=2 f=1": (92, 25, 0),
    "floodmax n=3 f=0": (157, 1, 0),
    "lockmin n=2 f=0": (68, 3, 0),
    "lockmin n=3 f=0": (1358, 16, 0),
    "leadervote n=2 f=0": (47, 9, 0),
    "leadervote n=3 f=0": (1407, 253, 0),
    "eventual-suspector n=2 f=1": (152, 29, 0),
    "eventual-suspector n=3 f=0": (1082, 1, 0),
    "stable-suspector n=2 f=1": (106, 19, 0),
    "stable-suspector n=3 f=0": (1530, 1, 0),
    "random-selftrust n=2 f=1": (152, 29, 0),
    "random-selftrust n=3 f=0": (1082, 1, 0),
    "flood-min n=2 f=1": (92, 25, 0),
    "flood-min n=3 f=0": (157, 1, 0),
    "eager-lock n=2 f=0": (44, 3, 0),
    "eager-lock n=3 f=0": (872, 16, 0),
    "lonely-lock n=2 f=0": (51, 4, 17),
    "any-report n=2 f=0": (47, 9, 0),
    "any-report n=3 f=0": (1407, 253, 0),
    "free-running n=2 f=1": (7, 2, 4),
    "free-running n=3 f=0": (4, 0, 3),
    "hasty-suspector n=2 f=1": (106, 19, 0),
    "hasty-suspector n=3 f=0": (1530, 1, 0),
}


def grid_tables():
    """Every kind and behaviour at n in {2, 3, 5}, over four crash patterns,
    three convergence steps and seeds 0-3, all at horizon 24."""
    for kind in ALL_KINDS:
        for behavior in BEHAVIORS:
            for n in (2, 3, 5):
                patterns = [{}, {1: 0}, {n: 7}] + ([{1: 3, 2: 12}] if n >= 3 else [])
                for crashes in patterns:
                    pattern = FailurePattern.of(n, crashes)
                    for convergence in (0, 9, 20):
                        profile = OracleProfile(behavior, convergence)
                        for seed in range(4):
                            yield sample_history(DetectorSpec(kind, n), pattern, profile, seed, 24)


def grid_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for history in grid_tables():
        digest.update((history_to_json(history) + "\n").encode())
        count += 1
    return count, digest.hexdigest()


def trace_digest() -> str:
    """The criterion-2 campaigns and the criterion-6 construction, seeds 0-19."""
    digest = hashlib.sha256()
    for algorithm in TRACE_ALGORITHMS:
        for seed in TRACE_SEEDS:
            if algorithm == "random-selftrust":
                sc = selftrust_scenario(seed)
            else:
                sc = campaign_scenario(algorithm, seed)
            digest.update(run(sc, factory_of(algorithm)).to_jsonl().encode())
    return digest.hexdigest()


def policy_trace_digest() -> str:
    """Every algorithm at n=3 f=1 with process 2 crashing at step 7, under
    the fifo and crash-adjacent policies, seeds 0-4."""
    digest = hashlib.sha256()
    for algorithm, info in ALGORITHMS.items():
        for policy in POLICY_TRACE_POLICIES:
            for seed in POLICY_TRACE_SEEDS:
                sc = scenario(algorithm, 3, 1, crashes={2: 7}, behavior="adversarial", convergence=30,
                              horizon=400, policy=policy, seed=seed,
                              **({"inputs": (0, 1, 1)} if info.consensus else {"rounds": 8}))
                digest.update(run(sc, info.factory).to_jsonl().encode())
    return digest.hexdigest()


def explore_jobs():
    """(job, algorithm, factory, scenario): every algorithm with a monitor
    and every mutant, at n=2 and at n=3 without crashes, with the crash
    round limit `anonsim explore` uses; `job` names the algorithm or mutant,
    n and f.  lonely-lock at n=3 is left out: its 22,058 states take
    seconds."""
    explorable = [(name, name, info.factory) for name, info in ALGORITHMS.items() if info.monitor]
    explorable += [(name, algorithm, factory) for name, (algorithm, _, factory) in MUTANTS.items()]
    for name, algorithm, factory in explorable:
        info = ALGORITHMS[algorithm]
        for n, f in ((2, 0 if info.majority else 1), (3, 0)):
            if (name, n) == ("lonely-lock", 3):
                continue
            inputs = (0, 1, 1)[:n] if info.consensus else None
            rounds = None if info.consensus else f + 3
            sc = scenario(algorithm, n, f, inputs=inputs, rounds=rounds)
            yield f"{name} n={n} f={f}", algorithm, factory, sc


def explore_digest() -> tuple[int, str, dict[str, tuple[int, int, int]]]:
    """The job count, the digest of every job's results, and each job's
    (states, terminals, violation_count)."""
    digest = hashlib.sha256()
    counts = {}
    for job, algorithm, factory, sc in explore_jobs():
        cfg = sc.cfg
        res = explore(sc, factory, monitor=monitor_for(algorithm, cfg.n, cfg.f, sc.inputs),
                      crash_round_limit=explore_crash_limit(sc))
        profiles = sorted(res.terminal_profiles.items(), key=repr)
        witnesses = [(v.check, v.detail, v.schedule) for v in res.violations]
        digest.update(repr((res.states, res.terminals, profiles, res.violation_count, witnesses)).encode())
        counts[job] = (res.states, res.terminals, res.violation_count)
    return len(counts), digest.hexdigest(), counts


if __name__ == "__main__":
    count, grid = grid_digest()
    trace = trace_digest()
    policy_trace = policy_trace_digest()
    jobs, explored, counts = explore_digest()
    ok = (count, grid, trace, policy_trace, jobs, explored, counts) == (
        GRID_TABLES, GRID_SHA256, TRACE_SHA256, POLICY_TRACE_SHA256, EXPLORE_JOBS, EXPLORE_SHA256, EXPLORE_COUNTS
    )
    print(f"python {sys.version.split()[0]}: grid {count} tables {grid}, traces {trace}, "
          f"policy traces {policy_trace}, explore {jobs} jobs {explored}: {'match' if ok else 'MISMATCH'}")
    for job in sorted(counts.keys() | EXPLORE_COUNTS.keys()):
        if counts.get(job) != EXPLORE_COUNTS.get(job):
            print(f"explore job {job} moved: (states, terminals, violations) pinned "
                  f"{EXPLORE_COUNTS.get(job)}, now {counts.get(job)}")
    sys.exit(0 if ok else 1)
