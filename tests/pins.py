"""Digests that pin sampled oracle tables, validator verdicts, seeded trace
bytes and explore results.

The oracle sampler's draw order is part of the replay contract: a change
that reorders, adds or drops a single RNG call changes these digests.  So is
explore's search order: a change to state identity must keep the states,
terminals, terminal profiles, violations and witness schedules of every
small job.  A sampled table draws its random cells on first read, in that
draw order, so each grid table is first read cell by cell through `at`, in a
shuffled order, and must agree with the rows it then materializes and equal,
and hash as, the same table built from those rows.  The reports `check_trace`
gives on the pinned traces, and on the mutant traces that criterion 3's
gates catch, are pinned too: property, verdict, detail and witness.  The
module needs no pytest, so every supported interpreter can check the pins:

    PYTHONPATH=src python tests/pins.py

On a mismatch it names each explore job whose counts moved and the first
trace whose bytes moved, and says whether that trace's `to_jsonl` still
equals `json.dumps` of its lines: a run change if it does, a serializer
fault if not, and the first trace whose reports moved.  It names each (kind, n, h) whose validator counts moved, and
the first grid table whose reads disagree with its rows, too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

from helpers import campaign_scenario, factory_of, forced_id_factory, scenario, selftrust_scenario
from mutants import MUTANTS, any_report, eager_lock, even_lock, flood_min, free_running, lonely_lock

from anonsim import (
    DetectorHistory, DetectorSpec, Environment, FailurePattern, OracleProfile, SystemConfig, explore, run,
    sample_history,
)
from anonsim.cli import ALGORITHMS, explore_crash_limit
from anonsim.detectors import ALL_KINDS, BEHAVIORS, COUNT_KINDS, CRASH_COUNT, LEADER, SELF_TRUST
from anonsim.model import history_to_json
from anonsim.verify import check_trace, monitor_for

GRID_SHA256 = "95de135c7bc70f97a29f85f2715a70c6df564a49270d645fa2baf3ef47ee40eb"
GRID_TABLES = 2376
# the (n, h) sizes at which every table of every kind is validated against
# every pattern, and each (kind, n, h)'s (valid, total) verdict counts
VALIDATOR_SIZES = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0))
VALIDATOR_SHA256 = "acc40d78ddad31735e8a9c052d0410e3c5501c4447b3b9b4758686bd119ae188"
VALIDATOR_COUNTS = {
    "crash-count n=1 h=0": (1, 2),
    "crash-count n=1 h=1": (1, 4),
    "crash-count n=1 h=2": (1, 8),
    "crash-count n=2 h=0": (7, 45),
    "crash-count n=2 h=1": (43, 567),
    "crash-count n=2 h=2": (259, 6561),
    "crash-count n=3 h=0": (61, 1216),
    "eventual-crash-count n=1 h=0": (1, 2),
    "eventual-crash-count n=1 h=1": (2, 4),
    "eventual-crash-count n=1 h=2": (4, 8),
    "eventual-crash-count n=2 h=0": (13, 45),
    "eventual-crash-count n=2 h=1": (171, 567),
    "eventual-crash-count n=2 h=2": (2025, 6561),
    "eventual-crash-count n=3 h=0": (217, 1216),
    "self-trust n=1 h=0": (1, 2),
    "self-trust n=1 h=1": (2, 4),
    "self-trust n=1 h=2": (4, 8),
    "self-trust n=2 h=0": (10, 20),
    "self-trust n=2 h=1": (56, 112),
    "self-trust n=2 h=2": (288, 576),
    "self-trust n=3 h=0": (75, 152),
    "perfect n=1 h=0": (1, 2),
    "perfect n=1 h=1": (1, 4),
    "perfect n=1 h=2": (1, 8),
    "perfect n=2 h=0": (9, 80),
    "perfect n=2 h=1": (73, 1792),
    "perfect n=2 h=2": (585, 36864),
    "perfect n=3 h=0": (217, 9728),
    "eventually-perfect n=1 h=0": (1, 2),
    "eventually-perfect n=1 h=1": (2, 4),
    "eventually-perfect n=1 h=2": (4, 8),
    "eventually-perfect n=2 h=0": (17, 80),
    "eventually-perfect n=2 h=1": (400, 1792),
    "eventually-perfect n=2 h=2": (8448, 36864),
    "eventually-perfect n=3 h=0": (817, 9728),
    "leader n=1 h=0": (1, 1),
    "leader n=1 h=1": (1, 1),
    "leader n=1 h=2": (1, 1),
    "leader n=2 h=0": (10, 20),
    "leader n=2 h=1": (56, 112),
    "leader n=2 h=2": (288, 576),
    "leader n=3 h=0": (147, 513),
}
TRACE_SHA256 = "340efff0f48edc3052ce931986d10199041c53aeb41bf0f68b661f4c9993cb39"
TRACE_ALGORITHMS = ("floodmax", "lockmin", "leadervote", "random-selftrust")
TRACE_SEEDS = range(20)
POLICY_TRACE_SHA256 = "b31ac0bce43068f02d0c30e1e59eb564c20629e859942754a3271d0c99c16609"
POLICY_TRACE_POLICIES = ("fifo", "random", "crash-adjacent")
POLICY_TRACE_SEEDS = range(5)
# the first 8 hex digits of each trace's own sha256, ten traces a line in
# digest order, so that a moved TRACE_SHA256 or POLICY_TRACE_SHA256 comes
# with the first trace whose bytes moved
TRACE_PREFIXES = (
    "cd22929f27ec86a5344fe3edcb423dae7d99cc71a621e81ef47dbe26a8f0e92ec25b511116ec389d"
    "eb63f80946be0e6e4a608c8710e71e0dc69cd1b8d193c0416bc3a06788aa2f85ff97cb2bea129dd3"
    "1336600dd88849cc2f963192d911c198bbf6166f3ea4713b642c6ad2091c9dea988a279d271de452"
    "4dda8367aecef37603ea560bcb1456984b42ec9bac74e27ca98971acc5328b8593470e594703a014"
    "b0929a2598cdff8a8e1958f7442b05f1b04f2f4b9c40d2eb8c10169830c97082da465280b7da368b"
    "e8bbe2d52d9542f04b51a19a1df304900c54184f3fde717783d3b73cbe48c32f5db0ab6f2b89a142"
    "e5cd9d3f9e7eea8454c5f6eb6f507932234005b537d52b3d7a4b17223411a95bd900c91ab4782e9f"
    "6c9adbecfef6d1f29681e90e741e94539b9343e25ed03fa04bcc361462fba1043a431dac23d60e5d"
)
POLICY_TRACE_PREFIXES = (
    "20093868ea920b173f862f6c8abe2dbfed21c8cdcbdeaacc205d14d66c9114de26321883ebf44422"
    "15182cb73413db5dc75f6419fd6361ddaa0a5324338e24a3089d34987ffd1f3229dea99fe3898a55"
    "7d8977b42d7093a6a8c6dd32022c4fd791f48df407effbc9c0aace4eb1e4d463d89af0feca7cb83e"
    "73922d71f560c4ff31df6b11b1e4309b52489499188c51c5a29dcaec40433130de8b0f22d7cb0105"
    "b6fe09ffee20cd5cf927a38e0d37e334c82502bdb9025fe00f4e5e91ee7529cb3adf50a34db1a18d"
    "43f37fe0f5225a084925913e002410158d8f44d077306c027504912501bed36e5b6284abbce6ea3d"
    "3275f5140758c730700cf4427e73ee9a6a9cced49d124e9b117fd95a55a1d2f1f116a1ac7f1a7032"
    "c10002ade7e51def237e6873e81b9b47a734b10f7dede696780a410cfce01059203b2de7ceef2329"
    "8f402fcd7ad52e63e411cd79f14cee5c12b68d92ba19e1a657ee1f88410581c9bdc819ebe6d742fe"
    "c920eef709fe3f8d8f181c931cdff3027eff31396fac2b23e7eab968c51aed41b458e1b1d3778f70"
    "4778ba2fedb3330be7f7dd1d09608da6da20ea51"
)
# the digest of `check_trace`'s reports on the campaign and policy traces,
# and on the mutant traces, and each trace's own 8 hex digits as above
REPORT_SHA256 = "aea05c5c94a2a6741f3685b6f4009737a95a1400094417c5e485d220f758251c"
REPORT_PREFIXES = (
    "7dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d878"
    "7dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d878"
    "0e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad5"
    "0e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad5"
    "8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f"
    "8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f"
    "4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b"
    "4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b"
    "7dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d8787dc7d878"
    "7dc7d8787dc7d8787dc7d8787dc7d8787dc7d8780e912ad50e912ad50e912ad50e912ad50e912ad5"
    "0e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad50e912ad5"
    "8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f"
    "8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f8bd7cb2f65b7690a65b7690a65b7690a65b7690a65b7690a"
    "65b7690a65b7690a65b7690a65b7690a65b7690a65b7690a65b7690a65b7690a65b7690a65b7690a"
    "2a9a8f462a9a8f462a9a8f462a9a8f462a9a8f462a9a8f460fbaa9112a9a8f462a9a8f462a9a8f46"
    "2a9a8f462a9a8f462a9a8f462a9a8f462a9a8f463f5442fd3f5442fd3f5442fd3f5442fd3f5442fd"
    "3f5442fd3f5442fd3f5442fd3f5442fd3f5442fd3f5442fd3f5442fd3f5442fd3f5442fd3f5442fd"
    "4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b"
    "4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b4c1aaa5b"
)
MUTANT_REPORT_SHA256 = "5d2c5450a0ce2cdfac2874da05b0acdadfbe2f14645a70b861ed270cdddcbba8"
MUTANT_REPORT_PREFIXES = "e7af96912d615efa0a1902e5dee946f289175d0338998443d614ff44"
EXPLORE_SHA256 = "7501e507d63ee31b92485887c0f442aba728b82adb1d8c3475a29b31e4137870"
EXPLORE_JOBS = 25
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
    "flood-min n=2 f=1": (59, 11, 9),
    "flood-min n=3 f=0": (153, 0, 32),
    "eager-lock n=2 f=0": (44, 3, 0),
    "eager-lock n=3 f=0": (872, 16, 0),
    "lonely-lock n=2 f=0": (51, 4, 17),
    "even-lock n=2 f=0": (116, 3, 0),
    "even-lock n=3 f=0": (2330, 16, 0),
    "any-report n=2 f=0": (47, 9, 0),
    "any-report n=3 f=0": (1407, 253, 0),
    "free-running n=2 f=1": (7, 2, 4),
    "free-running n=3 f=0": (4, 0, 3),
    "hasty-suspector n=2 f=1": (106, 19, 0),
    "hasty-suspector n=3 f=0": (1530, 1, 0),
}


def grid_tables():
    """(name, table): every kind and behaviour at n in {2, 3, 5}, over four
    crash patterns, three convergence steps and seeds 0-3, all at horizon 24."""
    for kind in ALL_KINDS:
        for behavior in BEHAVIORS:
            for n in (2, 3, 5):
                patterns = [{}, {1: 0}, {n: 7}] + ([{1: 3, 2: 12}] if n >= 3 else [])
                for crashes in patterns:
                    pattern = FailurePattern.of(n, crashes)
                    for convergence in (0, 9, 20):
                        profile = OracleProfile(behavior, convergence)
                        for seed in range(4):
                            name = f"{kind} {behavior} n={n} crashes={crashes} convergence={convergence} seed={seed}"
                            yield name, sample_history(DetectorSpec(kind, n), pattern, profile, seed, 24)


def lazy_read_fault(history, order: random.Random) -> str | None:
    """Read every cell of a freshly sampled table through `at`, the horizon
    and the step past it included, in an order shuffled by `order`, before
    anything touches its rows; then say what, if anything, disagrees with the
    rows it materializes or with the same table built from them."""
    cells = [(p, t) for p in range(1, history.n + 1) for t in range(history.horizon + 2)]
    order.shuffle(cells)
    read = {cell: history.at(*cell) for cell in cells}
    rows = history.rows
    moved = [(p, t) for (p, t), v in read.items() if v != rows[p - 1][min(t, history.horizon)]]
    if moved:
        return f"cell {moved[0]} read {read[moved[0]]!r} but the rows hold another value"
    eager = DetectorHistory(history.kind, history.n, history.horizon, rows, history.convergence)
    if not (history == eager and eager == history and hash(history) == hash(eager)):
        return "the table is not equal to, or hashes apart from, the same table built from its rows"
    return None


def grid_digest() -> tuple[int, str, list[str]]:
    """The table count, the digest of every table's JSON in order, and the
    tables whose cells read through `at`, in a seeded shuffled order, differ
    from their rows (`lazy_read_fault`)."""
    digest = hashlib.sha256()
    count = 0
    faults = []
    order = random.Random("grid/reads")
    for name, history in grid_tables():
        fault = lazy_read_fault(history, order)
        if fault is not None:
            faults.append(f"{name}: {fault}")
        digest.update((history_to_json(history) + "\n").encode())
        count += 1
    return count, digest.hexdigest(), faults


def cell_range(kind: str, n: int) -> list:
    """Every value a cell of a `kind` table over n processes may hold."""
    if kind in COUNT_KINDS:
        return list(range(n + 1))
    if kind == SELF_TRUST:
        return [False, True]
    if kind == LEADER:
        return list(range(1, n + 1))
    return [frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)]


def validator_verdicts():
    """(job, history, pattern, valid) for every kind and size of
    VALIDATOR_SIZES: every table over the kind's cell range, against every
    pattern of `Environment(SystemConfig(n, n - 1)).enumerate_patterns` over
    the steps 0..h+1, so that a crash may also strike past the horizon."""
    for kind in ALL_KINDS:
        for n, h in VALIDATOR_SIZES:
            spec = DetectorSpec(kind, n)
            patterns = list(Environment(SystemConfig(n, n - 1)).enumerate_patterns(range(h + 2)))
            rows = list(itertools.product(cell_range(kind, n), repeat=h + 1))
            for table in itertools.product(rows, repeat=n):
                history = DetectorHistory(kind, n, h, table)
                for pattern in patterns:
                    yield f"{kind} n={n} h={h}", history, pattern, spec.validates(history, pattern)


def validator_digest() -> tuple[str, dict[str, tuple[int, int]]]:
    """The digest of every verdict in order, and each (kind, n, h)'s
    (valid, total)."""
    digest = hashlib.sha256()
    counts: dict[str, tuple[int, int]] = {}
    for job, _, _, valid in validator_verdicts():
        digest.update(b"1" if valid else b"0")
        ok, total = counts.get(job, (0, 0))
        counts[job] = (ok + valid, total + 1)
    return digest.hexdigest(), counts


def campaign_traces():
    """(name, trace): the criterion-2 campaigns and the criterion-6
    construction, seeds 0-19."""
    for algorithm in TRACE_ALGORITHMS:
        for seed in TRACE_SEEDS:
            if algorithm == "random-selftrust":
                sc = selftrust_scenario(seed)
            else:
                sc = campaign_scenario(algorithm, seed)
            yield f"{algorithm} seed {seed}", run(sc, factory_of(algorithm))


def policy_traces():
    """(name, trace): every algorithm at n=3 f=1 with process 2 crashing at
    step 7, under every policy, seeds 0-4."""
    for algorithm, info in ALGORITHMS.items():
        for policy in POLICY_TRACE_POLICIES:
            for seed in POLICY_TRACE_SEEDS:
                sc = scenario(algorithm, 3, 1, crashes={2: 7}, behavior="adversarial", convergence=30,
                              horizon=400, policy=policy, seed=seed,
                              **({"inputs": (0, 1, 1)} if info.consensus else {"rounds": 8}))
                yield f"{algorithm} {policy} seed {seed}", run(sc, info.factory)


def trace_pins(traces) -> tuple[str, str]:
    """The sha256 of the traces' bytes in order, and the first 8 hex digits
    of each trace's own sha256, joined in the same order."""
    texts = [trace.to_jsonl().encode() for _, trace in traces]
    return (hashlib.sha256(b"".join(texts)).hexdigest(),
            "".join(hashlib.sha256(text).hexdigest()[:8] for text in texts))


def dumped(trace) -> str:
    """The trace's lines, each written by `json.dumps(line, sort_keys=True)`:
    what `Trace.to_jsonl` must equal byte for byte."""
    lines = [{"ev": "meta", "scenario": trace.scenario.to_dict()}, *trace.events,
             {"ev": "end", "truncated": trace.truncated, "pending": trace.pending}]
    return "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)


def mutant_traces():
    """(name, trace): for each of criterion 3's seeded mutation gates, the
    first trace that catches its mutant, and criterion 6's forced
    identifier collision."""
    yield "flood-min", run(scenario("floodmax", 2, 1, inputs=(1, 0)), flood_min)
    yield "eager-lock seed 0", run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), behavior="pessimistic",
                                            convergence=40, policy="random", seed=0, horizon=600), eager_lock)
    yield "lonely-lock seed 0", run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=0),
                                    lonely_lock)
    yield "any-report seed 13", run(scenario("leadervote", 3, 1, inputs=(0, 1, 1), behavior="adversarial",
                                             convergence=80, policy="random", seed=13, horizon=900), any_report)
    yield "free-running", run(scenario("stable-suspector", 3, 1, kind=CRASH_COUNT, policy="random", seed=1,
                                       horizon=400, rounds=12), free_running)
    yield "forced collision", run(scenario("random-selftrust", 3, 1, kind=CRASH_COUNT, policy="random", seed=4,
                                           horizon=900, rounds=8), forced_id_factory({1: 9, 2: 9, 3: 4}))
    yield "even-lock seed 11", run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), behavior="pessimistic",
                                            convergence=40, policy="random", seed=11, horizon=600), even_lock)


def report_pins(traces) -> tuple[str, str]:
    """As `trace_pins`, over the JSON of each trace's `check_trace` reports."""
    texts = [json.dumps([r.to_dict() for r in check_trace(trace)], sort_keys=True).encode() for _, trace in traces]
    return (hashlib.sha256(b"".join(texts)).hexdigest(),
            "".join(hashlib.sha256(text).hexdigest()[:8] for text in texts))


def pinned_traces():
    """The campaign traces, then the policy traces."""
    yield from campaign_traces()
    yield from policy_traces()


def first_moved_report(traces, prefixes: str) -> str:
    """Name the first of `traces` whose reports left their pinned prefix."""
    traces = list(traces)
    _, now = report_pins(traces)
    for i, (name, _) in enumerate(traces):
        if now[8 * i:8 * i + 8] != prefixes[8 * i:8 * i + 8]:
            return f"{name} is the first whose reports moved"
    return "no trace's reports moved, but traces were dropped"


def first_moved(traces, prefixes: str) -> str:
    """Name the first of `traces` whose own digest left its pinned prefix,
    and say whether its `to_jsonl` still equals `dumped`: if it does, the
    run changed; if not, the serializer is at fault."""
    for i, (name, trace) in enumerate(traces):
        text = trace.to_jsonl()
        if hashlib.sha256(text.encode()).hexdigest()[:8] != prefixes[8 * i:8 * i + 8]:
            verdict = ("equals json.dumps of its lines, so the run changed" if text == dumped(trace)
                       else "differs from json.dumps of its lines, so the serializer is at fault")
            return f"{name} is the first whose bytes moved; its to_jsonl {verdict}"
    return "no trace's own digest moved, but traces were dropped"


def explore_jobs():
    """(job, algorithm, factory, scenario): every algorithm with a monitor
    and every mutant, at n=2 and at n=3 without crashes, with the crash
    round limit `anonsim explore` uses; `job` names the algorithm or mutant,
    n and f.  lonely-lock at n=3 is left out: its 22,058 states take
    seconds."""
    explorable = [(name, name, info.factory) for name, info in ALGORITHMS.items()
                  if info.consensus or info.monitors]
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
    count, grid, lazy_faults = grid_digest()
    verdicts, verdict_counts = validator_digest()
    trace, prefixes = trace_pins(campaign_traces())
    policy_trace, policy_prefixes = trace_pins(policy_traces())
    reports = report_pins(pinned_traces())
    mutant_reports = report_pins(mutant_traces())
    jobs, explored, counts = explore_digest()
    ok = (
        (count, grid, lazy_faults, verdicts, verdict_counts, trace, prefixes, policy_trace, policy_prefixes,
         reports, mutant_reports, jobs, explored, counts)
        == (GRID_TABLES, GRID_SHA256, [], VALIDATOR_SHA256, VALIDATOR_COUNTS, TRACE_SHA256, TRACE_PREFIXES,
            POLICY_TRACE_SHA256, POLICY_TRACE_PREFIXES, (REPORT_SHA256, REPORT_PREFIXES),
            (MUTANT_REPORT_SHA256, MUTANT_REPORT_PREFIXES), EXPLORE_JOBS, EXPLORE_SHA256, EXPLORE_COUNTS)
    )
    print(f"python {sys.version.split()[0]}: grid {count} tables {grid}, validators {verdicts}, traces {trace}, "
          f"policy traces {policy_trace}, reports {reports[0]}, mutant reports {mutant_reports[0]}, "
          f"explore {jobs} jobs {explored}: {'match' if ok else 'MISMATCH'}")
    if lazy_faults:
        print(f"{len(lazy_faults)} grid tables read apart from their rows, the first {lazy_faults[0]}")
    for job in sorted(verdict_counts.keys() | VALIDATOR_COUNTS.keys()):
        if verdict_counts.get(job) != VALIDATOR_COUNTS.get(job):
            print(f"validator job {job} moved: (valid, total) pinned {VALIDATOR_COUNTS.get(job)}, "
                  f"now {verdict_counts.get(job)}")
    if (trace, prefixes) != (TRACE_SHA256, TRACE_PREFIXES):
        print(f"trace {first_moved(campaign_traces(), TRACE_PREFIXES)}")
    if (policy_trace, policy_prefixes) != (POLICY_TRACE_SHA256, POLICY_TRACE_PREFIXES):
        print(f"policy trace {first_moved(policy_traces(), POLICY_TRACE_PREFIXES)}")
    if reports != (REPORT_SHA256, REPORT_PREFIXES):
        print(f"reports: {first_moved_report(pinned_traces(), REPORT_PREFIXES)}")
    if mutant_reports != (MUTANT_REPORT_SHA256, MUTANT_REPORT_PREFIXES):
        print(f"mutant reports: {first_moved_report(mutant_traces(), MUTANT_REPORT_PREFIXES)}")
    for job in sorted(counts.keys() | EXPLORE_COUNTS.keys()):
        if counts.get(job) != EXPLORE_COUNTS.get(job):
            print(f"explore job {job} moved: (states, terminals, violations) pinned "
                  f"{EXPLORE_COUNTS.get(job)}, now {counts.get(job)}")
    sys.exit(0 if ok else 1)
