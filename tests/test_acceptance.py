"""Acceptance suite.

One test per criterion, each printing a pass/fail line (run with -s to see
them).  Everything is seeded and runs at desk scale:

1. exhaustive small-instance consensus (all inputs, all crash placements)
2. statistical campaigns, 1000 seeded runs per consensus algorithm
3. protocol-invariant suite on every campaign trace + mutation sensitivity,
   seeded and explored
4. transformation validity (exhaustive suspector exploration + translations)
5. anonymity closure of the anonymous detector kinds, exhaustive at n <= 4
6. randomized self-trust construction success rate against the 2/3 bound
7. byte-identical replay of (scenario, seed)
"""

import itertools
import json
import subprocess
import sys
import time

import pytest
from helpers import (
    LowestCrashedIndex, campaign_scenario, factory_of, forced_id_factory, report_of, scenario, selftrust_scenario,
)
from mutants import MUTANTS, any_report, eager_lock, even_lock, flood_min, free_running, hasty_suspector, lonely_lock
from pins import (
    MUTANT_REPORT_PREFIXES, MUTANT_REPORT_SHA256, POLICY_TRACE_PREFIXES, POLICY_TRACE_SHA256, REPORT_PREFIXES,
    REPORT_SHA256, TRACE_PREFIXES, TRACE_SHA256, campaign_traces, mutant_traces, pinned_traces, policy_traces,
    report_pins, trace_pins,
)

from anonsim import (
    CRASH_COUNT,
    EVENTUAL_CRASH_COUNT,
    EVENTUALLY_PERFECT,
    LEADER,
    PERFECT,
    SELF_TRUST,
    DetectorSpec,
    FailurePattern,
    OracleProfile,
    explore,
    is_anonymous,
    run,
    sample_history,
)
from anonsim.transforms import (
    count_weakening,
    leader_self_trust,
    output_history,
    suspected_count,
)
from anonsim.verify import (
    ALGORITHMS, check_trace, explore_crash_limit, monitor_for,
)

SWEEP = 1000


def stamp(label, t0):
    print(f"[acceptance] {label} ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def campaign_reports():
    """3 x 1000 seeded adversarial runs; reports shared by criteria 2 and 3."""
    all_reports = {}
    for algorithm in ("floodmax", "lockmin", "leadervote"):
        per_seed = []
        for seed in range(SWEEP):
            sc = campaign_scenario(algorithm, seed)
            trace = run(sc, factory_of(algorithm))
            reports = check_trace(trace)
            per_seed.append((seed, trace.truncated, reports))
        all_reports[algorithm] = per_seed
    return all_reports


class TestCriterion1ExhaustiveConsensus:
    # (states, terminals) of each job: a search change that loses or merges
    # schedules without tripping a check still moves these
    COUNTS = {
        ("floodmax", 2, 1): {
            "00": (88, 21), "01": (92, 25), "10": (92, 25), "11": (88, 21),
        },
        ("floodmax", 3, 2): {
            "000": (12227, 1417), "001": (22594, 2330), "010": (22594, 2330), "011": (16838, 1721),
            "100": (22594, 2330), "101": (16838, 1721), "110": (16838, 1721), "111": (12227, 1417),
        },
        ("lockmin", 3, 1): {
            "000": (7694, 403), "001": (30538, 605), "010": (30538, 605), "011": (36536, 707),
            "100": (30538, 605), "101": (36536, 707), "110": (36536, 707), "111": (7694, 403),
        },
    }

    def test_exhaustive_small_instance_consensus(self):
        t0 = time.time()
        total_states = total_terminals = 0
        for (algorithm, n, f), counts in self.COUNTS.items():
            for inputs in itertools.product((0, 1), repeat=n):
                sc = scenario(algorithm, n, f, inputs=inputs)
                res = explore(sc, factory_of(algorithm),
                              monitor=monitor_for(algorithm, n, f, inputs))
                assert not res.partial, (algorithm, inputs)
                assert res.violation_count == 0, (algorithm, inputs, res.violations[:2])
                pinned = counts["".join(map(str, inputs))]
                assert (res.states, res.terminals) == pinned, (algorithm, inputs)
                total_states += res.states
                total_terminals += res.terminals
        stamp(
            f"criterion 1 PASS: zero violations over {total_states} states, "
            f"{total_terminals} terminal schedules",
            t0,
        )


class TestCriterion2Campaigns:
    def test_thousand_seed_campaigns(self, campaign_reports):
        t0 = time.time()
        for algorithm, runs in campaign_reports.items():
            assert len(runs) == SWEEP
            truncated = sum(1 for _, tr, _ in runs if tr)
            failures = [
                (seed, r.prop, r.detail)
                for seed, _, reports in runs
                for r in reports
                if r.failed
            ]
            assert truncated == 0, f"{algorithm}: {truncated} truncated runs"
            assert not failures, f"{algorithm}: {failures[:3]}"
        stamp(f"criterion 2 PASS: 3x{SWEEP} adversarial runs, zero property failures", t0)


class TestCriterion3LemmaSuite:
    LEMMAS = ("stubbornness", "lock-exclusivity", "decision-spread", "unique-decide", "round-skew")

    def test_invariants_hold_on_all_campaign_traces(self, campaign_reports):
        t0 = time.time()
        counted = {name: 0 for name in self.LEMMAS}
        for runs in campaign_reports.values():
            for _, _, reports in runs:
                for r in reports:
                    if r.prop in counted:
                        assert not r.failed, (r.prop, r.detail)
                        counted[r.prop] += 1
        assert counted["stubbornness"] == SWEEP
        assert counted["lock-exclusivity"] == SWEEP
        assert counted["decision-spread"] == SWEEP
        assert counted["unique-decide"] == SWEEP
        # the round-skew invariant belongs to the stable suspector
        for seed in range(200):
            sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT, crashes={2: 30},
                          policy="random", seed=seed, horizon=800, rounds=14)
            report = report_of(run(sc, factory_of("stable-suspector")), "round-skew")
            assert not report.failed, (seed, report.detail)
            counted["round-skew"] += 1
        stamp(f"criterion 3 PASS: invariants held on 100% of traces ({counted})", t0)

    def test_reports_pinned(self):
        # property, verdict, detail and witness of every report on the 80
        # campaign and 105 policy traces, and on the mutant traces the gates
        # below catch
        t0 = time.time()
        assert report_pins(pinned_traces()) == (REPORT_SHA256, REPORT_PREFIXES)
        assert report_pins(mutant_traces()) == (MUTANT_REPORT_SHA256, MUTANT_REPORT_PREFIXES)
        stamp("criterion 3 PASS: the reports on 185 traces and the mutant traces match their pinned digests", t0)

    def test_every_failure_names_a_witness(self):
        # a failing report names what in its trace shows the failure: events,
        # processes or (process, step) cells, never nothing; the forced
        # collision's target validity names the two processes trusting
        # themselves
        failed = [(name, r) for name, trace in [*pinned_traces(), *mutant_traces()]
                  for r in check_trace(trace) if r.failed]
        assert failed and [(name, r.prop) for name, r in failed if not r.witness] == []
        assert [r.witness for name, r in failed if (name, r.prop) == ("forced collision", "target-validity")] == [[1, 2]]

    def test_mutation_sensitivity_gate(self):
        t0 = time.time()
        caught = {}

        trace = run(scenario("floodmax", 2, 1, inputs=(1, 0)), flood_min)
        caught["stubbornness"] = report_of(trace, "stubbornness").failed

        caught["lock-exclusivity"] = any(
            report_of(
                run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), behavior="pessimistic",
                             convergence=40, policy="random", seed=seed, horizon=600),
                    eager_lock),
                "lock-exclusivity",
            ).failed
            for seed in range(60)
        )

        caught["agreement"] = any(
            report_of(
                run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=seed),
                    lonely_lock),
                "agreement",
            ).failed
            for seed in range(60)
        )

        caught["decision-spread"] = any(
            report_of(
                run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), behavior="pessimistic",
                             convergence=40, policy="random", seed=seed, horizon=600),
                    even_lock),
                "decision-spread",
            ).failed
            for seed in range(60)
        )
        spread = explore(scenario("lockmin", 3, 1, inputs=(0, 1, 1)), even_lock,
                         monitor=monitor_for("lockmin", 3, 1, (0, 1, 1)))
        caught["decision-spread"] &= any(v.detail.startswith("decision-spread:") for v in spread.violations)

        caught["unique-decide"] = any(
            report_of(
                run(scenario("leadervote", 3, 1, inputs=(0, 1, 1), behavior="adversarial",
                             convergence=80, policy="random", seed=seed, horizon=900),
                    any_report),
                "unique-decide",
            ).failed
            for seed in range(300)
        )

        caught["round-skew"] = report_of(
            run(scenario("stable-suspector", 3, 1, kind=CRASH_COUNT, policy="random",
                         seed=1, horizon=400, rounds=12), free_running),
            "round-skew",
        ).failed

        hasty = explore(
            scenario("stable-suspector", 3, 1, kind=CRASH_COUNT, rounds=5),
            hasty_suspector,
            monitor=monitor_for("stable-suspector", 3, 1, ()),
            crash_round_limit=1,
        )
        caught["strong-accuracy"] = any("strong-accuracy" in v.detail for v in hasty.violations)

        missed = [name for name, got in caught.items() if not got]
        assert not missed, f"checkers blind to their mutants: {missed}"
        stamp(f"criterion 3 PASS: every checker caught its mutant {sorted(caught)}", t0)

    # the mutants that `explore` catches at n <= 3.  any-report escapes: it
    # needs several processes to trust themselves at once, and explore's
    # truthful oracle trusts one.  hasty-suspector escapes at f+3 rounds, and
    # the gate above catches it at 5.  eager-lock is caught at n=3 f=1, where
    # a crash lets two processes lock on different proposal sets
    EXPLORE_CATCHES = {"flood-min", "eager-lock", "lonely-lock", "even-lock", "free-running"}

    def test_explore_column_of_the_gate(self):
        # each mutant explored at n=2 and at n=3 with f=0 and 1, input 011 for
        # consensus and f+3 rounds for the suspectors, until a job finds a
        # violation
        t0 = time.time()
        caught = set()
        for name, (algorithm, _, factory) in MUTANTS.items():
            info = ALGORITHMS[algorithm]
            for n, f in ((2, 0 if info.majority else 1), (3, 0), (3, 1)):
                sc = scenario(algorithm, n, f, inputs=(0, 1, 1)[:n] if info.consensus else None,
                              rounds=None if info.consensus else f + 3)
                res = explore(sc, factory, monitor=monitor_for(algorithm, n, f, sc.inputs),
                              crash_round_limit=explore_crash_limit(sc))
                if res.violation_count:
                    caught.add(name)
                    break
        assert caught == self.EXPLORE_CATCHES
        stamp(f"criterion 3 PASS: explore catches {sorted(caught)}", t0)


class TestCriterion4Transformations:
    def test_eventual_suspector_exhaustive(self):
        t0 = time.time()
        sc = scenario("eventual-suspector", 3, 1, rounds=6)
        res = explore(sc, factory_of("eventual-suspector"),
                      monitor=monitor_for("eventual-suspector", 3, 1, ()),
                      crash_round_limit=5)
        assert not res.partial and res.violation_count == 0, res.violations[:2]
        assert (res.states, res.terminals) == (124_685, 253)
        stamp(
            f"criterion 4 PASS: eventually-perfect emulation valid on {res.terminals} "
            f"terminal schedules ({res.states} states)",
            t0,
        )

    def test_stable_suspector_exhaustive(self):
        t0 = time.time()
        sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT, rounds=6)
        res = explore(sc, factory_of("stable-suspector"),
                      monitor=monitor_for("stable-suspector", 3, 1, ()),
                      crash_round_limit=2)
        assert not res.partial and res.violation_count == 0, res.violations[:2]
        assert (res.states, res.terminals) == (222_137, 457)
        stamp(
            f"criterion 4 PASS: perfect emulation valid, zero false suspicions, on "
            f"{res.terminals} terminal schedules ({res.states} states)",
            t0,
        )

    def test_table_translations_thousand_sources(self):
        t0 = time.time()
        pat = FailurePattern.of(3, {2: 3})
        jobs = [
            (PERFECT, suspected_count, CRASH_COUNT),
            (EVENTUALLY_PERFECT, suspected_count, EVENTUAL_CRASH_COUNT),
            (LEADER, leader_self_trust, SELF_TRUST),
            (CRASH_COUNT, count_weakening, EVENTUAL_CRASH_COUNT),
        ]
        behaviors = ("optimistic", "pessimistic", "adversarial")
        for source_kind, translate, target_kind in jobs:
            src_spec = DetectorSpec(source_kind, 3)
            target_spec = DetectorSpec(target_kind, 3)
            for seed in range(SWEEP):
                profile = OracleProfile(behaviors[seed % 3], 6)
                src = sample_history(src_spec, pat, profile, seed=seed, horizon=10)
                out = translate(src)
                assert target_spec.validates(out, pat), (source_kind, seed)
        stamp(f"criterion 4 PASS: 4x{SWEEP} table translations target-valid", t0)

    def test_announcer_translation_thousand_sources(self):
        t0 = time.time()
        target = DetectorSpec(LEADER, 3)
        for seed in range(SWEEP):
            sc = scenario("leader-announce", 3, 1, kind=SELF_TRUST,
                          behavior="adversarial", convergence=60,
                          policy="fifo", seed=seed, horizon=800, rounds=25)
            trace = run(sc, factory_of("leader-announce"))
            hist = output_history(trace, LEADER)
            assert target.validates(hist, sc.pattern), seed
        stamp(f"criterion 4 PASS: {SWEEP} announcement runs emulate a valid leader oracle", t0)


class TestCriterion5AnonymityClosure:
    def test_anonymous_kinds_closed_under_all_permutations(self):
        t0 = time.time()
        checked = 0
        for kind in (CRASH_COUNT, EVENTUAL_CRASH_COUNT, SELF_TRUST):
            for n in (2, 3, 4):
                spec = DetectorSpec(kind, n)
                crash_options = [{}, {2: 3}] if n < 4 else [{}, {2: 3}, {1: 0, 4: 5}]
                for crashes in crash_options:
                    pat = FailurePattern.of(n, crashes)
                    for behavior in ("optimistic", "pessimistic", "adversarial"):
                        for seed in range(10):
                            hist = sample_history(spec, pat, OracleProfile(behavior, 6),
                                                  seed=seed, horizon=10)
                            verdict = is_anonymous(spec, pat, hist)
                            assert verdict.anonymous, (kind, n, crashes, behavior, seed)
                            checked += 1
        stamp(f"criterion 5 PASS: {checked} sampled histories closed under every permutation", t0)

    def test_counterexample_detector_rejected_with_witness(self):
        t0 = time.time()
        detector = LowestCrashedIndex(3)
        pat = FailurePattern.of(3, {1: 0})
        hist = detector.history(pat, 6)
        verdict = is_anonymous(detector, pat, hist)
        assert not verdict.anonymous and verdict.violation is not None
        stamp(
            "criterion 5 PASS: process-naming detector fails closure under "
            f"{verdict.violation.mapping}",
            t0,
        )


class TestCriterion6RandomizedReduction:
    def test_success_rate_against_bound(self):
        t0 = time.time()
        spec = DetectorSpec(SELF_TRUST, 5)
        successes = 0
        collisions = 0
        for seed in range(SWEEP):
            sc = selftrust_scenario(seed)
            trace = run(sc, factory_of("random-selftrust"))
            hist = output_history(trace, SELF_TRUST)
            collided = report_of(trace, "id-collision").failed
            collisions += collided
            if not collided and spec.validates(hist, sc.pattern):
                successes += 1
        rate = successes / SWEEP
        assert successes >= 667, f"success rate {rate:.4f} below the 2/3 bound"
        assert rate >= 0.999, f"observed rate {rate:.4f} below the 64-bit expectation"
        stamp(
            f"criterion 6 PASS: {successes}/{SWEEP} runs valid "
            f"(bound 667, observed rate {rate:.4f}, collisions {collisions})",
            t0,
        )

    def test_forced_collision_fails(self):
        t0 = time.time()
        sc = scenario("random-selftrust", 3, 1, kind=CRASH_COUNT,
                      policy="random", seed=4, horizon=900, rounds=8)
        trace = run(sc, forced_id_factory({1: 9, 2: 9, 3: 4}))
        report = report_of(trace, "id-collision")
        assert report.failed
        # the witness names the heartbeats of the two processes that drew 9
        sends = [trace.events[i] for i in report.witness]
        assert [(ev["ev"], ev["payload"][0], ev["payload"][2]) for ev in sends] == [("send", "HB", 9)] * 2
        assert sends[0]["proc"] != sends[1]["proc"]
        hist = output_history(trace, SELF_TRUST)
        assert not DetectorSpec(SELF_TRUST, 3).validates(hist, sc.pattern)
        stamp("criterion 6 PASS: forced identifier collision yields an invalid history", t0)


class TestCriterion7Determinism:
    def test_replay_is_byte_identical_across_invocations(self, tmp_path):
        t0 = time.time()
        doc = {
            "schema": 1, "algorithm": "lockmin", "n": 5, "f": 2,
            "inputs": [0, 1, 0, 1, 1], "crash": {"2": 30, "4": 80},
            "oracle": {"kind": "eventual-crash-count", "behavior": "adversarial",
                       "convergence": 150},
            "policy": "random", "seed": 17, "horizon": 1500,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        blobs = []
        for out in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "anonsim.cli", "run", str(path),
                 "--out", str(tmp_path / out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append((tmp_path / out / "lockmin-seed17.trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]
        stamp("criterion 7 PASS: two interpreter invocations produced identical traces", t0)

    def test_trace_bytes_pinned(self):
        # criterion-2 campaigns and the criterion-6 construction at seeds 0-19:
        # the oracle draw order is part of the replay contract
        t0 = time.time()
        assert trace_pins(campaign_traces()) == (TRACE_SHA256, TRACE_PREFIXES)
        stamp("criterion 7 PASS: 80 seeded traces match their pinned digest", t0)

    def test_policy_trace_bytes_pinned(self):
        # every algorithm under every policy, seeds 0-4
        t0 = time.time()
        assert trace_pins(policy_traces()) == (POLICY_TRACE_SHA256, POLICY_TRACE_PREFIXES)
        stamp("criterion 7 PASS: 105 fifo, random and crash-adjacent traces match their pinned digest", t0)
