"""Checker behavior: verdicts, witnesses, symmetry, mutation sensitivity."""

from dataclasses import replace

import pytest
from helpers import factory_of, scenario

from anonsim import (
    CRASH_COUNT,
    PERFECT,
    SELF_TRUST,
    DetectorSpec,
    FailurePattern,
    OracleProfile,
    ScenarioError,
    explore,
    run,
    run_schedule,
    sample_history,
)
from anonsim.cli import ALGORITHMS, explore_crash_limit
from anonsim.mutants import (
    MUTANTS,
    any_report,
    eager_lock,
    flood_min,
    free_running,
    hasty_suspector,
    lonely_lock,
)
from anonsim.simulator import NullMonitor
from anonsim.transforms import output_history
from anonsim.verify import (
    FAIL,
    PASS,
    TRUNCATED,
    check_consensus,
    check_decision_spread,
    check_lemma_invariants,
    check_lock_exclusivity,
    check_permutation_closure,
    check_round_skew,
    check_stubbornness,
    check_trace,
    check_unique_decide,
    classify_symmetry,
    monitor_for,
)


class TestConsensusChecks:
    def good_trace(self):
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 0), crashes={3: 9}, seed=2)
        return run(sc, factory_of("floodmax"))

    def test_all_pass_on_honest_trace(self):
        reports = check_consensus(self.good_trace())
        assert [r.prop for r in reports] == ["termination", "irrevocability", "agreement", "validity"]
        assert all(r.verdict == PASS for r in reports)

    def test_agreement_failure_carries_witness(self):
        trace = self.good_trace()
        first = next(ev for ev in trace.events if ev["ev"] == "decide")
        first["value"] = 1 - first["value"]
        trace.decisions[first["proc"]][0] = (first["step"], first["value"], first["r"])
        report = next(r for r in check_consensus(trace) if r.prop == "agreement")
        assert report.verdict == FAIL and report.witness

    def test_validity_failure_detected(self):
        trace = self.good_trace()
        for ev in trace.events:
            if ev["ev"] == "decide":
                ev["value"] = 7
        for p in list(trace.decisions):
            trace.decisions[p] = [(s, 7, r) for s, _, r in trace.decisions[p]]
        report = next(r for r in check_consensus(trace) if r.prop == "validity")
        assert report.verdict == FAIL

    def test_termination_truncated_verdict(self):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), crashes={3: 5},
                      behavior="adversarial", convergence=90, horizon=100,
                      policy="random", seed=1)
        trace = run(sc, factory_of("lockmin"))
        report = next(r for r in check_consensus(trace) if r.prop == "termination")
        assert report.verdict == TRUNCATED

    def test_checkers_are_pure(self):
        trace = self.good_trace()
        assert [r.to_dict() for r in check_consensus(trace)] == [
            r.to_dict() for r in check_consensus(trace)
        ]


class TestMutationSensitivity:
    """Each checker must catch its documented mutant at least once."""

    def test_min_merge_breaks_stubbornness(self):
        sc = scenario("floodmax", 2, 1, inputs=(1, 0))
        trace = run(sc, flood_min)
        assert check_stubbornness(trace).verdict == FAIL

    def test_honest_floodmax_keeps_stubbornness(self):
        sc = scenario("floodmax", 2, 1, inputs=(1, 0))
        assert check_stubbornness(run(sc, factory_of("floodmax"))).verdict == PASS

    def test_unconditional_lock_breaks_exclusivity(self):
        caught = 0
        for seed in range(60):
            sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), behavior="pessimistic",
                          convergence=40, policy="random", seed=seed, horizon=600)
            trace = run(sc, eager_lock)
            if check_lock_exclusivity(trace).verdict == FAIL:
                caught += 1
        assert caught > 0

    def test_lonely_lock_breaks_decision_spread(self):
        caught = 0
        for seed in range(40):
            sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=seed)
            trace = run(sc, lonely_lock)
            if check_decision_spread(trace).verdict == FAIL:
                caught += 1
        assert caught > 0

    def test_any_report_breaks_unique_decide(self):
        caught = 0
        for seed in range(300):
            sc = scenario("leadervote", 3, 1, inputs=(0, 1, 1), behavior="adversarial",
                          convergence=80, policy="random", seed=seed, horizon=900)
            trace = run(sc, any_report)
            if check_unique_decide(trace).verdict == FAIL:
                caught += 1
                break
        assert caught > 0

    def test_free_running_breaks_round_skew(self):
        sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT,
                      policy="random", seed=1, horizon=400, rounds=12)
        trace = run(sc, free_running)
        assert check_round_skew(trace).verdict == FAIL

    def test_hasty_suspector_breaks_strong_accuracy(self):
        sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT, rounds=5)
        res = explore(sc, hasty_suspector,
                      monitor=monitor_for("stable-suspector", 3, 1, ()),
                      crash_round_limit=1)
        assert any("strong-accuracy" in v.detail for v in res.violations)

    @pytest.mark.parametrize("mutant, rounds, props", [
        ("flood-min", None, {"stubbornness", "agreement"}),
        ("eager-lock", None, {"lock-exclusivity"}),
        ("free-running", 6, {"round-skew"}),
    ])
    def test_explore_witness_replays(self, mutant, rounds, props):
        # the first violating schedule, replayed, is a trace the checkers fail
        algorithm, _, factory = MUTANTS[mutant]
        sc = scenario(algorithm, 3, 1, inputs=(0, 1, 1) if ALGORITHMS[algorithm].consensus else None,
                      rounds=rounds)
        res = explore(sc, factory, monitor=monitor_for(algorithm, 3, 1, sc.inputs),
                      crash_round_limit=explore_crash_limit(sc))
        trace = run_schedule(sc, factory, res.violations[0].schedule)
        assert props <= {r.prop for r in check_trace(trace) if r.failed}

    def test_mutant_table_is_wired(self):
        assert set(MUTANTS) == {
            "flood-min", "eager-lock", "lonely-lock", "any-report",
            "free-running", "hasty-suspector",
        }


class TestLemmaCheckers:
    def test_lock_exclusivity_ignores_null_tags(self):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=3)
        trace = run(sc, factory_of("lockmin"))
        assert check_lock_exclusivity(trace).verdict == PASS

    def test_round_skew_bound_reported(self):
        sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT,
                      crashes={2: 30}, policy="random", seed=5, horizon=800, rounds=14)
        trace = run(sc, factory_of("stable-suspector"))
        report = check_round_skew(trace)
        assert report.verdict == PASS and "max skew" in report.detail

    # lemma names, whether explore has a monitor, and the explore crash round
    # limit at rounds=10, f=1
    DISPATCH = {
        "floodmax": (["stubbornness"], True, None),
        "lockmin": (["lock-exclusivity", "decision-spread"], True, None),
        "leadervote": (["unique-decide"], True, None),
        "eventual-suspector": ([], True, 9),
        "stable-suspector": (["round-skew"], True, 6),
        "leader-announce": ([], False, None),
        "random-selftrust": (["id-collision"], True, 9),
    }

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_dispatch_matches_algorithm(self, algorithm):
        lemmas, explorable, crash_limit = self.DISPATCH[algorithm]
        sc = scenario(algorithm, 3, 1, horizon=400, rounds=None if ALGORITHMS[algorithm].consensus else 4)
        trace = run(sc, factory_of(algorithm))
        assert [r.prop for r in check_lemma_invariants(trace)] == lemmas
        if explorable:
            monitor = monitor_for(algorithm, 3, 1, sc.inputs)
            assert isinstance(monitor, NullMonitor)
            assert monitor.clone().key() == monitor.key()
        else:
            with pytest.raises(ScenarioError):
                monitor_for(algorithm, 3, 1, sc.inputs)
        assert explore_crash_limit(replace(sc, rounds=10)) == crash_limit
        assert explore_crash_limit(replace(sc, rounds=None)) is None
        with pytest.raises(ValueError):
            check_lemma_invariants(trace, algorithm="no-such-algorithm")


class TestSymmetry:
    def test_truthful_count_is_symmetric(self):
        pat = FailurePattern.of(3, {2: 4})
        hist = sample_history(DetectorSpec(CRASH_COUNT, 3), pat,
                              OracleProfile("optimistic", 5), seed=0, horizon=10)
        report = classify_symmetry(hist, pat)
        assert report.strict and report.suffix and report.classification == "symmetric"

    def test_self_trust_is_unsymmetrical(self):
        pat = FailurePattern.of(3, {})
        for seed in range(10):
            hist = sample_history(DetectorSpec(SELF_TRUST, 3), pat,
                                  OracleProfile("optimistic", 0), seed=seed, horizon=8)
            report = classify_symmetry(hist, pat)
            assert not report.strict
            assert report.classification == "unsymmetrical"

    def test_adversarial_count_symmetric_only_on_suffix(self):
        pat = FailurePattern.of(3, {2: 2})
        for seed in range(30):
            hist = sample_history(DetectorSpec(CRASH_COUNT, 3), pat,
                                  OracleProfile("adversarial", 6), seed=seed, horizon=12)
            report = classify_symmetry(hist, pat)
            assert report.suffix
            if not report.strict:
                assert 0 < report.suffix_from <= 6
                break
        else:
            pytest.fail("no adversarial sample disagreed before convergence")

    def test_single_correct_process_trivially_symmetric(self):
        pat = FailurePattern.of(2, {2: 1})
        hist = sample_history(DetectorSpec(SELF_TRUST, 2), pat,
                              OracleProfile("optimistic", 3), seed=0, horizon=6)
        assert classify_symmetry(hist, pat).strict


class TestPermutationClosure:
    def test_count_kind_passes(self):
        pat = FailurePattern.of(3, {3: 1})
        spec = DetectorSpec(CRASH_COUNT, 3)
        hist = sample_history(spec, pat, OracleProfile("adversarial", 4), seed=5, horizon=8)
        report = check_permutation_closure(spec, pat, hist)
        assert report.verdict == PASS and "6 permutations" in report.detail

    def test_leader_kind_fails_with_witness(self):
        # a constant leader output names a process; relabelling that process
        # onto a crash breaks validity
        pat = FailurePattern.of(3, {2: 1})
        spec = DetectorSpec("leader", 3)
        hist = sample_history(spec, pat, OracleProfile("optimistic", 3), seed=0, horizon=8)
        report = check_permutation_closure(spec, pat, hist)
        assert report.verdict == FAIL and len(report.witness) == 3

    def test_perfect_kind_fails(self):
        pat = FailurePattern.of(3, {1: 2})
        spec = DetectorSpec(PERFECT, 3)
        hist = sample_history(spec, pat, OracleProfile("optimistic", 4), seed=0, horizon=8)
        assert check_permutation_closure(spec, pat, hist).verdict == FAIL


class TestTransformValidityChecks:
    def test_emulated_history_checked_like_any_other(self):
        spec = DetectorSpec(PERFECT, 3)
        caught = 0
        for seed in range(40):
            sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT,
                          crashes={2: 30}, policy="crash-adjacent", seed=seed,
                          horizon=800, rounds=16)
            trace = run(sc, factory_of("stable-suspector"))
            hist = output_history(trace, PERFECT, "stable-suspector")
            assert spec.validates(hist, sc.pattern), seed
            hasty = run(sc, hasty_suspector)
            bad = output_history(hasty, PERFECT, "stable-suspector")
            if not spec.validates(bad, sc.pattern):
                caught += 1
        assert caught > 0, "hasty mutant never produced an invalid history"
