"""Checker behavior: verdicts, witnesses, symmetry, mutation sensitivity."""

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import pytest
from helpers import factory_of, report_of, scenario
from mutants import MUTANTS, any_report, eager_lock, even_lock, flood_min, free_running, hasty_suspector, lonely_lock

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
from anonsim.simulator import Automaton, NullMonitor, Trace
from anonsim.transforms import output_history
from anonsim.verify import (
    ALGORITHMS,
    FAIL,
    PASS,
    TRUNCATED,
    VACUOUS,
    AlgorithmInfo,
    _Property,
    check_consensus,
    check_lemma_invariants,
    check_permutation_closure,
    check_trace,
    classify_symmetry,
    monitor_for,
)


@dataclass
class Decider(Automaton):
    """A toy consensus protocol: once woken, a process decides each value
    of `script` in turn, then halts."""

    decided: int | None = None
    script: tuple = field(default=(), compare=False)

    def on_poll(self, ctx) -> bool:
        for value in self.script:
            self.decided = value
            ctx.decide(value, r=1)
        ctx.halt()
        return True


def decisions_trace(decides) -> Trace:
    """A finished lockmin n=3 trace holding only the decisions (step, proc, value, round)."""
    events = [{"step": s, "ev": "decide", "proc": p, "value": v, "r": r} for s, p, v, r in decides]
    return Trace(scenario("lockmin", 3, 1, inputs=(0, 1, 1)), events, truncated=False, pending=0)


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
        report = next(r for r in check_consensus(trace) if r.prop == "agreement")
        assert report.verdict == FAIL and report.witness

    def test_validity_failure_detected(self):
        trace = self.good_trace()
        for ev in trace.events:
            if ev["ev"] == "decide":
                ev["value"] = 7
        report = next(r for r in check_consensus(trace) if r.prop == "validity")
        assert report.verdict == FAIL

    def test_termination_truncated_verdict(self):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), crashes={3: 5},
                      behavior="adversarial", convergence=90, horizon=100,
                      policy="random", seed=1)
        trace = run(sc, factory_of("lockmin"))
        report = next(r for r in check_consensus(trace) if r.prop == "termination")
        assert report.verdict == TRUNCATED

    @pytest.mark.parametrize("script, prop", [((), "termination"), ((0, 0), "irrevocability"), ((7,), "validity")])
    def test_monitor_and_trace_check_fail(self, script, prop):
        # processes that halt undecided, decide twice or decide a value no
        # one proposed: the exploration monitor flags each, and the replay
        # of its witness fails the same trace check, and only that one
        sc = scenario("floodmax", 2, 0, inputs=(0, 1))
        factory = lambda sc, p: Decider(sc.cfg.n, sc.cfg.f, p, script=script)
        res = explore(sc, factory, monitor=monitor_for("floodmax", 2, 0, sc.inputs))
        assert res.violations and {v.detail.split(":")[0] for v in res.violations} == {prop}
        trace = run_schedule(sc, factory, res.violations[0].schedule)
        assert [r.prop for r in check_consensus(trace) if r.failed] == [prop]

    @pytest.mark.parametrize("decides, verdict, detail", [
        ([], VACUOUS, "no correct process decided"),
        ([(3, 1, 0, 1), (4, 2, 1, 1), (5, 3, 0, 1)], PASS, ""),
        ([(3, 1, 0, 1), (4, 2, 0, 2)], PASS, ""),
        ([(3, 1, 0, 1), (4, 2, 0, 1), (9, 3, 0, 3)], FAIL, "decisions spread over 2 rounds"),
        ([(3, 1, 0, 1), (4, 2, 0, 2), (5, 3, 0, 2)], PASS, ""),
    ])
    def test_decision_spread_verdicts(self, decides, verdict, detail):
        report = report_of(decisions_trace(decides), "decision-spread")
        assert (report.verdict, report.detail) == (verdict, detail)

    @pytest.mark.parametrize("decides, prop, witness, detail", [
        ([(3, 1, 0, 1), (4, 2, 1, 1), (5, 3, 0, 1)], "agreement", [(1, 0), (2, 1), (3, 0)],
         "correct processes decided [0, 1]"),
        ([(3, 1, 0, 1), (4, 2, 0, 2)], "termination", [3], "correct processes without a decision"),
    ])
    def test_decision_spread_restates_neither_agreement_nor_termination(self, decides, prop, witness, detail):
        # conflicting values fail agreement alone, and a correct process
        # that never decided fails termination alone
        failed = [r for r in check_trace(decisions_trace(decides)) if r.failed]
        assert [(r.prop, r.witness, r.detail) for r in failed] == [(prop, witness, detail)]

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
        assert report_of(trace, "stubbornness").verdict == FAIL

    def test_honest_floodmax_keeps_stubbornness(self):
        sc = scenario("floodmax", 2, 1, inputs=(1, 0))
        assert report_of(run(sc, factory_of("floodmax")), "stubbornness").verdict == PASS

    def test_unconditional_lock_breaks_exclusivity(self):
        caught = 0
        for seed in range(60):
            sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), behavior="pessimistic",
                          convergence=40, policy="random", seed=seed, horizon=600)
            trace = run(sc, eager_lock)
            if report_of(trace, "lock-exclusivity").verdict == FAIL:
                caught += 1
        assert caught > 0

    def test_lonely_lock_breaks_agreement(self):
        caught = 0
        for seed in range(40):
            sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=seed)
            trace = run(sc, lonely_lock)
            if report_of(trace, "agreement").verdict == FAIL:
                caught += 1
        assert caught > 0

    def test_even_lock_breaks_decision_spread_alone(self):
        # it spreads decisions over two rounds and agrees: decision-spread
        # is the only property it breaks
        caught = 0
        for seed in range(60):
            sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), behavior="pessimistic", convergence=40,
                          policy="random", seed=seed, horizon=600)
            failed = {r.prop for r in check_trace(run(sc, even_lock)) if r.failed}
            assert failed <= {"decision-spread"}, (seed, failed)
            caught += bool(failed)
        assert caught > 0

    def test_any_report_breaks_unique_decide(self):
        caught = 0
        for seed in range(300):
            sc = scenario("leadervote", 3, 1, inputs=(0, 1, 1), behavior="adversarial",
                          convergence=80, policy="random", seed=seed, horizon=900)
            trace = run(sc, any_report)
            if report_of(trace, "unique-decide").verdict == FAIL:
                caught += 1
                break
        assert caught > 0

    def test_free_running_breaks_round_skew(self):
        sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT,
                      policy="random", seed=1, horizon=400, rounds=12)
        trace = run(sc, free_running)
        assert report_of(trace, "round-skew").verdict == FAIL

    @pytest.mark.parametrize("mutant, rounds, props", [
        ("flood-min", None, {"stubbornness"}),  # flagged at the drop, before any decision
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
            "flood-min", "eager-lock", "lonely-lock", "even-lock", "any-report",
            "free-running", "hasty-suspector",
        }


class TestLemmaCheckers:
    def test_lock_exclusivity_ignores_null_tags(self):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=3)
        trace = run(sc, factory_of("lockmin"))
        assert report_of(trace, "lock-exclusivity").verdict == PASS

    def test_round_skew_bound_reported(self):
        sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT,
                      crashes={2: 30}, policy="random", seed=5, horizon=800, rounds=14)
        trace = run(sc, factory_of("stable-suspector"))
        report = report_of(trace, "round-skew")
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
        trace.scenario = replace(trace.scenario, algorithm="no-such-algorithm")
        with pytest.raises(ValueError):
            check_lemma_invariants(trace)


class Sent(_Property):
    """A toy property: flags each send and each decision; keeps the senders."""

    props, memory, peer_fields = ("sent",), "senders", ("r",)
    senders = ()

    def on_send(self, state, p, payload):
        self.senders += (p,)
        self.fail(state, f"sent: process {p} sent")

    def on_decide(self, state, p, value, r):
        self.fail(state, f"sent: process {p} decided")

    def terminal_checks(self, state):
        return [("sent: at the end", [1])]


class Rounds(_Property):
    """A toy property: flags each round switch and each decision; counts the decisions."""

    props, memory, peer_fields = ("rounds",), "decisions", ("v", "r")
    decisions = 0

    def __init__(self, n, f, inputs):
        self.n = n

    def on_round(self, state, p, r):
        self.fail(state, f"rounds: process {p} reached round {r}")

    def on_decide(self, state, p, value, r):
        self.decisions += 1
        self.fail(state, f"rounds: process {p} decided")

    def terminal_checks(self, state):
        return [("rounds: at the end", [2])]


class Quiet(_Property):
    """A toy property with no hooks that reads any automaton."""

    peer_fields = None


class Twin(_Property):
    """A toy property keeping a field of Rounds's name."""

    def __init__(self, n, f, inputs):
        self.n = n


class TestFlatMonitor:
    # monitor_for runs an entry's monitors as one flat monitor
    def flat(self, monkeypatch, *members):
        info = AlgorithmInfo("toy", None, (), True, target_kind=PERFECT, monitors=members)
        monkeypatch.setitem(ALGORITHMS, "toy", info)
        return monitor_for("toy", 3, 1, ())

    def test_a_hook_only_one_member_has_is_that_members_own(self, monkeypatch):
        cls = type(self.flat(monkeypatch, Sent, Rounds))
        assert cls.on_send is Sent.on_send and cls.on_round is Rounds.on_round
        assert cls.on_output is cls.on_crash is NullMonitor.ignore
        assert cls.on_decide not in (Sent.on_decide, Rounds.on_decide, NullMonitor.ignore)
        assert cls.clone is NullMonitor.clone and cls.terminal_profile is Sent.terminal_profile

    def test_members_may_not_share_a_field(self, monkeypatch):
        with pytest.raises(TypeError, match="Twin keeps \\['n'\\]"):
            self.flat(monkeypatch, Rounds, Twin)

    def test_flag_is_the_first_failure_then_the_first_members(self, monkeypatch):
        state = SimpleNamespace(at=None)
        monitor = self.flat(monkeypatch, Sent, Rounds)
        monitor.on_round(state, 2, 1)
        monitor.on_decide(state, 1, 0, 1)
        assert monitor.violation() == "rounds: process 2 reached round 1"
        assert monitor.key() == ((), 1, "rounds: process 2 reached round 1")
        monitor = self.flat(monkeypatch, Sent, Rounds)
        before = monitor.clone()
        monitor.on_decide(state, 1, 0, 1)
        assert monitor.violation() == "sent: process 1 decided"
        monitor.on_send(state, 3, ("M",))
        assert monitor.key() == ((3,), 1, "sent: process 1 decided")
        assert before.key() == ((), 0, None) and vars(before) == {"senders": (), "n": 3, "decisions": 0}

    def test_peer_fields_are_the_union_or_any(self, monkeypatch):
        assert self.flat(monkeypatch, Sent, Rounds).peer_fields == ("r", "v")
        assert self.flat(monkeypatch, Rounds, Quiet).peer_fields is None

    def test_terminal_checks_in_member_order(self, monkeypatch):
        assert self.flat(monkeypatch, Rounds, Sent).terminal_checks(None) == [
            ("rounds: at the end", [2]), ("sent: at the end", [1])]
        assert type(self.flat(monkeypatch, Quiet, Sent)).terminal_checks is Sent.terminal_checks


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
            hist = output_history(trace, PERFECT)
            assert spec.validates(hist, sc.pattern), seed
            hasty = run(sc, hasty_suspector)
            bad = output_history(hasty, PERFECT)
            if not spec.validates(bad, sc.pattern):
                caught += 1
        assert caught > 0, "hasty mutant never produced an invalid history"
