"""Detector emulations: suspectors, announcer, randomized self-trust,
table translations."""

from collections import Counter

import pytest
from helpers import factory_of, forced_id_factory, report_of, scenario
from pins import validator_verdicts

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
from anonsim.verify import monitor_for


def emulate(algorithm, target, **kwargs):
    sc = scenario(algorithm, kwargs.pop("n", 3), kwargs.pop("f", 1), **kwargs)
    trace = run(sc, factory_of(algorithm))
    return sc, trace, output_history(trace, target)


class TestEventualSuspector:
    def test_no_crash_never_suspects(self):
        sc, trace, hist = emulate("eventual-suspector", EVENTUALLY_PERFECT, rounds=8)
        assert all(v == frozenset() for row in hist.rows for v in row)
        assert DetectorSpec(EVENTUALLY_PERFECT, 3).validates(hist, sc.pattern)

    def test_crashed_process_permanently_suspected(self):
        sc, trace, hist = emulate(
            "eventual-suspector", EVENTUALLY_PERFECT,
            crashes={3: 30}, policy="random", seed=5, horizon=700, rounds=14,
        )
        assert DetectorSpec(EVENTUALLY_PERFECT, 3).validates(hist, sc.pattern)
        for p in (1, 2):
            assert hist.at(p, hist.horizon) == frozenset({3})

    def test_posthumous_race_corrected(self):
        # messages from the crashed process outrace live traffic for a round,
        # then silence sets the record straight
        sc, trace, hist = emulate(
            "eventual-suspector", EVENTUALLY_PERFECT,
            crashes={3: 25}, policy="crash-adjacent", seed=2, horizon=700, rounds=14,
        )
        assert DetectorSpec(EVENTUALLY_PERFECT, 3).validates(hist, sc.pattern)

    def test_exploration_validates(self):
        # small window here; the acceptance suite runs the full-size one
        sc = scenario("eventual-suspector", 3, 1, rounds=4)
        res = explore(sc, factory_of("eventual-suspector"),
                      monitor=monitor_for("eventual-suspector", 3, 1, ()),
                      crash_round_limit=3)
        assert res.violation_count == 0 and not res.partial


class TestStableSuspector:
    def test_no_crash_never_suspects(self):
        sc, trace, hist = emulate("stable-suspector", PERFECT, kind=CRASH_COUNT, rounds=10)
        assert all(v == frozenset() for row in hist.rows for v in row)
        assert DetectorSpec(PERFECT, 3).validates(hist, sc.pattern)

    def test_seeded_runs_stay_perfect(self):
        for seed in range(25):
            sc, trace, hist = emulate(
                "stable-suspector", PERFECT, kind=CRASH_COUNT,
                crashes={2: 30}, policy="random", seed=seed, horizon=800, rounds=16,
            )
            assert DetectorSpec(PERFECT, 3).validates(hist, sc.pattern), seed
            for p in (1, 3):
                assert hist.at(p, hist.horizon) == frozenset({2})

    def test_exploration_no_false_suspicion(self):
        # small window here; the acceptance suite runs the full-size one
        sc = scenario("stable-suspector", 3, 1, kind=CRASH_COUNT, rounds=5)
        res = explore(sc, factory_of("stable-suspector"),
                      monitor=monitor_for("stable-suspector", 3, 1, ()),
                      crash_round_limit=1)
        assert res.violation_count == 0 and not res.partial


class TestAnnouncer:
    def test_leader_announcement_converges(self):
        for seed in range(10):
            sc, trace, hist = emulate(
                "leader-announce", LEADER, kind=SELF_TRUST,
                behavior="adversarial", convergence=60,
                policy="fifo", seed=seed, horizon=800, rounds=25,
            )
            assert DetectorSpec(LEADER, 3).validates(hist, sc.pattern), seed

    def test_crashed_claimant_overridden(self):
        sc, trace, hist = emulate(
            "leader-announce", LEADER, kind=SELF_TRUST,
            crashes={2: 20}, behavior="adversarial", convergence=60,
            policy="fifo", seed=3, horizon=800, rounds=25,
        )
        assert DetectorSpec(LEADER, 3).validates(hist, sc.pattern)
        tail = {hist.at(p, hist.horizon) for p in (1, 3)}
        assert len(tail) == 1 and tail <= {1, 3}


class TestRandomizedSelfTrust:
    def test_single_process_trusts_itself(self):
        sc, trace, hist = emulate("random-selftrust", SELF_TRUST, n=1, f=0,
                                  kind=CRASH_COUNT, rounds=4)
        assert all(v is True for v in hist.row(1))
        assert DetectorSpec(SELF_TRUST, 1).validates(hist, sc.pattern)

    def test_seeded_runs_elect_max_id(self):
        for seed in range(20):
            sc = scenario("random-selftrust", 5, 2, kind=CRASH_COUNT,
                          crashes={2: 30, 5: 60}, behavior="adversarial",
                          convergence=120, policy="random", seed=seed,
                          horizon=2500, rounds=12)
            trace = run(sc, factory_of("random-selftrust"))
            hist = output_history(trace, SELF_TRUST)
            assert not report_of(trace, "id-collision").failed
            assert DetectorSpec(SELF_TRUST, 5).validates(hist, sc.pattern), seed

    def test_exploration_max_id_always_wins(self):
        sc = scenario("random-selftrust", 3, 0, kind=CRASH_COUNT, seed=13, rounds=4)
        res = explore(sc, factory_of("random-selftrust"), monitor=monitor_for("random-selftrust", 3, 0, ()))
        assert res.violation_count == 0 and not res.partial

    def test_exploration_forced_collision_fails(self):
        # two processes share the largest identifier: the second of them to
        # send its heartbeat is flagged as it sends, so no schedule reaches a
        # terminal state, where the self-trust check would fail too
        sc = scenario("random-selftrust", 3, 0, kind=CRASH_COUNT, seed=13, rounds=4)
        res = explore(sc, forced_id_factory({1: 7, 2: 7, 3: 3}), monitor=monitor_for("random-selftrust", 3, 0, ()))
        assert res.violations and not res.partial and res.terminals == 0
        detail = "id-collision: duplicate identifiers drawn"
        assert {(v.check, v.detail) for v in res.violations} == {("invariant", detail)}

    def test_forced_collision_fails_validation(self):
        sc = scenario("random-selftrust", 3, 1, kind=CRASH_COUNT,
                      policy="random", seed=4, horizon=900, rounds=8)
        factory = forced_id_factory({1: 7, 2: 7, 3: 3})
        trace = run(sc, factory)
        assert report_of(trace, "id-collision").failed
        hist = output_history(trace, SELF_TRUST)
        assert not DetectorSpec(SELF_TRUST, 3).validates(hist, sc.pattern)

    def test_identified_mode_rejected(self):
        from dataclasses import replace

        sc = scenario("random-selftrust", 3, 1, kind=CRASH_COUNT, rounds=4)
        with pytest.raises(ValueError):
            factory_of("random-selftrust")(replace(sc, identified=True), 1)


class TestSuspectorModeGuards:
    @pytest.mark.parametrize("name", ["eventual-suspector", "stable-suspector", "leader-announce"])
    def test_anonymous_mode_rejected(self, name):
        from dataclasses import replace

        sc = scenario(name, 3, 1, rounds=4)
        with pytest.raises(ValueError):
            factory_of(name)(replace(sc, identified=False), 1)


class TestTableTranslations:
    def pattern(self):
        return FailurePattern.of(3, {2: 3})

    def test_perfect_becomes_crash_count(self):
        pat = self.pattern()
        spec = DetectorSpec(PERFECT, 3)
        for seed in range(50):
            src = sample_history(spec, pat, OracleProfile("adversarial", 6), seed=seed, horizon=10)
            out = suspected_count(src)
            assert out.kind == CRASH_COUNT
            assert DetectorSpec(CRASH_COUNT, 3).validates(out, pat)

    def test_exact_knowledge_converges_from_below(self):
        pat = self.pattern()
        rows = tuple(tuple(pat.at(t) for t in range(8)) for _ in range(3))
        from anonsim import DetectorHistory

        src = DetectorHistory(PERFECT, 3, 7, rows)
        out = suspected_count(src)
        assert all(v <= len(pat.crashed) for row in out.rows for v in row)
        assert out.at(1, 7) == len(pat.crashed)

    def test_eventually_perfect_becomes_eventual_count(self):
        pat = self.pattern()
        spec = DetectorSpec(EVENTUALLY_PERFECT, 3)
        for seed in range(50):
            src = sample_history(spec, pat, OracleProfile("pessimistic", 6), seed=seed, horizon=10)
            out = suspected_count(src)
            assert out.kind == EVENTUAL_CRASH_COUNT
            assert DetectorSpec(EVENTUAL_CRASH_COUNT, 3).validates(out, pat)

    def test_leader_becomes_self_trust(self):
        pat = self.pattern()
        spec = DetectorSpec(LEADER, 3)
        for seed in range(50):
            src = sample_history(spec, pat, OracleProfile("adversarial", 6), seed=seed, horizon=10)
            out = leader_self_trust(src)
            assert DetectorSpec(SELF_TRUST, 3).validates(out, pat)

    def test_constant_leader_trusts_exactly_there(self):
        from anonsim import DetectorHistory

        pat = FailurePattern.of(3, {})
        src = DetectorHistory(LEADER, 3, 4, tuple(((2,) * 5,) * 3))
        out = leader_self_trust(src)
        assert out.row(2) == (True,) * 5
        assert out.row(1) == (False,) * 5 and out.row(3) == (False,) * 5

    def test_count_weakening_is_one_way(self):
        pat = self.pattern()
        spec = DetectorSpec(CRASH_COUNT, 3)
        for seed in range(50):
            src = sample_history(spec, pat, OracleProfile("adversarial", 6), seed=seed, horizon=10)
            out = count_weakening(src)
            assert DetectorSpec(EVENTUAL_CRASH_COUNT, 3).validates(out, pat)
        # an eventual-only table fed backwards must be rejected
        loose = sample_history(
            DetectorSpec(EVENTUAL_CRASH_COUNT, 3), pat, OracleProfile("pessimistic", 6),
            seed=1, horizon=10,
        )
        assert not spec.validates(loose, pat)

    def test_every_valid_source_maps_to_a_valid_target(self):
        # exhaustively, over the tables and patterns whose verdicts tests/pins.py pins
        translations = {PERFECT: suspected_count, EVENTUALLY_PERFECT: suspected_count,
                        LEADER: leader_self_trust, CRASH_COUNT: count_weakening}
        sources = Counter()
        for _, history, pattern, valid in validator_verdicts():
            if valid and history.kind in translations:
                out = translations[history.kind](history)
                assert DetectorSpec(out.kind, history.n).validates(out, pattern), (history, pattern)
                sources[history.kind] += 1
        assert sources == {PERFECT: 887, EVENTUALLY_PERFECT: 9689, LEADER: 504, CRASH_COUNT: 373}

    def test_kind_guards(self):
        # each translation, a source kind it accepts, and one it must refuse
        pat, profile = self.pattern(), OracleProfile("optimistic", 4)
        for translate, kind, wrong, name in [
            (suspected_count, PERFECT, LEADER, "suspected-count"),
            (suspected_count, EVENTUALLY_PERFECT, CRASH_COUNT, "suspected-count"),
            (leader_self_trust, LEADER, PERFECT, "leader-self-trust"),
            (count_weakening, CRASH_COUNT, EVENTUAL_CRASH_COUNT, "count-weakening"),
        ]:
            src = sample_history(DetectorSpec(kind, 3), pat, profile, seed=0, horizon=8)
            bad = sample_history(DetectorSpec(wrong, 3), pat, profile, seed=0, horizon=8)
            assert translate(src).emulated_from == (kind, name, 0)
            with pytest.raises(ValueError, match="expected a"):
                translate(bad)


class TestEmulatedAnonymity:
    def test_randomized_output_closed_under_relabelling(self):
        # emulated self-trust histories are themselves anonymous
        sc = scenario("random-selftrust", 3, 1, kind=CRASH_COUNT,
                      crashes={2: 20}, policy="random", seed=8, horizon=900, rounds=8)
        trace = run(sc, factory_of("random-selftrust"))
        hist = output_history(trace, SELF_TRUST)
        spec = DetectorSpec(SELF_TRUST, 3)
        assert spec.validates(hist, sc.pattern)
        assert is_anonymous(spec, sc.pattern, hist).anonymous

    def test_emulated_metadata_recorded(self):
        sc, trace, hist = emulate("eventual-suspector", EVENTUALLY_PERFECT, rounds=6)
        assert hist.emulated_from == (EVENTUAL_CRASH_COUNT, "eventual-suspector", 0)
