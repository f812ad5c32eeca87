"""Protocol-level behavior of the three consensus automata."""

import itertools

import pytest
from helpers import decisions, factory_of, halts, scenario

from anonsim import explore, run
from anonsim.verify import check_consensus, check_lemma_invariants, monitor_for


def explore_ok(algorithm, n, f, inputs, **kwargs):
    sc = scenario(algorithm, n, f, inputs=inputs)
    res = explore(sc, factory_of(algorithm),
                  monitor=monitor_for(algorithm, n, f, tuple(inputs)), **kwargs)
    assert not res.partial
    return res


class TestFloodMax:
    def test_all_zero_inputs_decide_zero(self):
        sc = scenario("floodmax", 3, 2, inputs=(0, 0, 0), crashes={2: 9}, policy="random", seed=6)
        trace = run(sc, factory_of("floodmax"))
        assert all(ds[0][1] == 0 for ds in decisions(trace).values())

    def test_fifo_crash_free_decides_at_last_round(self):
        sc = scenario("floodmax", 3, 1, inputs=(1, 0, 0))
        trace = run(sc, factory_of("floodmax"))
        assert sorted(decisions(trace)) == [1, 2, 3]
        assert all(ds[0][2] == 2 for ds in decisions(trace).values())

    def test_two_processes_no_crash_adopt_max(self):
        res = explore_ok("floodmax", 2, 1, (0, 1))
        assert res.violation_count == 0
        assert {profile for profile in res.terminal_profiles if profile[1] == ()} == {((1, 1), ())}

    def test_two_processes_with_crashes_agree(self):
        res = explore_ok("floodmax", 2, 1, (0, 1))
        assert res.violation_count == 0

    def test_three_processes_two_crashes_agree(self):
        # survivors agree in every schedule, including partial-broadcast
        # crashes of the value-1 holder
        res = explore_ok("floodmax", 3, 2, (0, 0, 1))
        assert res.violation_count == 0
        assert res.terminals > 100

    def test_consensus_checks_pass_on_random_runs(self):
        for seed in range(30):
            sc = scenario("floodmax", 4, 3, inputs=(0, 1, 1, 0), crashes={2: 20, 4: 50},
                          behavior="adversarial", convergence=90, policy="random", seed=seed)
            trace = run(sc, factory_of("floodmax"))
            assert not trace.truncated
            assert all(not r.failed for r in check_consensus(trace))
            assert all(not r.failed for r in check_lemma_invariants(trace))


class TestLockMin:
    def test_unanimous_inputs_decide_in_first_round(self):
        sc = scenario("lockmin", 3, 1, inputs=(1, 1, 1))
        trace = run(sc, factory_of("lockmin"))
        assert all(ds[0][1] == 1 and ds[0][2] == 0 for ds in decisions(trace).values())
        assert sorted(halts(trace)) == [1, 2, 3]

    def test_decider_halts_after_farewell_lock(self):
        # a decided process re-broadcasts one more proposal and lock in the
        # next round, then stops
        sc = scenario("lockmin", 3, 1, inputs=(1, 1, 1))
        trace = run(sc, factory_of("lockmin"))
        for p, halt_step in halts(trace).items():
            own_sends = [ev for ev in trace.events if ev["ev"] == "send" and ev["proc"] == p]
            assert own_sends[-1]["payload"] == ("Lock", 1, 1, 1)
            assert own_sends[-1]["step"] == halt_step

    def test_min_rules_without_crashes(self):
        res = explore_ok("lockmin", 3, 1, (0, 1, 1))
        assert res.violation_count == 0
        assert {profile[0] for profile in res.terminal_profiles if profile[1] == ()} == {(0, 0, 0)}

    def test_exhaustive_with_crashes(self):
        res = explore_ok("lockmin", 3, 1, (0, 1, 1))
        assert res.violation_count == 0

    def test_majority_precondition_rejected(self):
        from anonsim.cli import normalize_scenario

        sc = scenario("floodmax", 3, 2, inputs=(0, 1, 1))
        from dataclasses import replace

        bad = replace(sc, algorithm="lockmin", oracle_kind="eventual-crash-count")
        with pytest.raises(Exception):
            normalize_scenario(bad)  # n <= 2f

    def test_adversarial_runs_decide_after_convergence(self):
        for seed in range(20):
            sc = scenario("lockmin", 5, 2, inputs=(0, 1, 0, 1, 1), crashes={2: 30, 4: 60},
                          behavior="adversarial", convergence=150, policy="random",
                          seed=seed, horizon=1500)
            trace = run(sc, factory_of("lockmin"))
            assert not trace.truncated
            assert all(not r.failed for r in check_consensus(trace))
            assert all(not r.failed for r in check_lemma_invariants(trace))
            assert min(step for step, _, _ in
                       (ds[0] for ds in decisions(trace).values())) >= 150


class TestLeaderVote:
    def test_stable_leader_equal_inputs(self):
        sc = scenario("leadervote", 3, 1, inputs=(1, 1, 1))
        trace = run(sc, factory_of("leadervote"))
        assert sorted(decisions(trace)) == [1, 2, 3]
        assert all(ds[0][1] == 1 for ds in decisions(trace).values())

    def test_blocked_until_self_trust_appears(self):
        # nobody trusts itself before convergence and no leader message
        # exists, so the first wait holds everyone back
        sc = scenario("leadervote", 3, 1, inputs=(0, 1, 1), behavior="pessimistic",
                      convergence=120, policy="random", seed=4, horizon=900)
        trace = run(sc, factory_of("leadervote"))
        assert not trace.truncated
        reports = [ev for ev in trace.events if ev["ev"] == "send" and ev["payload"][0] == "Report"]
        assert reports and min(ev["step"] for ev in reports) >= 120
        assert all(not r.failed for r in check_consensus(trace))

    def test_decide_forwarded_once_per_process(self):
        sc = scenario("leadervote", 3, 1, inputs=(0, 1, 0))
        trace = run(sc, factory_of("leadervote"))
        for p in (1, 2, 3):
            forwards = [
                ev for ev in trace.events
                if ev["ev"] == "send" and ev["proc"] == p and ev["payload"][0] == "Decide"
            ]
            assert len(forwards) <= 2  # original broadcast plus one relay

    def test_adversarial_runs_agree(self):
        for seed in range(20):
            sc = scenario("leadervote", 5, 2, inputs=(0, 1, 0, 1, 1), crashes={3: 40, 5: 90},
                          behavior="adversarial", convergence=150, policy="random",
                          seed=seed, horizon=1500)
            trace = run(sc, factory_of("leadervote"))
            assert not trace.truncated
            assert all(not r.failed for r in check_consensus(trace))
            assert all(not r.failed for r in check_lemma_invariants(trace))

    # a halted process keeps only its decision, and the Vote value lives only
    # in its message, so states that no later move tells apart merge; the
    # terminal profiles are those of the unmerged search
    AGREED = ((0, 0, 0), ()), ((0, 0, None), (3,)), ((0, None, 0), (2,)), ((None, 0, 0), (1,))

    @pytest.mark.parametrize("inputs, counts, profiles", [
        ((0, 0, 1), (46308, 11133), {*AGREED}),
        ((0, 1, 1), (63984, 11615), {*AGREED, ((None, 1, 1), (1,))}),
    ])
    def test_halted_processes_keep_only_their_decision(self, inputs, counts, profiles):
        res = explore_ok("leadervote", 3, 1, inputs)
        assert res.violation_count == 0
        assert (res.states, res.terminals) == counts
        assert set(res.terminal_profiles) == profiles


class TestAllBinaryInputs:
    @pytest.mark.parametrize("inputs", list(itertools.product((0, 1), repeat=2)))
    def test_floodmax_n2_exhaustive(self, inputs):
        res = explore_ok("floodmax", 2, 1, inputs)
        assert res.violation_count == 0
