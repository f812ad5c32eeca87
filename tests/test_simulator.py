"""Engine-level behavior: determinism, reliability, crash semantics, explore."""

import pytest
from helpers import factory_of, scenario
from pins import EXPLORE_JOBS, EXPLORE_SHA256, explore_digest

from anonsim import (
    LiveOracle,
    Permutation,
    ScenarioError,
    Trace,
    anonymous_receive,
    explore,
    run,
    run_schedule,
)
from anonsim.simulator import Inbox
from anonsim.verify import monitor_for


class TestInbox:
    def test_future_round_buffered_until_reached(self):
        box = Inbox()
        box.advance(1)
        box.deliver(2, ("Propose", 3, 1), 3)
        assert box.payloads(1) == []
        assert box.payloads(3) == [("Propose", 3, 1)]

    def test_past_round_discarded(self):
        box = Inbox()
        box.deliver(2, ("Propose", 1, 0), 1)
        box.advance(2)
        assert box.payloads(1) == []
        box.deliver(2, ("Propose", 1, 1), 1)  # late arrival for a left round
        assert box.payloads(1) == []

    def test_untagged_always_visible(self):
        box = Inbox()
        box.deliver(2, ("Decide", 1), None)
        box.advance(5)
        assert box.untagged_payloads() == [("Decide", 1)]

    def test_senders_filtered_by_tag(self):
        box = Inbox()
        box.deliver(2, ("ALIVE", 1), 1)
        box.deliver(3, ("Other", 1), 1)
        assert box.senders(1, "ALIVE") == [2]


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["fifo", "random", "crash-adjacent"])
    def test_same_seed_same_trace(self, policy):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), crashes={2: 25},
                      behavior="adversarial", convergence=60, policy=policy, seed=9)
        a = run(sc, factory_of("lockmin"))
        b = run(sc, factory_of("lockmin"))
        assert a.events == b.events
        assert a.to_jsonl() == b.to_jsonl()

    def test_different_seed_random_policy_differs(self):
        a = run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=1),
                factory_of("lockmin"))
        b = run(scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=2),
                factory_of("lockmin"))
        assert a.events != b.events


class TestRunSemantics:
    def test_single_process_decides_own_input(self):
        sc = scenario("floodmax", 1, 0, inputs=(1,))
        trace = run(sc, factory_of("floodmax"))
        decides = [ev for ev in trace.events if ev["ev"] == "decide"]
        assert len(decides) == 1 and decides[0]["value"] == 1
        assert not trace.truncated

    def test_self_delivery_immediate(self):
        sc = scenario("floodmax", 2, 0, inputs=(0, 1))
        trace = run(sc, factory_of("floodmax"))
        for ev in trace.events:
            if ev["ev"] == "send":
                own = [
                    e for e in trace.events
                    if e["ev"] == "deliver" and e["proc"] == ev["proc"]
                    and e["from"] == ev["proc"] and e["payload"] == ev["payload"]
                    and e["step"] == ev["step"]
                ]
                assert own, f"no immediate self-delivery for {ev}"

    def test_reliability_crash_free(self):
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 0), policy="random", seed=4)
        trace = run(sc, factory_of("floodmax"))
        assert not trace.truncated
        sent = trace.sends()
        for p in (1, 2, 3):
            assert trace.received(p) == sent

    def test_no_events_after_crash(self):
        sc = scenario("floodmax", 3, 2, inputs=(1, 0, 1), crashes={2: 7}, policy="random", seed=3)
        trace = run(sc, factory_of("floodmax"))
        crash_step = trace.crashes[2]
        for ev in trace.events:
            if ev["proc"] == 2 and ev["ev"] in ("send", "decide", "round", "halt"):
                assert ev["step"] < crash_step

    def test_posthumous_messages_still_deliverable(self):
        sc = scenario("floodmax", 3, 2, inputs=(1, 0, 1), crashes={2: 6},
                      policy="crash-adjacent", seed=3)
        trace = run(sc, factory_of("floodmax"))
        crash_step = trace.crashes[2]
        late = [
            ev for ev in trace.events
            if ev["ev"] == "deliver" and ev["from"] == 2 and ev["proc"] != 2
            and ev["step"] >= crash_step
        ]
        assert late, "expected a post-crash delivery from the crashed sender"

    def test_truncation_flagged(self):
        # one crashed sender and an oracle claiming everyone alive until step
        # 90 of 100: the proposal waits cannot clear before the horizon
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), crashes={3: 5},
                      behavior="adversarial", convergence=90, horizon=100,
                      policy="random", seed=1)
        trace = run(sc, factory_of("lockmin"))
        assert trace.truncated
        assert trace.pending >= 0

    def test_trace_jsonl_round_trip(self):
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 0), crashes={3: 9}, seed=2)
        trace = run(sc, factory_of("floodmax"))
        again = Trace.from_jsonl(trace.to_jsonl())
        assert again.events == trace.events
        assert again.decisions == trace.decisions
        assert again.crashes == trace.crashes
        assert again.halts == trace.halts
        assert again.truncated == trace.truncated

    def test_decide_round_matches_round_bound(self):
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 0))
        trace = run(sc, factory_of("floodmax"))
        assert all(ds[0][2] == 2 for ds in trace.decisions.values())  # f+1 rounds


class TestAnonymityOfRuns:
    def test_received_multisets_invariant_under_relabelling(self):
        # run the same crash-free exchange with roles relabelled; every
        # process's per-run received multiset is the full broadcast multiset
        # either way, so the relabelled run is indistinguishable
        pi = Permutation.cycle(3, (1, 2, 3))
        base = scenario("floodmax", 3, 0, inputs=(0, 1, 1), seed=5)
        moved = scenario("floodmax", 3, 0, inputs=tuple((0, 1, 1)[pi(p) - 1] for p in (1, 2, 3)), seed=5)
        a = run(base, factory_of("floodmax"))
        b = run(moved, factory_of("floodmax"))
        for p in (1, 2, 3):
            assert a.received(p) == b.received(p) == a.sends()

    def test_receive_log_hides_senders(self):
        sc = scenario("floodmax", 3, 0, inputs=(0, 1, 1), seed=5)
        trace = run(sc, factory_of("floodmax"))
        log = trace.receive_log()
        slot = next((r, s, t) for (r, s, t) in log.values if s != r)
        receiver, sender, step = slot
        other = next(p for p in (1, 2, 3) if p not in (sender,))
        pi = Permutation.swap(3, sender, other)
        assert anonymous_receive(log, pi, receiver, other, step) == log.values[slot]


class TestExplore:
    def test_single_process_single_schedule(self):
        sc = scenario("floodmax", 1, 0, inputs=(1,))
        res = explore(sc, factory_of("floodmax"))
        assert res.terminals == 1 and res.violation_count == 0

    def test_all_schedules_decide_max(self):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        res = explore(sc, factory_of("floodmax"),
                      monitor=monitor_for("floodmax", 2, 1, (0, 1)), max_crashes=0)
        assert res.violation_count == 0
        assert set(res.terminal_profiles) == {((1, 1), ())}

    def test_crash_placements_enumerated(self):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 2, 1, (0, 1)))
        assert res.violation_count == 0
        crashed_sets = {profile[1] for profile in res.terminal_profiles}
        assert crashed_sets == {(), (1,), (2,)}

    def test_work_counted(self):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1))
        res = explore(sc, factory_of("lockmin"), monitor=monitor_for("lockmin", 3, 1, (0, 1, 1)), max_crashes=0)
        assert res.states - 1 <= res.children
        assert 1 <= res.peak_frontier <= res.states
        single = explore(scenario("floodmax", 1, 0, inputs=(1,)), factory_of("floodmax"))
        assert (single.states, single.children, single.peak_frontier) == (2, 1, 1)

    def test_results_pinned(self):
        # states, terminals, profiles, violations and witness schedules of
        # small jobs of every explorable algorithm and mutant
        assert explore_digest() == (EXPLORE_JOBS, EXPLORE_SHA256)

    @pytest.mark.parametrize("budget", [1, 2, 50])
    def test_budget_flagged(self, budget):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1))
        res = explore(sc, factory_of("lockmin"),
                      monitor=monitor_for("lockmin", 3, 1, (0, 1, 1)), max_states=budget)
        assert res.partial and res.states == budget

    def test_nonempty_pattern_rejected(self):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1), crashes={2: 3})
        with pytest.raises(ScenarioError):
            explore(sc, factory_of("floodmax"))

    def test_size_guard(self):
        sc = scenario("floodmax", 4, 1, inputs=(0, 1, 1, 0))
        with pytest.raises(ScenarioError):
            explore(sc, factory_of("floodmax"))


class TestReplay:
    def test_schedule_replays_to_full_trace(self):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        schedule = [
            ("wake", 1),
            ("wake", 2),
            ("crash", 2),
            ("deliver", 1, 2, ("Propose", 1, 1), 1),
            ("poll", 1),
            ("poll", 1),
        ]
        trace = run_schedule(sc, factory_of("floodmax"), schedule)
        assert trace.crashes == {2: 2}
        # round 1 evaluated after the posthumous delivery: the 1 was counted
        assert trace.decisions[1][0][1] == 1
        assert not trace.truncated

    @pytest.mark.parametrize("action", [
        ("deliver", 1, 2, ("Propose", 1, 1), 1),  # nothing is pending yet
        ("poll", 3),
        ("crash", 0),
    ])
    def test_bad_action_rejected(self, action):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        with pytest.raises(ScenarioError):
            run_schedule(sc, factory_of("floodmax"), [("wake", 1), action])

    def test_live_oracle_tracks_crashes(self):
        oracle = LiveOracle("crash-count", 3)
        assert oracle.read(1, 0, frozenset()) == 0
        assert oracle.read(1, 5, frozenset({2, 3})) == 2
