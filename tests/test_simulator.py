"""Engine-level behavior: determinism, reliability, crash semantics, explore."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, fields, replace

import mutants
import pytest
from helpers import (
    campaign_scenario, cycle, decisions, factory_of, halts, receive_log, received, scenario, selftrust_scenario, sends,
    swap,
)
from pins import (
    EXPLORE_COUNTS, EXPLORE_JOBS, EXPLORE_SHA256, campaign_traces, dumped, explore_digest, explore_jobs, policy_traces,
)

from anonsim import (
    FailurePattern,
    LiveOracle,
    ScenarioConfig,
    ScenarioError,
    Trace,
    anonymous_receive,
    consensus,
    explore,
    run,
    run_schedule,
    simulator,
    transforms,
)
from anonsim.cli import ALGORITHMS, explore_crash_limit
from anonsim.simulator import (
    MAX_TABLE_CELLS, POLICIES, _MONITOR, _WOKEN, Automaton, Inbox, NullMonitor, Simulation, _XEngine, _XState,
)
from anonsim.verify import check_trace, monitor_for

# the fields that stay constant through a run of one process
CONSTANTS = ("n", "f", "proc", "rounds_cap", "ticks_cap")


def automaton_classes() -> list[type]:
    """Every public automaton class of the protocol, emulation and mutant modules."""
    return sorted(
        (obj for module in (consensus, transforms, mutants) for obj in vars(module).values()
         if isinstance(obj, type) and issubclass(obj, Automaton)
         and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")),
        key=lambda cls: cls.__name__,
    )


def factory_built() -> dict[type, Automaton]:
    """Process 1's automaton from every algorithm's and mutant's factory, at n=3 f=1."""
    factories = [(name, info.factory) for name, info in ALGORITHMS.items()]
    factories += [(name, factory) for name, _, factory in mutants.MUTANTS.values()]
    built = (factory(scenario(name, 3, 1, rounds=5), 1) for name, factory in factories)
    return {type(automaton): automaton for automaton in built}


@dataclass
class Gossip(Automaton):
    """A toy protocol whose halting leaves its key unchanged: a process
    broadcasts when woken and again once it has heard two messages, its own
    included, takes a silent step at four, and halts at five, with its
    fields as they were."""

    stage: int = 0

    def on_poll(self, ctx) -> bool:
        if len(ctx.untagged("M")) < (0, 2, 4, 5)[self.stage]:
            return False
        if self.stage == 3:
            ctx.halt()
            return True
        if self.stage < 2:
            ctx.broadcast(("M",))
        self.stage += 1
        return True


class Recorder(NullMonitor):
    """A monitor whose key holds what its send hook read: the first sender
    of the run, which no automaton records, and every automaton at the
    latest send."""

    first: int | None = None
    peers: tuple = ()

    def key(self) -> tuple:
        return (self.first, self.peers)

    def on_send(self, state, p, payload) -> None:
        self.first = p if self.first is None else self.first
        self.peers = tuple(state.automata[q].key() for q in sorted(state.automata))


@dataclass
class Twins(Automaton):
    """A toy protocol that broadcasts ("v", 1) and then ("v", True), payloads
    that compare equal but differ in type, and halts once it has heard both
    of every process's."""

    sent: bool = False

    def on_poll(self, ctx) -> bool:
        if not self.sent:
            ctx.broadcast(("v", 1))
            ctx.broadcast(("v", True))
            self.sent = True
            return True
        if len(ctx.untagged("v")) < 2 * self.n:
            return False
        ctx.halt()
        return True


@dataclass
class Waiter(Automaton):
    """A toy protocol that never decides: a woken process broadcasts once
    and then blocks forever, undecided and unhalted."""

    sent: bool = False

    def on_poll(self, ctx) -> bool:
        if self.sent:
            return False
        ctx.broadcast(("hi",))
        self.sent = True
        return True


class EveryTerminal(NullMonitor):
    """A monitor that fails every terminal state, so that each has a witness."""

    def terminal_checks(self, state) -> list[tuple[str, list]]:
        return [("reached: a terminal state", [])]


# a monitor's check -> the trace check that fails on its witness's replay
TRACE_PROPS = {"completeness": "target-validity"}


class TestInbox:
    def test_future_round_buffered_until_reached(self):
        box = Inbox()
        box.advance(1)
        box.deliver(2, ("Propose", 3, 1), 3)
        assert box.payloads(1, "Propose") == []
        assert box.payloads(3, "Propose") == [("Propose", 3, 1)]

    def test_past_round_discarded(self):
        box = Inbox()
        box.deliver(2, ("Propose", 1, 0), 1)
        box.advance(2)
        assert box.payloads(1, "Propose") == []
        box.deliver(2, ("Propose", 1, 1), 1)  # late arrival for a left round
        assert box.payloads(1, "Propose") == []

    def test_untagged_always_visible(self):
        box = Inbox()
        box.deliver(2, ("Decide", 1), None)
        box.advance(5)
        assert box.untagged_payloads("Decide") == [("Decide", 1)]

    def test_senders_filtered_by_tag(self):
        # a round's senders and payloads, and the untagged payloads, are read
        # one tag at a time
        box = Inbox()
        box.deliver(2, ("ALIVE", 1), 1)
        box.deliver(3, ("Other", 1), 1)
        box.deliver(1, ("ALIVE", 1, 7), 1)
        box.deliver(3, ("Decide", 0), None)
        box.deliver(2, ("Claim", 2), None)
        box.deliver(1, ("Decide", 1), None)
        assert box.senders(1, "ALIVE") == [2, 1]
        assert box.payloads(1, "ALIVE") == [("ALIVE", 1), ("ALIVE", 1, 7)]
        assert box.payloads(1, "Other") == [("Other", 1)] and box.payloads(1, "Decide") == []
        assert box.untagged_payloads("Decide") == [("Decide", 0), ("Decide", 1)]
        assert box.untagged_payloads("Claim") == [("Claim", 2)] and box.untagged_payloads("ALIVE") == []


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

    def test_random_policy_draws_as_random_does(self, monkeypatch):
        # `_random` draws its pick inline; before each pick a twin generator
        # takes the scheduler's state (its seed string at the first pick), and
        # the pick must be the twin's `choice` of the choice list, a deliver's
        # index the twin's `randrange` of the pending count, with both
        # generators in one state afterwards
        pick = POLICIES["random"]
        picks = []

        def checked(sim):
            twin = random.Random(f"{sim.scenario.seed}/sched")
            if sim.rng is not None:
                twin.setstate(sim.rng.getstate())
            [action] = pick(sim)
            expected = twin.choice(sim.choices)
            if expected[0] == "deliver":
                expected += (twin.randrange(len(sim.pending[expected[1]])),)
            assert action == expected
            assert sim.rng.getstate() == twin.getstate()
            picks.append(action)
            return [action]

        runs = [(campaign_scenario(algorithm, seed), factory_of(algorithm))
                for algorithm in ("floodmax", "lockmin", "leadervote") for seed in range(5)]
        texts = [run(sc, factory).to_jsonl() for sc, factory in runs]
        monkeypatch.setitem(POLICIES, "random", checked)
        for (sc, factory), text in zip(runs, texts):
            assert run(sc, factory).to_jsonl() == text
        assert len(picks) == 2110
        assert {action[0] for action in picks} == {"deliver", "poll"}

    def test_process_generators_seeded_only_when_drawn(self, monkeypatch):
        # only the randomized construction's factory seeds a generator for a
        # process, from "{seed}/proc/{p}", since only it draws; no other
        # automaton gets one.  The scheduler's, from "{seed}/sched", is seeded
        # at its first draw, and only the random policy draws
        seeded = []
        seed = random.Random.seed

        def recorded(rng, a=None, version=2):
            seeded.append(a)
            seed(rng, a, version)

        monkeypatch.setattr(random.Random, "seed", recorded)
        run(scenario("floodmax", 3, 1, inputs=(0, 1, 1), policy="random", seed=4), factory_of("floodmax"))
        explore(scenario("floodmax", 2, 1, inputs=(0, 1)), factory_of("floodmax"))
        assert [a for a in seeded if "/sched" in str(a)] == ["4/sched"]
        assert not [a for a in seeded if "/proc/" in str(a)]
        seeded.clear()
        run(scenario("floodmax", 3, 1, inputs=(0, 1, 1), seed=4), factory_of("floodmax"))
        run(scenario("floodmax", 3, 1, inputs=(0, 1, 1), policy="crash-adjacent", crashes={3: 2}, seed=4),
            factory_of("floodmax"))
        run_schedule(scenario("floodmax", 2, 1, inputs=(0, 1)), factory_of("floodmax"), [("wake", 1), ("wake", 2)])
        assert not [a for a in seeded if "/sched" in str(a) or "/proc/" in str(a)]
        run(selftrust_scenario(3), factory_of("random-selftrust"))
        assert sorted(a for a in seeded if "/proc/" in str(a)) == [f"3/proc/{p}" for p in range(1, 6)]


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
        sent = sends(trace)
        for p in (1, 2, 3):
            assert received(trace, p) == sent

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
        assert decisions(again) == decisions(trace)
        assert again.crashes == trace.crashes
        assert halts(again) == halts(trace)
        assert again.truncated == trace.truncated

    def test_oracle_table_cells_capped(self):
        # every run draws its oracle table whole: n x (horizon + 1) cells
        assert MAX_TABLE_CELLS == 1 << 20
        for n, f in ((1, 0), (3, 1), (4, 2)):
            largest = MAX_TABLE_CELLS // n - 1
            assert n * (largest + 1) <= MAX_TABLE_CELLS < n * (largest + 2)
            scenario("floodmax", n, f, horizon=largest)
            with pytest.raises(ScenarioError, match="above the cap"):
                scenario("floodmax", n, f, horizon=largest + 1)
        # default horizons, 50 x (f + 2) x n steps, fit up to n=27 at f = n - 1
        assert scenario("floodmax", 27, 26).effective_horizon == 37_800
        with pytest.raises(ScenarioError, match="above the cap"):
            scenario("floodmax", 28, 27)

    def test_to_jsonl_is_json_dumps_with_sorted_keys(self):
        # to_jsonl memoizes encoded values by identity; equal values of other
        # types ((v, 1) and (v, True), 0 and False) must each keep their own
        # text, and a payload shared by a send and its deliveries is one object
        shared = ("v", 1)
        events = [
            {"step": 0, "ev": "send", "proc": 1, "payload": shared},
            {"step": 0, "ev": "deliver", "proc": 1, "from": 1, "payload": shared},
            {"step": 1, "ev": "deliver", "proc": 2, "from": 1, "payload": shared},
            {"step": 2, "ev": "send", "proc": 2, "payload": ("v", True)},
            {"step": 3, "ev": "send", "proc": 3, "payload": tuple(["v", 1])},
            {"step": 4, "ev": "deliver", "proc": 3, "from": 2, "payload": ("v", True)},
            {"step": 5, "ev": "oracle", "proc": 1, "value": 0},
            {"step": 6, "ev": "oracle", "proc": 2, "value": False},
            {"step": 7, "ev": "oracle", "proc": 3, "value": None},
            {"step": 8, "ev": "output", "proc": 1, "value": 'say "hi" \\ caf\u00e9 \u2603 \U0001f600\n'},
            {"step": 9, "ev": "send", "proc": 1, "payload": ("Propose", (2, (None, ("x", 1.5))), True)},
            {"step": 10, "ev": "round", "proc": 2, "r": 3, "v": 1, "locked": False, "est": [0, {"b": 1, "a": "\\"}]},
            {"step": 11, "ev": "decide", "proc": 2, "value": 1, "r": 3},
            {"step": 12, "ev": "crash", "proc": 3},
            # every kind in the shape the engine writes it
            {"step": 13, "ev": "send", "proc": 1, "payload": ("Propose", 2, 0)},
            {"step": 13, "ev": "deliver", "proc": 1, "from": 1, "payload": ("Propose", 2, 0)},
            {"step": 14, "ev": "oracle", "proc": 2, "value": 1},
            {"step": 15, "ev": "round", "proc": 2, "r": 2, "v": 0},
            {"step": 16, "ev": "round", "proc": 4, "r": 5},
            {"step": 17, "ev": "decide", "proc": 2, "value": 0, "r": 2},
            {"step": 18, "ev": "halt", "proc": 2},
            {"step": 19, "ev": "output", "proc": 4, "value": [1, 3]},
            {"step": 20, "ev": "crash", "proc": 4},
            # extra and missing keys, True or None where an int goes, and
            # snapshot keys on a round
            {"step": 21, "ev": "send", "proc": 1, "payload": ("x",), "extra": 1},
            {"step": 21, "ev": "halt", "proc": 1, "payload": ("x",)},
            {"step": 22, "ev": "deliver", "proc": 1, "payload": ("x",)},
            {"step": 22, "ev": "deliver", "proc": 1, "from": 2, "payload": ("x",), "r": 1},
            {"step": 22, "ev": "send", "proc": 1},
            {"step": 22, "ev": "crash", "proc": 2, "step_": 22},
            {"step": 23, "ev": "oracle", "proc": 1, "r": 1},
            {"step": 23, "ev": "send", "proc": True, "payload": ("x",)},
            {"step": True, "ev": "halt", "proc": 1},
            {"step": 24, "ev": "deliver", "proc": 1, "from": None, "payload": ("x",)},
            {"step": 24, "ev": "decide", "proc": 1, "value": 1, "r": True},
            {"step": 25, "ev": "round", "proc": 1, "r": None, "v": 0},
            {"step": 25, "ev": "round", "proc": 1, "r": 2, "v": 0, "lock": None},
            {"step": 25, "ev": "round", "proc": 1, "r": 2, "lock": 1},
            {"step": 26, "ev": "unknown", "proc": 1},
            {"step": 26, "ev": ["send"], "proc": 1, "payload": ("x",)},
        ]
        trace = Trace(scenario=scenario("floodmax", 3, 1), events=events, truncated=True, pending=2)
        lines = [{"ev": "meta", "scenario": trace.scenario.to_dict()}, *events,
                 {"ev": "end", "truncated": True, "pending": 2}]
        assert trace.to_jsonl() == "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in lines)

    def test_pinned_traces_are_json_dumps_line_by_line(self):
        for name, trace in [*campaign_traces(), *policy_traces()]:
            assert trace.to_jsonl().splitlines() == dumped(trace).splitlines(), name

    def test_decide_round_matches_round_bound(self):
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 0))
        trace = run(sc, factory_of("floodmax"))
        assert all(ds[0][2] == 2 for ds in decisions(trace).values())  # f+1 rounds


class TestKeptSchedulerState:
    # two processes crashing at one step: the trace bytes of each policy, as
    # computed when the crashes were still found by scanning the pattern
    SAME_STEP_SHA256 = {
        "fifo": "046d09148ae6345403cc456b865ff0ef50b8cfab009c1ce9e202bed44f26374e",
        "random": "7a9678abf3b7051ded8475d9f7c71ad219db2c2faed676c8c9a152280f89d061",
    }

    @pytest.mark.parametrize("policy", ["fifo", "random", "crash-adjacent"])
    def test_live_list_and_settle_test_match_a_recomputation(self, monkeypatch, policy):
        # after every action, `live` is the live, unhalted processes in index
        # order; at every step, `_settled` is all_decided over the live
        # processes, nothing pending to a live process and no live process
        # that can progress
        runs = []
        for algorithm in ("floodmax", "lockmin", "leadervote", "stable-suspector"):
            info = ALGORITHMS[algorithm]
            kwargs = {"inputs": (0, 1, 0, 1, 1)} if info.consensus else {"rounds": 5}
            for crashes in ({1: 0}, {3: 17}, {2: 9, 4: 9}):  # at step 0, mid-run, two at one step
                sc = scenario(algorithm, 5, 2, crashes=crashes, behavior="adversarial", convergence=40,
                              policy=policy, seed=5, **kwargs)
                runs.append((sc, info.factory, run(sc, info.factory).to_jsonl()))
        apply, settled = Simulation.apply, Simulation._settled
        probed = []  # per settle test: whether it got past every live process deciding

        def recomputed(sim):
            return [p for p in sim.cfg.processes if p not in sim.crashed | sim.halted]

        def checked_apply(sim, action):
            apply(sim, action)
            assert sim.live == recomputed(sim)

        def checked_settled(sim):
            live = recomputed(sim)
            assert sim.live == live
            decided = sim.all_decided(live)
            expected = (decided and not any(sim.pending[p] for p in live)
                        and not any(sim.can_progress(p) for p in live))
            probed.append(decided and bool(live))
            assert settled(sim) == expected
            return expected

        monkeypatch.setattr(Simulation, "apply", checked_apply)
        monkeypatch.setattr(Simulation, "_settled", checked_settled)
        for sc, factory, text in runs:
            trace = run(sc, factory)
            assert trace.to_jsonl() == text
            assert trace.crashes == dict(sc.pattern.crash_steps) and halts(trace) and not trace.truncated
        assert any(probed)

    def test_kept_choice_list_matches_a_rebuild(self, monkeypatch):
        # after every action, the random policy's kept choice list is either
        # stale (None) or what `_random` would build from scratch
        apply = Simulation.apply
        kept = []  # per action: whether the list was kept through it

        def rebuilt(sim):
            live = [p for p in sim.cfg.processes if p not in sim.crashed | sim.halted]
            return [action for p in live for action in ([("deliver", p)] if sim.pending[p] else []) + [("poll", p)]]

        def checked_apply(sim, action):
            apply(sim, action)
            kept.append(sim.choices is not None)
            assert sim.choices is None or sim.choices == rebuilt(sim)

        runs = []
        for algorithm in ("floodmax", "lockmin", "leadervote", "stable-suspector"):
            info = ALGORITHMS[algorithm]
            kwargs = {"inputs": (0, 1, 0, 1, 1)} if info.consensus else {"rounds": 5}
            for crashes in ({1: 0}, {3: 17}, {2: 9, 4: 9}):  # at step 0, mid-run, two at one step
                sc = scenario(algorithm, 5, 2, crashes=crashes, behavior="adversarial", convergence=40,
                              policy="random", seed=5, **kwargs)
                runs.append((sc, info.factory, run(sc, info.factory).to_jsonl()))
        monkeypatch.setattr(Simulation, "apply", checked_apply)
        for sc, factory, text in runs:
            trace = run(sc, factory)
            assert trace.to_jsonl() == text
            assert trace.crashes == dict(sc.pattern.crash_steps) and halts(trace)
        assert any(kept) and not all(kept)

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_crashes_at_one_step_in_process_order(self, policy):
        sc = scenario("lockmin", 5, 2, inputs=(0, 1, 0, 1, 1), crashes={4: 11, 2: 11},
                      behavior="adversarial", convergence=40, policy=policy, seed=3)
        trace = run(sc, factory_of("lockmin"))
        crashes = [i for i, ev in enumerate(trace.events) if ev["ev"] == "crash"]
        assert [(trace.events[i]["step"], trace.events[i]["proc"]) for i in crashes] == [(11, 2), (11, 4)]
        assert crashes[1] == crashes[0] + 1
        assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == self.SAME_STEP_SHA256[policy]


class TestAnonymityOfRuns:
    def test_received_multisets_invariant_under_relabelling(self):
        # run the same crash-free exchange with roles relabelled; every
        # process's per-run received multiset is the full broadcast multiset
        # either way, so the relabelled run is indistinguishable
        pi = cycle(3, (1, 2, 3))
        base = scenario("floodmax", 3, 0, inputs=(0, 1, 1), seed=5)
        moved = scenario("floodmax", 3, 0, inputs=tuple((0, 1, 1)[pi(p) - 1] for p in (1, 2, 3)), seed=5)
        a = run(base, factory_of("floodmax"))
        b = run(moved, factory_of("floodmax"))
        for p in (1, 2, 3):
            assert received(a, p) == received(b, p) == sends(a)

    def test_receive_log_hides_senders(self):
        sc = scenario("floodmax", 3, 0, inputs=(0, 1, 1), seed=5)
        trace = run(sc, factory_of("floodmax"))
        log = receive_log(trace)
        slot = next((r, s, t) for (r, s, t) in log.values if s != r)
        receiver, sender, step = slot
        other = next(p for p in (1, 2, 3) if p not in (sender,))
        pi = swap(3, sender, other)
        assert anonymous_receive(log, pi, receiver, other, step) == log.values[slot]


class TestAutomatonKey:
    @pytest.mark.parametrize("cls", automaton_classes(), ids=lambda cls: cls.__name__)
    def test_key_covers_the_state_and_only_the_state(self, cls):
        # explore merges states whose automata have equal keys: a field left
        # out of the key would merge distinct states, and a constant in it
        # (proc above all) would keep apart states that symmetry could merge
        automaton = factory_built()[cls]
        for name in (f.name for f in fields(automaton)):
            changed = automaton.copy()
            setattr(changed, name, object())
            assert (changed.key() == automaton.key()) == (name in CONSTANTS), name


class TestExplore:
    def test_single_process_single_schedule(self):
        sc = scenario("floodmax", 1, 0, inputs=(1,))
        res = explore(sc, factory_of("floodmax"))
        assert res.terminals == 1 and res.violation_count == 0

    def test_all_schedules_decide_max(self):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 2, 1, (0, 1)))
        assert res.violation_count == 0
        assert {profile for profile in res.terminal_profiles if profile[1] == ()} == {((1, 1), ())}

    def test_crash_placements_enumerated(self):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 2, 1, (0, 1)))
        assert res.violation_count == 0
        crashed_sets = {profile[1] for profile in res.terminal_profiles}
        assert crashed_sets == {(), (1,), (2,)}

    def test_work_counted(self):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1))
        res = explore(sc, factory_of("lockmin"), monitor=monitor_for("lockmin", 3, 1, (0, 1, 1)))
        assert res.states - 1 <= res.children
        assert 1 <= res.peak_frontier <= res.states
        single = explore(scenario("floodmax", 1, 0, inputs=(1,)), factory_of("floodmax"))
        assert (single.states, single.children, single.peak_frontier) == (2, 1, 1)

    def test_depth(self):
        # the two states of n=1 are joined by one wake
        single = explore(scenario("floodmax", 1, 0, inputs=(1,)), factory_of("floodmax"))
        assert single.depth == 1
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 2, 1, (0, 1)))
        assert (res.states, res.depth) == (92, 8)
        assert explore(sc, factory_of("floodmax"), max_states=1).depth == 0

    def test_visited_deliveries_skipped_unbuilt(self, monkeypatch):
        # a child of any action, a delivery, a crash, a wake or a poll, whose
        # key, derived from its parent's, was visited is counted but never
        # cloned, built or keyed: only new states are cloned
        clones = Counter()
        clone, key = _XState.clone, _XState.key

        def counted_clone(st, *args):
            clones["state"] += 1
            return clone(st, *args)

        def counted_key(st):
            clones["keyed"] += 1
            return key(st)

        monkeypatch.setattr(_XState, "clone", counted_clone)
        monkeypatch.setattr(_XState, "key", counted_key)
        for sc, counts in [(scenario("floodmax", 3, 0, inputs=(0, 0, 1)), (157, 442, 286)),
                           (scenario("floodmax", 2, 1, inputs=(0, 1)), (92, 146, 55))]:
            clones.clear()
            res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", sc.cfg.n, sc.cfg.f, sc.inputs))
            assert (res.states, res.children, res.skipped) == counts
            assert clones["state"] == res.children - res.skipped == res.states - 1 == clones["keyed"] - 1

    def test_only_new_states_built(self, monkeypatch):
        # explore builds exactly the states it finds new: it clones one state
        # per state after the initial one, which is why `skipped` can be the
        # children less those states, also when the search ends at the state
        # budget
        clones = Counter()
        clone = _XState.clone

        def counted_clone(st, *args):
            clones["state"] += 1
            return clone(st, *args)

        monkeypatch.setattr(_XState, "clone", counted_clone)
        for _, algorithm, factory, sc in explore_jobs():
            clones.clear()
            res = explore(sc, factory, monitor=monitor_for(algorithm, sc.cfg.n, sc.cfg.f, sc.inputs),
                          crash_round_limit=explore_crash_limit(sc))
            assert clones["state"] == res.states - 1 == res.children - res.skipped, sc
        clones.clear()
        sc = scenario("floodmax", 4, 1, inputs=(0, 0, 0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 4, 1, sc.inputs), max_states=20_000)
        assert res.partial and clones["state"] == res.states - 1 == 19_999

    @staticmethod
    def keyed_widths(monkeypatch) -> tuple[list[bool], Counter]:
        """Record, for each explore engine made, whether it is narrow, and
        per keyed state its key's length and its slot count."""
        narrows, widths = [], Counter()
        init, key = _XEngine.__init__, _XState.key

        def recorded_init(engine, *args, narrow):
            narrows.append(narrow)
            init(engine, *args, narrow=narrow)

        def recorded_key(st):
            got = key(st)
            widths[len(got), len(st.slots)] += 1
            return got

        monkeypatch.setattr(_XEngine, "__init__", recorded_init)
        monkeypatch.setattr(_XState, "key", recorded_key)
        return narrows, widths

    def test_keys_take_two_bytes_a_slot(self, monkeypatch):
        # an ordinary search keys its states 2 bytes a slot: three slots per
        # process and the crashed, halted and woken masks and the monitor id
        narrows, widths = self.keyed_widths(monkeypatch)
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 3, 1, sc.inputs))
        assert res.states == 3837 and narrows == [True] and widths == {(26, 13): res.states}

    def test_outgrown_ids_restart_with_wide_slots(self, monkeypatch):
        # a search whose intern table would mint an id past the narrow
        # capacity restarts once with 4-byte slots; with the capacity lowered
        # to 40 ids every job below restarts, and returns the result of the
        # unpatched search field for field, witnesses, profiles and the polls
        # computed and reused included
        names = {"lockmin n=3 f=0", "leadervote n=3 f=0", "stable-suspector n=2 f=1", "flood-min n=2 f=1",
                 "lonely-lock n=2 f=0", "even-lock n=3 f=0"}
        jobs = [(algorithm, factory, sc) for name, algorithm, factory, sc in explore_jobs() if name in names]
        # Known defect 1, with its agreement witnesses
        jobs.append(("floodmax", factory_of("floodmax"), scenario("floodmax", 3, 1, inputs=(0, 0, 1))))

        def explored(algorithm, factory, sc):
            return explore(sc, factory, monitor=monitor_for(algorithm, sc.cfg.n, sc.cfg.f, sc.inputs),
                           crash_round_limit=explore_crash_limit(sc))

        unpatched = [explored(*job) for job in jobs]
        assert len(jobs) == 7 and sum(res.violation_count > 0 for res in unpatched) == 3
        narrows, widths = self.keyed_widths(monkeypatch)
        monkeypatch.setattr(simulator, "_NARROW_IDS", 40)
        for job, expected in zip(jobs, unpatched):
            narrows.clear()
            widths.clear()
            res = explored(*job)
            assert narrows == [True, False] and res == expected, job[2]
            # the narrow search keyed some states before it restarted
            slots = 3 * job[2].cfg.n + 4
            assert widths[4 * slots, slots] == res.states and 0 < widths[2 * slots, slots] < res.states

    def test_sixteen_processes_keyed_wide(self, monkeypatch):
        # the mask bit of process 16 does not fit 2 bytes, so a search at
        # n=16 keeps 4-byte slots from the start
        narrows, widths = self.keyed_widths(monkeypatch)
        sc = scenario("floodmax", 16, 1)
        res = explore(sc, factory_of("floodmax"), max_states=200)
        assert res.partial and res.states == 200 and res.violation_count == 0
        assert narrows == [False] and widths == {(4 * 52, 52): 200}

    def test_built_states_never_change(self, monkeypatch):
        # a child shares its parent's maps of automata and of inboxes and
        # its pending list, and copies only those its action replaces an
        # item of: a delivery child shares its parent's automata map, a crash
        # child that and its inbox map too; no container of a built state,
        # nor an automaton or an inbox in it, changes later in the search
        build = _XEngine.build
        states, shared = {}, Counter()

        def contents(st):
            return ([(p, id(a), a.key()) for p, a in st.automata.items()],
                    [(p, id(i), i.floor, dict(i.by_round), i.untagged) for p, i in st.inboxes.items()],
                    list(st.pending))

        def checked_build(engine, st, action, slots, found):
            states.setdefault(id(st), (st, contents(st)))  # the initial state, as it is first expanded
            child = build(engine, st, action, slots, found)
            states[id(child)] = child, contents(child)
            if action[0] in ("deliver", "crash"):
                assert child.automata is st.automata
                shared[action[0]] += 1
            if action[0] == "crash":
                assert child.inboxes is st.inboxes
            return child

        monkeypatch.setattr(_XEngine, "build", checked_build)
        for _, algorithm, factory, sc in explore_jobs():
            states.clear()
            res = explore(sc, factory, monitor=monitor_for(algorithm, sc.cfg.n, sc.cfg.f, sc.inputs),
                          crash_round_limit=explore_crash_limit(sc))
            assert len(states) == res.states, sc
            for st, before in states.values():
                assert contents(st) == before, sc
        assert shared["deliver"] > 5_000 and shared["crash"] > 100

    def test_delivery_children_share_their_parents_monitor(self, monkeypatch):
        # a delivery calls no monitor hook, so a built delivery child shares
        # its parent's monitor, and so does a crash child when no monitor has
        # a crash hook, as none of floodmax's has; only the wakes and polls
        # that run clone their parent's monitor, built or not, and a wake or
        # a poll child installs its outcome's, one object per monitor id
        clones, outcomes = Counter(), {}
        build, actions = _XEngine.build, _XEngine.actions

        def counted_monitor_clone(monitor):
            clones["monitor"] += 1
            return NullMonitor.clone(monitor)

        def checked_build(engine, st, action, slots, found):
            child = build(engine, st, action, slots, found)
            clones["built " + action[0]] += 1
            if action[0] in ("deliver", "crash"):
                assert child.monitor is st.monitor
            else:
                assert outcomes.setdefault(child.slots[_MONITOR], child.monitor) is child.monitor
            return child

        def counted_actions(engine, st):
            acts = actions(engine, st)
            clones["crashes"] += sum(action[0] == "crash" for action in acts)
            return acts

        monkeypatch.setattr(_XEngine, "build", checked_build)
        monkeypatch.setattr(_XEngine, "actions", counted_actions)
        # (crashes enabled, crash children built, monitor clones) per job
        for sc, counts in [(scenario("floodmax", 3, 0, inputs=(0, 0, 1)), (0, 0, 27)),
                           (scenario("floodmax", 2, 1, inputs=(0, 1)), (46, 30, 35))]:
            clones.clear()
            outcomes.clear()
            monitor = monitor_for("floodmax", sc.cfg.n, sc.cfg.f, sc.inputs)
            monkeypatch.setattr(type(monitor), "clone", counted_monitor_clone)
            res = explore(sc, factory_of("floodmax"), monitor=monitor)
            assert (clones["crashes"], clones["built crash"], clones["monitor"]) == counts
            assert clones["monitor"] == res.computed and clones["built deliver"] > 0

    def test_incremental_keys_match_keys_from_scratch(self, monkeypatch):
        # a child's slots are its parent's with those its action changed
        # rewritten: recompute every per-process slot and the monitor's slot
        # of each keyed state from scratch, and check the other global slots,
        # the only record of the crashed and halted sets, against what they
        # imply (the crash budget left, f less the crashed count, is no slot
        # of its own); build each derived delivery, skipped or not, to check
        # its slots and that its key was visited
        key, delivered, init = _XState.key, _XEngine.delivered, _XEngine.__init__
        visited: set[bytes] = set()
        derived_keys: list[bytes] = []
        built = Counter()
        engines = []  # the engine of the job being explored is the last
        identified, crash_limit = False, 0  # those of the job being explored

        def kept_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engines.append(engine)

        def check_slots(st, slots, identified, ids):
            for p, automaton in st.automata.items():
                pending = tuple(sorted(m[4] for m in st.pending if m[0] == p))
                assert list(slots[3 * p - 3:3 * p]) == [
                    ids[automaton.key()], st.inboxes[p].key(identified, ids), ids[pending]
                ]
            assert slots[_MONITOR] == ids[st.monitor.key()]
            assert len(slots) == 3 * len(st.automata) + 4 and len(st.crashed) <= crash_limit
            assert not any(m[0] in st.crashed or m[0] in st.halted for m in st.pending)

        def checked_key(st):
            got = key(st)
            check_slots(st, st.slots, identified, engines[-1].ids)
            built["keyed"] += 1
            visited.add(got)
            return got

        def checked_delivered(engine, st, entry):
            slots, inbox = derived = delivered(engine, st, entry)
            child = engine.build(st, ("deliver", entry), slots[:], inbox)
            assert child.monitor is st.monitor and len(child.pending) == len(st.pending) - 1
            check_slots(child, slots, engine.scenario.identified, engine.ids)
            derived_keys.append(slots.tobytes())
            return derived

        monkeypatch.setattr(_XEngine, "__init__", kept_init)
        monkeypatch.setattr(_XState, "key", checked_key)
        monkeypatch.setattr(_XEngine, "delivered", checked_delivered)
        skipped = 0
        for _, algorithm, factory, sc in explore_jobs():
            cfg = sc.cfg
            identified, crash_limit = sc.identified, cfg.f
            visited.clear()  # keys compare only within one call's intern table
            derived_keys.clear()
            res = explore(sc, factory, monitor=monitor_for(algorithm, cfg.n, cfg.f, sc.inputs),
                          crash_round_limit=explore_crash_limit(sc))
            assert not res.partial and set(derived_keys) <= visited
            skipped += res.skipped
        assert built["keyed"] > 10_000 and skipped > 1_000

    @staticmethod
    def memo_hits(monkeypatch, jobs) -> Counter:
        """Explore each (scenario, factory, monitor, crash round limit) job
        with every wake or poll whose outcome is memoized under its local
        state and what its sends and hooks read also run fresh, with its
        local state's memo entry set aside, as a first poll would, and count
        the hits and the parts of the two children that differ; every
        derived key, the skipped children's included, must have been
        visited."""
        key, polled = _XState.key, _XEngine.polled
        visited: set[bytes] = set()
        derived_keys: list[bytes] = []
        hits = Counter()

        def recorded_key(st):
            got = key(st)
            visited.add(got)
            return got

        def checked_polled(engine, st, action):
            local = engine.local_state(st, action[1])
            done = engine.polls.get(local)
            hit = done is not None and engine.reads(st, action[1]) in done[4]
            found = polled(engine, st, action)
            if hit:
                slots, outcome = found
                child = engine.build(st, action, slots[:], outcome)
                del engine.polls[local]
                run_slots, run_outcome = polled(engine, st, action)
                engine.polls[local] = done
                engine.computed -= 1
                run_child = engine.build(st, action, run_slots, run_outcome)
                ids, identified = engine.ids, engine.scenario.identified
                hits["differing slots"] += child.slots != run_child.slots
                hits["differing pending"] += child.pending != run_child.pending
                hits["differing monitors"] += child.monitor.key() != run_child.monitor.key()
                for q in engine.cfg.processes:
                    hits["differing automata"] += child.automata[q].key() != run_child.automata[q].key()
                    hits["differing inboxes"] += (child.inboxes[q].key(identified, ids)
                                                  != run_child.inboxes[q].key(identified, ids))
                hits[action[0]] += 1
                hits["with a halted process"] += bool(st.halted)
                hits["with a crashed process"] += bool(st.crashed)
                hits["with a send"] += bool(outcome[1][0])
            derived_keys.append(found[0].tobytes())
            return found

        with monkeypatch.context() as patched:
            patched.setattr(_XState, "key", recorded_key)
            patched.setattr(_XEngine, "polled", checked_polled)
            for sc, factory, monitor, crash_round_limit in jobs:
                visited.clear()  # keys compare only within one call's intern table
                derived_keys.clear()
                res = explore(sc, factory, monitor=monitor, crash_round_limit=crash_round_limit)
                assert not res.partial and set(derived_keys) <= visited
        return hits

    def test_memoized_poll_outcomes_match_polls_run(self, monkeypatch):
        # a wake or a poll whose outcome is memoized is derived and built
        # without running, and equals the child a fresh run makes; in every
        # protocol of the package an automaton's key shows that it halted,
        # and their monitors read at most the `r` of their live peers; Gossip
        # and Recorder, which declares no peer field, are what tells a memo
        # key short of the halted mask, a peer's automaton id or the
        # monitor's id
        jobs = [(sc, factory, monitor_for(algorithm, sc.cfg.n, sc.cfg.f, sc.inputs), explore_crash_limit(sc))
                for _, algorithm, factory, sc in explore_jobs()]
        gossip = scenario("floodmax", 3, 0, inputs=(0, 0, 0))
        jobs.append((gossip, lambda sc, p: Gossip(sc.cfg.n, sc.cfg.f, p), Recorder(), None))
        hits = self.memo_hits(monkeypatch, jobs)
        assert not any(hits[part] for part in hits if part.startswith("differing")), hits
        assert hits["wake"] > 500 and hits["poll"] > 4_000 and hits["with a send"] > 3_000
        assert hits["with a halted process"] > 1_000 and hits["with a crashed process"] > 100

    def test_undeclared_peer_field_read_breaks_the_memo(self, monkeypatch):
        # the negative control: a monitor that declares `r` but whose round
        # hook reads its peers' phases gets an outcome memoized under a
        # peer's other phase, so a memo hit's monitor differs from a fresh
        # run's
        class PhaseReader(NullMonitor):
            peer_fields = ("r",)
            phases: tuple = ()

            def key(self):
                return (self.phases,)

            def on_round(self, state, p, r):
                self.phases = tuple(state.automata[q].phase for q in sorted(state.automata) if q != p)

        sc = scenario("floodmax", 3, 0, inputs=(0, 1, 1))
        hits = self.memo_hits(monkeypatch, [(sc, factory_of("floodmax"), PhaseReader(), None)])
        assert hits["poll"] > 0 and hits["differing monitors"] > 0

    def test_consensus_monitors_declare_only_the_lock_floor(self):
        # a peer's `r` is read only for the floor of a tagged Lock, which
        # lockmin alone sends: floodmax's and leadervote's monitors declare no
        # peer field, so their polls run once per local state, halted mask and
        # monitor id, not again for each peer's round.  The monitor id holds
        # stubbornness's bits of the peers that held 1, so floodmax runs more
        # polls than with the consensus monitor alone (591)
        declared = {algorithm: monitor_for(algorithm, 3, 1, (0, 1, 1)).peer_fields
                    for algorithm in ("floodmax", "lockmin", "leadervote")}
        assert declared == {"floodmax": (), "lockmin": ("r",), "leadervote": ()}
        sc = scenario("floodmax", 3, 2, inputs=(0, 0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 3, 2, sc.inputs))
        assert (res.states, res.violation_count) == (22_594, 0)
        assert res.computed <= 900  # 899 seen; 1,088 with `r` declared

    def test_declared_peer_fields_explore_as_whole_automata(self):
        # a monitor's declaration only narrows the memo key of its polls: each
        # shipped monitor, as declared and with the default (any automaton,
        # whole), gives the same states, terminals, profiles, violations and
        # witnesses, on every pinned job and on criterion 4's stable-suspector
        # job, where the declaration runs about a third of the polls
        jobs = [(algorithm, factory, sc) for _, algorithm, factory, sc in explore_jobs()]
        full = scenario("stable-suspector", 3, 1, rounds=5)
        jobs.append(("stable-suspector", factory_of("stable-suspector"), full))
        computed = {}
        for algorithm, factory, sc in jobs:
            seen = []
            for fields in ("declared", None):
                monitor = monitor_for(algorithm, sc.cfg.n, sc.cfg.f, sc.inputs)
                if fields is None:
                    monitor.peer_fields = None
                res = explore(sc, factory, monitor=monitor, crash_round_limit=explore_crash_limit(sc))
                witnesses = [(v.check, v.detail, v.schedule) for v in res.violations]
                seen.append((res.states, res.terminals, res.terminal_profiles, res.violation_count, witnesses))
                computed[fields] = res.computed
            assert seen[0] == seen[1], sc
        assert seen[0][:2] == (110_449, 289) and computed["declared"] <= 1_300 < computed[None]

    def test_witnesses_replay_with_their_exact_payloads(self):
        # every witness replays through run_schedule, each remote delivery of
        # the replay carrying the payload its deliver action names, types
        # included (True stays True), and its trace fails the check the
        # monitor flagged; Twins sends payloads that compare equal, 1 and True
        jobs = [(algorithm, factory, sc, monitor_for(algorithm, sc.cfg.n, sc.cfg.f, sc.inputs),
                 explore_crash_limit(sc)) for _, algorithm, factory, sc in explore_jobs()]
        twins = scenario("floodmax", 2, 0, inputs=(0, 0))
        jobs.append((None, lambda sc, p: Twins(sc.cfg.n, sc.cfg.f, p), twins, EveryTerminal(), None))
        witnessed = Counter()
        for algorithm, factory, sc, monitor, crash_round_limit in jobs:
            res = explore(sc, factory, monitor=monitor, crash_round_limit=crash_round_limit)
            for violation in res.violations:
                trace = run_schedule(sc, factory, violation.schedule)
                named = [(a[1], repr(a[3])) for a in violation.schedule if a[0] == "deliver"]
                delivered = [(e["proc"], repr(e["payload"])) for e in trace.events
                             if e["ev"] == "deliver" and e["from"] != e["proc"]]
                assert delivered[:len(named)] == named
                if algorithm is None:
                    witnessed["True"] += sum(payload == "('v', True)" for _, payload in named)
                    continue
                check = violation.detail.split(":")[0]
                assert TRACE_PROPS.get(check, check) in {r.prop for r in check_trace(trace) if r.failed}
                witnessed[algorithm] += 1
        # Twins reaches one terminal state, whose witness delivers a True to each process
        assert witnessed == {"True": 2, "floodmax": 19, "lockmin": 10, "stable-suspector": 7}

    def test_results_pinned(self):
        # states, terminals, profiles, violations and witness schedules of
        # small jobs of every explorable algorithm and mutant; the counts
        # name the jobs that moved
        jobs, digest, counts = explore_digest()
        assert counts == EXPLORE_COUNTS
        assert (jobs, digest) == (EXPLORE_JOBS, EXPLORE_SHA256)

    def test_components_hold_only_their_state(self, monkeypatch):
        # the engine owns every component id: an explored automaton holds
        # exactly its dataclass fields and an inbox its contents, no cached id
        key = _XState.key
        seen = Counter()

        def checked_key(st):
            for p, automaton in st.automata.items():
                assert vars(automaton).keys() == {f.name for f in fields(automaton)}, automaton
                assert vars(st.inboxes[p]).keys() == {"by_round", "untagged", "floor"}
            seen["states"] += 1
            return key(st)

        monkeypatch.setattr(_XState, "key", checked_key)
        for _, algorithm, factory, sc in explore_jobs():
            cfg = sc.cfg
            explore(sc, factory, monitor=monitor_for(algorithm, cfg.n, cfg.f, sc.inputs),
                    crash_round_limit=explore_crash_limit(sc))
        assert seen["states"] > 10_000

    def test_memoized_probe_verdicts_match_fresh_probes(self, monkeypatch):
        # `actions` enables a woken process's poll on the guard-probe verdict
        # memoized under its local state; re-probe every verdict it uses, in
        # a job whose states crash and halt processes
        seen = Counter()
        actions = _XEngine.actions

        def checked(engine, st):
            woken = [p for p in engine.cfg.processes
                     if st.slots[_WOKEN] >> p & 1 and p not in st.crashed and p not in st.halted]
            hits = {p for p in woken if engine.local_state(st, p) in engine.probes}
            acts = actions(engine, st)
            engine.load(st)  # can_progress probes the loaded state; actions loads it only on a miss
            for p in woken:
                verdict = engine.probes[engine.local_state(st, p)]
                assert verdict == engine.can_progress(p) == (("poll", p) in acts), p
                seen["hits"] += p in hits
                seen["hits with crash and halt"] += p in hits and bool(st.crashed and st.halted)
            return acts

        monkeypatch.setattr(_XEngine, "actions", checked)
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 3, 1, (0, 1, 1)))
        assert (res.states, res.terminals, res.violation_count) == (3837, 81, 0)
        assert seen["hits"] > 1000 and seen["hits with crash and halt"] > 100

    def test_each_local_state_polled_once(self, monkeypatch):
        # a wake or a poll runs on the engine only for the first state that
        # has its local state and what its sends and hooks read; every other
        # takes its whole outcome from the memo and runs no poll
        polled, runs, enabled = Counter(), Counter(), Counter()
        quiesce, derive, actions = _XEngine.quiesce, _XEngine.polled, _XEngine.actions
        deriving = [None]  # the kind of the action whose child is being derived

        def counted_quiesce(engine, p):
            identified, ids = engine.scenario.identified, engine.ids
            local = (p, engine.automata[p].key(), engine.inboxes[p].key(identified, ids), engine.crashed)
            polled[local, engine.reads(engine.state, p)] += 1
            runs[deriving[0]] += 1
            quiesce(engine, p)

        def counted_polled(engine, st, action):
            deriving[0] = action[0]
            found = derive(engine, st, action)
            deriving[0] = None
            return found

        def counted_actions(engine, st):
            acts = actions(engine, st)
            enabled.update(action[0] for action in acts)
            return acts

        monkeypatch.setattr(_XEngine, "quiesce", counted_quiesce)
        monkeypatch.setattr(_XEngine, "polled", counted_polled)
        monkeypatch.setattr(_XEngine, "actions", counted_actions)
        sc = scenario("floodmax", 3, 1, inputs=(0, 1, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 3, 1, (0, 1, 1)))
        assert (res.states, res.terminals, res.violation_count) == (3837, 81, 0)
        assert set(polled.values()) == {1} and len(polled) == res.computed
        # every poll runs while a wake's or a poll's child is derived
        assert set(runs) == {"wake", "poll"} and res.computed == runs["wake"] + runs["poll"]
        assert res.computed + res.reused == enabled["wake"] + enabled["poll"]
        # local states recur under new reads, and a run of one shares its entry's automaton
        assert len({local for local, _ in polled}) < res.computed
        assert (res.computed, res.reused) == (287, 3230)

    def test_visited_wake_children_skipped_unbuilt(self, monkeypatch):
        # every wake has its child's key derived from its parent's, setting
        # p's woken bit, whether its outcome was memoized or runs first, and
        # is skipped unbuilt when that key was visited: fewer wakes run, and
        # fewer are built, than are enabled
        runs, built, enabled = Counter(), Counter(), Counter()
        visited: set[bytes] = set()
        derived_keys: list[bytes] = []
        key, polled, quiesce = _XState.key, _XEngine.polled, _XEngine.quiesce
        build, actions = _XEngine.build, _XEngine.actions
        deriving = [None]  # the kind of the action whose child is being derived

        def recorded_key(st):
            got = key(st)
            visited.add(got)
            return got

        def recorded_polled(engine, st, action):
            deriving[0] = action[0]
            found = polled(engine, st, action)
            deriving[0] = None
            if action[0] == "wake":
                assert found[0][_WOKEN] == st.slots[_WOKEN] | 1 << action[1]
                derived_keys.append(found[0].tobytes())
            return found

        def counted_quiesce(engine, p):
            runs[deriving[0]] += 1
            quiesce(engine, p)

        def counted_build(engine, st, action, slots, found):
            built[action[0]] += 1
            return build(engine, st, action, slots, found)

        def counted_actions(engine, st):
            acts = actions(engine, st)
            enabled.update(action[0] for action in acts)
            return acts

        monkeypatch.setattr(_XState, "key", recorded_key)
        monkeypatch.setattr(_XEngine, "polled", recorded_polled)
        monkeypatch.setattr(_XEngine, "quiesce", counted_quiesce)
        monkeypatch.setattr(_XEngine, "build", counted_build)
        monkeypatch.setattr(_XEngine, "actions", counted_actions)
        sc = scenario("floodmax", 3, 0, inputs=(0, 0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 3, 0, (0, 0, 1)))
        assert (res.states, res.terminals, res.violation_count) == (157, 1, 0)
        assert (enabled["wake"], runs["wake"], built["wake"], len(derived_keys)) == (71, 15, 17, 71)
        assert set(derived_keys) <= visited

    @pytest.mark.parametrize("algorithm, n, f, rounds", [
        ("floodmax", 3, 1, None), ("stable-suspector", 2, 1, 4), ("eventual-suspector", 2, 1, 3),
    ])
    def test_hooks_see_the_automaton_as_an_effect_fires(self, algorithm, n, f, rounds):
        # an effect shows the monitor p's automaton as it is when the effect
        # fires, not as the poll leaves it: these protocols broadcast round
        # r's message in phase "send" of round r, and switch to round r with
        # r already set
        class MidPoll(NullMonitor):
            peer_fields = ()  # p's own automaton is part of its local state

            def key(self):
                return (self.flag,)

            def on_send(self, state, p, payload):
                seen = state.automata[p]
                if (seen.phase, seen.r) != ("send", payload[1]):
                    self.flag = f"process {p} sent {payload} from {seen}"

            def on_round(self, state, p, r):
                if state.automata[p].r != r:
                    self.flag = f"process {p} switched to round {r} as {state.automata[p]}"

        sc = scenario(algorithm, n, f, inputs=(0, 1, 1)[:n] if rounds is None else None, rounds=rounds)
        res = explore(sc, factory_of(algorithm), monitor=MidPoll())
        assert res.violation_count == 0, res.violations[0].detail
        # reused wakes and polls install outcomes whose hooks ran in a computed one
        computed_reused = {"floodmax": (196, 3321), "stable-suspector": (64, 94), "eventual-suspector": (40, 54)}
        assert (res.computed, res.reused) == computed_reused[algorithm]

    def test_crash_hook_sees_the_crash(self):
        # on_crash runs before its child is built, against a view whose
        # crashed set already holds p
        class CrashSeen(NullMonitor):
            def key(self):
                return (self.flag,)

            def on_crash(self, state, p):
                if p not in state.crashed:
                    self.flag = f"process {p} crashed unseen, crashed {sorted(state.crashed)}"

        res = explore(scenario("floodmax", 2, 1, inputs=(0, 1)), factory_of("floodmax"), monitor=CrashSeen())
        assert res.violation_count == 0 and {((),), ((1,),), ((2,),)} == set(res.terminal_profiles)

    def test_stuck_state_reported(self):
        # once every message is delivered, no action is enabled and both
        # processes are undecided and unhalted: exactly one stuck state,
        # whose witness replays to the same dead end
        sc = scenario("floodmax", 2, 0, inputs=(0, 0))
        factory = lambda sc, p: Waiter(sc.cfg.n, sc.cfg.f, p)
        res = explore(sc, factory)
        assert (res.terminals, res.violation_count, len(res.violations)) == (0, 1, 1)
        stuck = res.violations[0]
        assert stuck.check == "stuck" and Counter(a[0] for a in stuck.schedule) == {"wake": 2, "deliver": 2}
        trace = run_schedule(sc, factory, stuck.schedule)
        assert trace.truncated and trace.pending == 0 and not decisions(trace) and not halts(trace)
        assert Counter(e["ev"] for e in trace.events) == {"send": 2, "deliver": 4}

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

    def test_n4_bounded_by_budget(self):
        # no size guard: at n=4 the state budget alone ends the search
        sc = scenario("floodmax", 4, 1, inputs=(0, 0, 0, 1))
        res = explore(sc, factory_of("floodmax"), monitor=monitor_for("floodmax", 4, 1, sc.inputs),
                      max_states=20_000)
        assert res.partial and not res.ok
        assert res.states == 20_000


def test_no_poll_or_probe_reaches_a_halted_or_crashed_process(monkeypatch):
    # the engine alone stops halted and crashed processes, so no automaton
    # tests for having halted: no poll, and no guard probe of a copy (which
    # reads its host engine's sets), may reach one
    reached = Counter()

    def checked(cls, on_poll):
        def on_poll_checked(automaton, ctx):
            engine = getattr(ctx._engine, "host", ctx._engine)
            assert ctx.proc not in engine.crashed, f"{cls.__name__} p{ctx.proc} polled after its crash"
            assert ctx.proc not in engine.halted, f"{cls.__name__} p{ctx.proc} polled after its halt"
            reached[cls, bool(engine.halted)] += 1
            return on_poll(automaton, ctx)

        return on_poll_checked

    classes = [cls for module in (consensus, transforms) for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Automaton) and "on_poll" in vars(cls)]
    for cls in classes:
        monkeypatch.setattr(cls, "on_poll", checked(cls, vars(cls)["on_poll"]))
    for algorithm, info in ALGORITHMS.items():
        for policy in POLICIES:
            for seed in range(3):
                sc = scenario(algorithm, 3, 1, crashes={2: 7 + seed}, behavior="adversarial", convergence=30,
                              horizon=400, policy=policy, seed=seed,
                              **({"inputs": (0, 1, 1)} if info.consensus else {"rounds": 6}))
                run(sc, info.factory)
    for _, algorithm, factory, sc in explore_jobs():
        explore(sc, factory, monitor=monitor_for(algorithm, sc.cfg.n, sc.cfg.f, sc.inputs),
                crash_round_limit=explore_crash_limit(sc))
    # every class was polled while some process had halted
    assert {cls for cls, halted in reached if halted} == set(classes)


@pytest.mark.parametrize("entry", [
    lambda sc: run(sc, consensus.flood_max),
    lambda sc: run_schedule(sc, consensus.flood_max, [("wake", 1)]),
    lambda sc: explore(sc, consensus.flood_max),
], ids=["run", "run_schedule", "explore"])
def test_consensus_without_inputs_rejected(entry):
    sc = ScenarioConfig.from_dict({"algorithm": "floodmax", "n": 3, "f": 1, "oracle": {"kind": "crash-count"}})
    with pytest.raises(ScenarioError, match="one input per process"):
        entry(sc)


@pytest.mark.parametrize("changes, error", [
    ({"horizon": 0}, "horizon must be at least 1"),
    ({"inputs": (0, 1)}, "2 inputs for 3 processes"),
    ({"pattern": FailurePattern.of(3, {3: 400})}, "crash at step 400 would never happen within horizon 400"),
], ids=["horizon-0", "two-inputs-for-n3", "crash-at-the-horizon"])
def test_replace_cannot_make_a_scenario_invalid(changes, error):
    # a scenario checks its model rules when it is built, so a copy of a
    # valid one is checked too
    sc = scenario("floodmax", 3, 1, inputs=(0, 1, 1), horizon=400)
    with pytest.raises(ScenarioError, match=error):
        replace(sc, **changes)
    assert sc.reseeded(9).seed == 9


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
        # the trace's scenario names the crash the schedule placed
        assert trace.scenario.pattern.crash_steps == ((2, 2),)
        # round 1 evaluated after the posthumous delivery: the 1 was counted
        assert decisions(trace)[1][0][1] == 1
        assert not trace.truncated

    @pytest.mark.parametrize("action", [
        ("deliver", 1, 2, ("Propose", 1, 1), 1),  # nothing is pending yet
        ("poll", 3),
        ("crash", 0),
        ("deliver", 2, 1),  # too short
        ("deliver", 2, 1, 5, 1),  # a payload that is no sequence
        ("wake",),
        (),
    ])
    def test_bad_action_rejected(self, action):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        with pytest.raises(ScenarioError):
            run_schedule(sc, factory_of("floodmax"), [("wake", 1), action])

    @pytest.mark.parametrize("crashes", [(1, 2), (1, 1)])
    def test_crash_outside_model_rejected(self, crashes):
        # more than f crashes, or one process crashed twice
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        with pytest.raises(ScenarioError):
            run_schedule(sc, factory_of("floodmax"), [("crash", p) for p in crashes])

    def test_live_oracle_tracks_crashes(self):
        oracle = LiveOracle("crash-count", 3)
        assert oracle.read(1, 0, frozenset()) == 0
        assert oracle.read(1, 5, frozenset({2, 3})) == 2
