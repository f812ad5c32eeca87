"""Trace and history checkers.

Every property the harness certifies is a bespoke predicate over a trace or
a detector history:

* the four consensus properties (termination, irrevocability, agreement,
  validity), with liveness reported as `truncated` rather than pass/fail
  when the run hit its horizon;
* validity of a transformation's emulated detector history;
* protocol invariants checked as first-order predicates over events
  (value stubbornness, lock exclusivity, decision spread, unique decision
  payloads, bounded round skew, distinct random identifiers);
* the symmetric / unsymmetrical classification of detector output, both as
  pointwise equality and as equality on the converged suffix;
* permutation closure of a detector history (delegating to the model's
  anonymity predicate).

A failing report always carries a witness that can be found again in the
trace.  The Monitor classes at the bottom fold the same verdicts into
exhaustive exploration, where full traces never materialize: continuous
checks run as events happen and terminal checks inspect final automaton
states, with any accumulated verdict folded into the explored state's
identity.

`ALGORITHMS`, at the very bottom, is the one table of registered algorithms:
each entry names its automaton factory, its oracle kinds, its checks, its
exploration monitor and its exploration and campaign bounds.  `check_trace`
runs an entry's checks on a trace, for `run`, `campaign` and `check` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable

from . import consensus, transforms
from .detectors import (
    CRASH_COUNT,
    EVENTUAL_CRASH_COUNT,
    EVENTUALLY_PERFECT,
    LEADER,
    PERFECT,
    SELF_TRUST,
    DetectorSpec,
)
from .model import DetectorHistory, FailurePattern, is_anonymous
from .simulator import NullMonitor, ScenarioError, Trace

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
TRUNCATED = "truncated"


@dataclass
class CheckReport:
    prop: str
    verdict: str
    witness: list = field(default_factory=list)
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_dict(self) -> dict:
        return {"property": self.prop, "verdict": self.verdict, "witness": self.witness, "detail": self.detail}


def _decide_events(trace: Trace) -> list[tuple[int, dict]]:
    return [(i, ev) for i, ev in enumerate(trace.events) if ev["ev"] == "decide"]


def check_consensus(trace: Trace) -> list[CheckReport]:
    """Termination, irrevocability, agreement, validity for one trace."""
    correct = trace.correct
    decides = _decide_events(trace)
    reports = []

    if trace.truncated:
        reports.append(CheckReport("termination", TRUNCATED, detail="horizon hit; liveness not judged"))
    else:
        missing = sorted(p for p in correct if p not in trace.decisions)
        if missing:
            reports.append(CheckReport("termination", FAIL, missing, "correct processes without a decision"))
        else:
            reports.append(CheckReport("termination", PASS))

    repeats = sorted(p for p, ds in trace.decisions.items() if len(ds) > 1)
    if repeats:
        idx = [i for i, ev in decides if ev["proc"] in repeats]
        reports.append(CheckReport("irrevocability", FAIL, idx, "process decided more than once"))
    else:
        reports.append(CheckReport("irrevocability", PASS))

    correct_deciders = {p: ds[0][1] for p, ds in trace.decisions.items() if p in correct}
    values = set(correct_deciders.values())
    if len(values) > 1:
        idx = [i for i, ev in decides if ev["proc"] in correct_deciders]
        reports.append(CheckReport("agreement", FAIL, idx, f"correct processes decided {sorted(values)}"))
    elif not correct_deciders:
        reports.append(CheckReport("agreement", VACUOUS, detail="no correct process decided"))
    else:
        reports.append(CheckReport("agreement", PASS))

    proposed = set(trace.scenario.inputs)
    bad = [
        i
        for i, ev in decides
        if ev["value"] not in proposed
    ]
    if bad:
        reports.append(CheckReport("validity", FAIL, bad, "decided value was never proposed"))
    else:
        reports.append(CheckReport("validity", PASS))
    return reports


def _message(i: int, payload: tuple, length: int) -> tuple:
    """The fields of the protocol message sent at event i; a message of
    another length cannot come from the protocol, so the trace is malformed."""
    if len(payload) != length:
        raise ScenarioError(f"event {i}: {payload[0]} message {list(payload)} does not have {length} fields")
    return payload


def check_stubbornness(trace: Trace) -> CheckReport:
    """Once a process's value reaches 1 it must stay 1 in later rounds."""
    last: dict[int, int] = {}
    for i, ev in enumerate(trace.events):
        if ev["ev"] == "round" and "v" in ev:
            p, v = ev["proc"], ev["v"]
            if last.get(p) == 1 and v == 0:
                return CheckReport("stubbornness", FAIL, [i], f"process {p} dropped value 1")
            last[p] = v
        elif ev["ev"] == "decide":
            p, v = ev["proc"], ev["value"]
            if last.get(p) == 1 and v == 0:
                return CheckReport("stubbornness", FAIL, [i], f"process {p} decided 0 after holding 1")
    return CheckReport("stubbornness", PASS)


def check_lock_exclusivity(trace: Trace) -> CheckReport:
    """No round carries lock messages for two different non-null values."""
    seen: dict[int, dict[int, int]] = {}
    for i, ev in enumerate(trace.events):
        if ev["ev"] != "send" or ev["payload"][0] != "Lock":
            continue
        _, r, tag, _ = _message(i, ev["payload"], 4)
        if tag is None:
            continue
        per_round = seen.setdefault(r, {})
        if any(other != tag for other in per_round):
            prev = next(j for other, j in per_round.items() if other != tag)
            return CheckReport(
                "lock-exclusivity", FAIL, [prev, i], f"round {r} locked two different values"
            )
        per_round.setdefault(tag, i)
    return CheckReport("lock-exclusivity", PASS)


def check_decision_spread(trace: Trace) -> CheckReport:
    """All correct processes decide the first decided value within one round."""
    if trace.truncated:
        return CheckReport("decision-spread", TRUNCATED)
    correct = trace.correct
    rounds = {p: ds[0][2] for p, ds in trace.decisions.items() if p in correct}
    values = {p: ds[0][1] for p, ds in trace.decisions.items() if p in correct}
    if not rounds:
        return CheckReport("decision-spread", VACUOUS, detail="no correct process decided")
    if len(set(values.values())) > 1:
        return CheckReport("decision-spread", FAIL, sorted(values), "conflicting decision values")
    missing = sorted(p for p in correct if p not in rounds)
    if missing:
        return CheckReport("decision-spread", FAIL, missing, "correct process never decided")
    first, last = min(rounds.values()), max(rounds.values())
    if last - first > 1:
        return CheckReport(
            "decision-spread", FAIL, sorted(rounds.items()), f"decisions spread over {last - first} rounds"
        )
    return CheckReport("decision-spread", PASS)


def check_unique_decide(trace: Trace) -> CheckReport:
    """Every decision announcement in the trace carries one value."""
    values: dict[Any, int] = {}
    for i, ev in enumerate(trace.events):
        if ev["ev"] == "send" and ev["payload"][0] == "Decide":
            values.setdefault(_message(i, ev["payload"], 2)[1], i)
    if len(values) > 1:
        return CheckReport("unique-decide", FAIL, sorted(values.values()), f"announced {list(values)}")
    return CheckReport("unique-decide", PASS)


def check_round_skew(trace: Trace) -> CheckReport:
    """Live processes' round counters never drift apart by more than f+1."""
    cfg = trace.scenario.cfg
    bound = cfg.f + 1
    rounds = {p: 0 for p in cfg.processes}
    crashed: set[int] = set()
    worst = 0
    for i, ev in enumerate(trace.events):
        if ev["ev"] == "crash":
            crashed.add(ev["proc"])
        elif ev["ev"] == "round":
            rounds[ev["proc"]] = ev["r"]
            live = [r for p, r in rounds.items() if p not in crashed]
            worst = max(worst, max(live) - min(live))
            if worst > bound:
                return CheckReport(
                    "round-skew", FAIL, [i], f"skew {worst} exceeds bound {bound}"
                )
    return CheckReport("round-skew", PASS, detail=f"max skew {worst}")


def check_id_collision(trace: Trace) -> CheckReport:
    """No two heartbeat identifiers of the randomized construction coincide."""
    ids, senders = set(), set()
    for i, ev in enumerate(trace.events):
        if ev["ev"] == "send" and ev["payload"][0] == "HB":
            ids.add(_message(i, ev["payload"], 3)[2])
            senders.add(ev["proc"])
    if len(ids) < len(senders):
        return CheckReport("id-collision", FAIL, detail="duplicate identifiers drawn")
    return CheckReport("id-collision", PASS)


def check_target_validity(trace: Trace) -> CheckReport:
    """The emulated detector history is valid for the run's failure pattern."""
    info = algorithm_info(trace.scenario.algorithm)
    history = transforms.output_history(trace, info.target_kind)
    spec = DetectorSpec(info.target_kind, trace.scenario.cfg.n)
    detail = f"emulated {info.target_kind} history"
    try:
        ok = spec.validates(history, trace.scenario.pattern)
    except ValueError as exc:
        return CheckReport("target-validity", FAIL, detail=f"{detail} out of range: {exc}")
    return CheckReport("target-validity", PASS if ok else FAIL, detail=detail)


def check_lemma_invariants(trace: Trace) -> list[CheckReport]:
    info = algorithm_info(trace.scenario.algorithm)
    return [check(trace) for check in info.lemmas]


def check_trace(trace: Trace) -> list[CheckReport]:
    """Every check that applies to the trace's algorithm; `run`, `campaign`
    and `check` all report exactly these."""
    info = algorithm_info(trace.scenario.algorithm)
    reports = check_consensus(trace) if info.consensus else []
    if info.target_kind is not None:
        reports.append(check_target_validity(trace))
    return reports + check_lemma_invariants(trace)


@dataclass
class SymmetryReport:
    strict: bool
    suffix: bool
    suffix_from: int | None

    @property
    def classification(self) -> str:
        return "symmetric" if self.strict else "unsymmetrical"


def classify_symmetry(history: DetectorHistory, pattern: FailurePattern) -> SymmetryReport:
    """Do all correct processes see the same output?  Reported twice: as
    pointwise equality over the whole table and as equality from the point
    the rows stop disagreeing (eventual-class detectors only promise the
    latter)."""
    correct = sorted(pattern.correct)
    if len(correct) < 2:
        return SymmetryReport(strict=True, suffix=True, suffix_from=0)
    first = correct[0]
    disagree = [
        t
        for t in range(history.horizon + 1)
        if any(history.at(q, t) != history.at(first, t) for q in correct[1:])
    ]
    if not disagree:
        return SymmetryReport(strict=True, suffix=True, suffix_from=0)
    if disagree[-1] == history.horizon:
        return SymmetryReport(strict=False, suffix=False, suffix_from=None)
    return SymmetryReport(strict=False, suffix=True, suffix_from=disagree[-1] + 1)


def check_permutation_closure(spec: Any, pattern: FailurePattern, history: DetectorHistory) -> CheckReport:
    try:
        verdict = is_anonymous(spec, pattern, history)
    except ValueError as exc:
        return CheckReport("permutation-closure", FAIL, [], f"invalid input history: {exc}")
    if verdict.anonymous:
        return CheckReport("permutation-closure", PASS, detail=f"{verdict.tested} permutations")
    return CheckReport(
        "permutation-closure",
        FAIL,
        list(verdict.violation.mapping),
        "validity not preserved under the witnessed relabelling",
    )


# --- monitors for exhaustive exploration ---------------------------------------


class ConsensusMonitor(NullMonitor):
    """Continuous + terminal consensus verdicts folded into explored states.
    Its hooks read a peer's `r` only for the floor of a tagged `Lock`, which
    lockmin alone sends, so it declares `r` with `spread` and else nothing."""

    # inherited hooks, named again because perfbench/tracer.py times only the
    # hooks in a class's own namespace
    clone, violation = NullMonitor.clone, NullMonitor.violation
    on_round = on_output = on_crash = NullMonitor.ignore

    def __init__(self, n: int, f: int, inputs: tuple[int, ...], spread: bool = False):
        self.inputs = inputs
        self.spread = spread
        self.peer_fields = ("r",) if spread else ()
        self.decide_counts = (0,) * n
        self.locks: tuple[tuple[int, tuple], ...] = ()

    def key(self) -> tuple:
        return (self.decide_counts, self.locks, self.flag)

    def on_send(self, state, p: int, payload) -> None:
        if self.flag or payload[0] != "Lock" or payload[2] is None:
            return
        _, r, tag, _ = payload
        locks = dict(self.locks)
        tags = set(locks.get(r, ()))
        if any(t != tag for t in tags):
            self.flag = f"lock-exclusivity: round {r} locked {sorted(tags | {tag})}"
            return
        tags.add(tag)
        locks[r] = tuple(sorted(tags))
        # rounds every live process has left can no longer gain lock messages
        crashed, halted = state.crashed, state.halted
        active = [state.automata[q].r for q in state.automata if q not in crashed and q not in halted]
        floor = min(active, default=r + 1)
        self.locks = tuple(sorted((rr, tt) for rr, tt in locks.items() if rr >= floor))

    def on_decide(self, state, p: int, value, r) -> None:
        counts = list(self.decide_counts)
        counts[p - 1] = min(counts[p - 1] + 1, 2)
        self.decide_counts = tuple(counts)
        if counts[p - 1] > 1:
            self.flag = f"irrevocability: process {p} decided twice"
        elif value not in self.inputs:
            self.flag = f"validity: decided {value!r}, inputs {sorted(set(self.inputs))}"

    def terminal_checks(self, state) -> list[str]:
        problems = []
        correct = [p for p in sorted(state.automata) if p not in state.crashed]
        decided = {p: state.automata[p].decided for p in correct}
        missing = [p for p, v in decided.items() if v is None]
        if missing:
            problems.append(f"termination: correct processes {missing} never decided")
        values = {v for v in decided.values() if v is not None}
        if len(values) > 1:
            problems.append(f"agreement: correct processes decided {sorted(values)}")
        if self.spread and not missing and decided:
            rounds = [state.automata[p].decide_round for p in correct]
            if max(rounds) - min(rounds) > 1:
                problems.append(f"decision-spread: rounds {sorted(rounds)}")
        return problems

    def terminal_profile(self, state) -> tuple:
        return (
            tuple(state.automata[p].decided for p in sorted(state.automata)),
            tuple(sorted(state.crashed)),
        )


class SuspectorMonitor(NullMonitor):
    """Suspicion validity folded into explored states.

    With strong accuracy on, any emitted suspect set containing a process
    that has not crashed yet is an immediate violation (that is exactly the
    perfect detector's accuracy clause evaluated cell by cell).  At terminal
    states the final suspect set of every live process must name exactly the
    crashed processes: the constant tail of the emulated history then
    witnesses strong completeness (and eventual accuracy).  Given a
    `skew_bound`, round skew is tracked against it along the way, from the
    `r` of the live processes; without one, it is not tracked at all, so it
    splits no states and its hooks read no peer.
    """

    # inherited hooks, named again because perfbench/tracer.py times only the
    # hooks in a class's own namespace
    clone, violation = NullMonitor.clone, NullMonitor.violation
    on_send = on_decide = on_crash = NullMonitor.ignore

    def __init__(self, strong_accuracy: bool, skew_bound: int | None = None):
        self.strong_accuracy = strong_accuracy
        self.skew_bound = skew_bound
        self.skew_max = 0
        self.peer_fields = () if skew_bound is None else ("r",)  # the round skew

    def key(self) -> tuple:
        return (self.skew_max, self.flag)

    def on_round(self, state, p: int, r: int) -> None:
        if self.skew_bound is None:
            return
        crashed = state.crashed
        live = [state.automata[q].r for q in state.automata if q not in crashed]
        skew = max(live) - min(live)
        self.skew_max = min(max(self.skew_max, skew), self.skew_bound + 1)
        if self.skew_max > self.skew_bound and not self.flag:
            self.flag = f"round-skew: {skew} exceeds bound {self.skew_bound}"

    def on_output(self, state, p: int, value) -> None:
        if self.strong_accuracy and not self.flag:
            early = sorted(set(value) - state.crashed)
            if early:
                self.flag = f"strong-accuracy: process {p} suspected live {early}"

    def terminal_checks(self, state) -> list[str]:
        problems = []
        crashed = frozenset(state.crashed)
        for p in sorted(state.automata):
            if p in crashed:
                continue
            final = state.automata[p].suspect
            if final != crashed:
                problems.append(
                    f"completeness: process {p} ends suspecting {sorted(final)}, crashed {sorted(crashed)}"
                )
        return problems

    def terminal_profile(self, state) -> tuple:
        return (
            tuple(
                tuple(sorted(state.automata[p].suspect))
                for p in sorted(state.automata)
                if p not in state.crashed
            ),
            tuple(sorted(state.crashed)),
        )


class SelfTrustTerminalMonitor(NullMonitor):
    """Terminal uniqueness of the randomized construction's self-truster."""

    # inherited hooks, named again because perfbench/tracer.py times only the
    # hooks in a class's own namespace
    clone, key, violation = NullMonitor.clone, NullMonitor.key, NullMonitor.violation
    on_send = on_decide = on_round = on_output = on_crash = NullMonitor.ignore
    peer_fields = ()

    def terminal_checks(self, state) -> list[str]:
        live = [p for p in sorted(state.automata) if p not in state.crashed]
        trusting = [p for p in live if state.automata[p].output]
        top = max(live, key=lambda p: state.automata[p].my_id)
        if trusting != [top]:
            return [f"self-trust: trusting {trusting}, max-id live process is {top}"]
        return []

    def terminal_profile(self, state) -> tuple:
        return (
            tuple(state.automata[p].output for p in sorted(state.automata)),
            tuple(sorted(state.crashed)),
        )


def monitor_for(algorithm: str, n: int, f: int, inputs: tuple[int, ...]):
    """The exploration monitor of a registered algorithm."""
    info = algorithm_info(algorithm)
    if info.monitor is None:
        raise ScenarioError(f"algorithm {algorithm!r} has no exploration monitor, so it cannot be explored")
    return info.monitor(n, f, inputs)


# --- the algorithm table -------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmInfo:
    name: str
    factory: Callable
    oracle_kinds: tuple[str, ...]
    identified: bool
    majority: bool = False  # needs n > 2f
    target_kind: str | None = None  # emulated detector, for transformations
    lemmas: tuple[Callable[[Trace], CheckReport], ...] = ()
    monitor: Callable[[int, int, tuple[int, ...]], Any] | None = None  # (n, f, inputs) -> monitor
    # rounds a crash must leave before the round cap during exploration, given
    # f: the suspectors' completeness clauses are eventual, and a finite cap
    # witnesses them only for crashes followed by enough rounds (f+3 for the
    # stability window, one clean round for the eventual suspector)
    crash_margin: Callable[[int], int] | None = None
    success_bound: Fraction | None = None  # least campaign share of fully passing runs

    @property
    def consensus(self) -> bool:  # a consensus protocol is an algorithm that emulates no detector
        return self.target_kind is None


ALGORITHMS = {
    info.name: info
    for info in (
        AlgorithmInfo(
            "floodmax", consensus.flood_max, (CRASH_COUNT,), False,
            lemmas=(check_stubbornness,), monitor=ConsensusMonitor,
        ),
        AlgorithmInfo(
            "lockmin", consensus.lock_min, (EVENTUAL_CRASH_COUNT, CRASH_COUNT), False, majority=True,
            lemmas=(check_lock_exclusivity, check_decision_spread),
            monitor=partial(ConsensusMonitor, spread=True),
        ),
        AlgorithmInfo(
            "leadervote", consensus.leader_vote, (SELF_TRUST,), False, majority=True,
            lemmas=(check_unique_decide,), monitor=ConsensusMonitor,
        ),
        AlgorithmInfo(
            "eventual-suspector", transforms.eventual_suspector, (EVENTUAL_CRASH_COUNT, CRASH_COUNT),
            True, target_kind=EVENTUALLY_PERFECT,
            monitor=lambda n, f, inputs: SuspectorMonitor(strong_accuracy=False),
            crash_margin=lambda f: 1,
        ),
        AlgorithmInfo(
            "stable-suspector", transforms.stable_suspector, (CRASH_COUNT,), True,
            target_kind=PERFECT, lemmas=(check_round_skew,),
            monitor=lambda n, f, inputs: SuspectorMonitor(strong_accuracy=True, skew_bound=f + 1),
            crash_margin=lambda f: f + 3,
        ),
        AlgorithmInfo(
            "leader-announce", transforms.self_trust_announcer, (SELF_TRUST,), True,
            target_kind=LEADER,
        ),
        AlgorithmInfo(
            "random-selftrust", transforms.max_id_self_trust, (CRASH_COUNT,), False,
            target_kind=SELF_TRUST, lemmas=(check_id_collision,),
            monitor=lambda n, f, inputs: SelfTrustTerminalMonitor(),
            crash_margin=lambda f: 1, success_bound=Fraction(2, 3),
        ),
    )
}


def algorithm_info(name: str) -> AlgorithmInfo:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ScenarioError(f"unknown algorithm {name!r} (choose from {sorted(ALGORITHMS)})")
