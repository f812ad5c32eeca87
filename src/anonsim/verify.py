"""Trace and history checkers, each property stated once, as a monitor.

The harness certifies the four consensus properties (termination,
irrevocability, agreement, validity), each protocol's lemmas (value
stubbornness, lock exclusivity, decision spread, unique decision payloads,
bounded round skew, distinct random identifiers) and the validity of a
transformation's emulated detector history.  Each of the first two kinds is
one monitor (a `NullMonitor`): hooks that check events as they happen and
terminal checks of the final state.  `explore` runs an algorithm's monitors
as one flat monitor (`monitor_for`), their memory folded into each explored
state's identity, and `check_trace` runs them over a trace's events, on a
view built from them: it reports each property's first failure with a
witness that can be found again in the trace, and liveness as `truncated`
when the run hit its horizon.  Target validity is checked on the whole
emulated history.

Also here: the symmetric / unsymmetrical classification of detector output,
and permutation closure of a detector history.  `ALGORITHMS`, at the very
bottom, is the one table of registered algorithms: each entry names its
automaton factory, its oracle kinds, its monitors and its exploration and
campaign bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable

from . import consensus, detectors, transforms
from .detectors import CRASH_COUNT, EVENTUAL_CRASH_COUNT, EVENTUALLY_PERFECT, LEADER, PERFECT, SELF_TRUST, DetectorSpec
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


def check_target_validity(trace: Trace) -> CheckReport:
    """The emulated detector history is valid for the run's failure pattern;
    a failure names what breaks it (`DetectorSpec.broken`)."""
    info = algorithm_info(trace.scenario.algorithm)
    history = transforms.output_history(trace, info.target_kind)
    spec = DetectorSpec(info.target_kind, trace.scenario.cfg.n)
    detail = f"emulated {info.target_kind} history"
    try:
        broken = spec.broken(history, trace.scenario.pattern)
    except detectors.CellRangeError as exc:
        return CheckReport("target-validity", FAIL, [exc.cell], f"{detail} out of range: {exc}")
    return CheckReport("target-validity", FAIL if broken else PASS, broken, detail)


def check_consensus(trace: Trace) -> list[CheckReport]:
    """Termination, irrevocability, agreement, validity for one trace."""
    return _replay(trace, (ConsensusMonitor,))


def check_lemma_invariants(trace: Trace) -> list[CheckReport]:
    """The properties of the monitors the trace's algorithm lists."""
    return _replay(trace, algorithm_info(trace.scenario.algorithm).monitors)


def check_trace(trace: Trace) -> list[CheckReport]:
    """Every check that applies to the trace's algorithm; `run`, `campaign`
    and `check` all report exactly these."""
    info = algorithm_info(trace.scenario.algorithm)
    reports = check_consensus(trace) if info.consensus else [check_target_validity(trace)]
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
    disagree = [t for t in range(history.horizon + 1)
                if any(history.at(q, t) != history.at(first, t) for q in correct[1:])]
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
    return CheckReport("permutation-closure", FAIL, list(verdict.violation.mapping),
                       "validity not preserved under the witnessed relabelling")


# --- the properties, one monitor each -----------------------------------------


def _fields(state, payload: tuple, length: int, rounded: bool = False) -> tuple:
    """A protocol message's fields, and its round first if `rounded`; a
    replayed trace whose message has other fields is malformed."""
    if len(payload) != length or rounded and type(payload[1]) is not int:
        raise ScenarioError(f"event {state.at}: {payload[0]} message {list(payload)} does not have {length} fields"
                            + (", the second an integer round" if rounded else ""))
    return payload


class _Property(NullMonitor):
    """A monitor that reports on traces too.  `props` names, in report
    order, the properties whose failures it flags as "prop: detail", and
    `liveness` those that only a finished run can judge.  One with no
    `props` is explore's form of target validity, checked cell by cell."""

    props: tuple[str, ...] = ()
    liveness: tuple[str, ...] = ()
    memory: str | None = None  # the field it keeps, which its key holds with its flag
    peer_fields: tuple[str, ...] | None = ()
    witness: list = []  # the events that show `flag`, in a trace replay

    def __init__(self, n: int, f: int, inputs: tuple) -> None:
        pass

    def key(self) -> tuple:
        return (self.flag,) if self.memory is None else (getattr(self, self.memory), self.flag)

    def fail(self, state, detail: str, *earlier: int | None) -> None:
        """Flag `detail`, witnessed by the events `earlier` and the replayed one."""
        if self.flag is None:
            self.flag, self.witness = detail, [*earlier, state.at]

    def passed(self, prop: str, state) -> tuple[str, list, str]:
        """The verdict, witness and detail of a property that no check failed."""
        return PASS, [], ""


def _none_decided(state) -> tuple[str, list, str]:
    if all(a.decided is None for p, a in state.automata.items() if p not in state.crashed):
        return VACUOUS, [], "no correct process decided"
    return PASS, [], ""


class ConsensusMonitor(_Property):
    """The consensus properties: irrevocability and validity as each
    decision happens, termination and agreement on the final state."""

    # inherited hooks, named again: perfbench/tracer.py times a class's own
    clone, key, violation = NullMonitor.clone, _Property.key, NullMonitor.violation
    on_send = on_round = on_output = on_crash = NullMonitor.ignore
    props = ("termination", "irrevocability", "agreement", "validity")
    liveness, memory = ("termination",), "decide_counts"

    def __init__(self, n: int, f: int, inputs: tuple[int, ...]):
        self.inputs, self.decide_counts = inputs, (0,) * n

    def on_decide(self, state, p: int, value, r) -> None:
        counts = list(self.decide_counts)
        counts[p - 1] = min(counts[p - 1] + 1, 2)
        self.decide_counts = tuple(counts)
        if counts[p - 1] > 1:
            self.fail(state, "irrevocability: process decided more than once")
        elif value not in self.inputs:
            self.fail(state, "validity: decided value was never proposed")

    def terminal_checks(self, state) -> list[tuple[str, list]]:
        decided = {p: a.decided for p, a in sorted(state.automata.items()) if p not in state.crashed}
        deciders = [(p, v) for p, v in decided.items() if v is not None]
        problems = []
        if len(deciders) < len(decided):
            problems.append(("termination: correct processes without a decision",
                             [p for p, v in decided.items() if v is None]))
        if len({v for _, v in deciders}) > 1:
            problems.append((f"agreement: correct processes decided {sorted({v for _, v in deciders})}", deciders))
        return problems

    def passed(self, prop: str, state) -> tuple[str, list, str]:
        return _none_decided(state) if prop == "agreement" else (PASS, [], "")

    def terminal_profile(self, state) -> tuple:
        return tuple(state.automata[p].decided for p in sorted(state.automata)), tuple(sorted(state.crashed))


class StubbornnessMonitor(_Property):
    """floodmax's lemma: once a process's value is 1, its later rounds and
    its decision keep 1.  `held` has bit p once p showed 1 at a round
    switch or a decision: floodmax decides in its last round without a
    switch, so only with both is the mask a function of the automata."""

    props, memory = ("stubbornness",), "held"
    held = 0

    def on_round(self, state, p: int, r: int) -> None:
        self._show(state, p, state.automata[p].v, "dropped value 1")

    def on_decide(self, state, p: int, value, r) -> None:
        self._show(state, p, value, "decided 0 after holding 1")

    def _show(self, state, p: int, value, drop: str) -> None:
        if value == 1:
            self.held |= 1 << p
        elif value == 0 and self.held >> p & 1:
            self.fail(state, f"stubbornness: process {p} {drop}")


class LockExclusivityMonitor(_Property):
    """lockmin's lemma: no round carries Lock messages for two different
    non-null values.  `locks` holds (round, value, event) of the first Lock
    of each round that a live, unhalted process has not left: the rounds
    that can still gain one, found from the peers' `r`."""

    props, memory, peer_fields = ("lock-exclusivity",), "locks", ("r",)
    locks: tuple[tuple[int, Any, int | None], ...] = ()

    def on_send(self, state, p: int, payload) -> None:
        if payload[0] != "Lock":
            return
        _, r, tag, _ = _fields(state, payload, 4, rounded=True)
        if tag is None:
            return
        locks = self.locks
        earlier = next((lock for lock in locks if lock[0] == r), None)
        if earlier is None:
            locks += ((r, tag, state.at),)
        elif earlier[1] != tag:
            return self.fail(state, f"lock-exclusivity: round {r} locked two different values", earlier[2])
        gone = state.crashed | state.halted
        floor = min((a.r for q, a in state.automata.items() if q not in gone), default=r + 1)
        self.locks = tuple(sorted(lock for lock in locks if lock[0] >= floor))


class DecisionSpreadMonitor(_Property):
    """lockmin's lemma: the correct processes that decided did so within one
    round of each other, judged on the final state."""

    props = liveness = ("decision-spread",)

    def terminal_checks(self, state) -> list[tuple[str, list]]:
        rounds = [(p, a.decide_round) for p, a in sorted(state.automata.items())
                  if p not in state.crashed and a.decided is not None]
        spread = max((r for _, r in rounds), default=0) - min((r for _, r in rounds), default=0)
        return [(f"decision-spread: decisions spread over {spread} rounds", rounds)] if spread > 1 else []

    def passed(self, prop: str, state) -> tuple[str, list, str]:
        return _none_decided(state)


class UniqueDecideMonitor(_Property):
    """leadervote's lemma: every Decide announcement carries one value;
    `announced` is the first one's value and event."""

    props, memory = ("unique-decide",), "announced"
    announced: tuple | None = None

    def on_send(self, state, p: int, payload) -> None:
        if payload[0] == "Decide":
            value = _fields(state, payload, 2)[1]
            if self.announced is None:
                self.announced = (value, state.at)
            elif value != self.announced[0]:
                self.fail(state, f"unique-decide: announced {[self.announced[0], value]}", self.announced[1])


class RoundSkewMonitor(_Property):
    """The stable suspector's lemma: the rounds of processes not crashed
    never drift more than f+1 apart.  `skew_max` is the largest skew yet,
    capped past the bound; it is found from the peers' `r`."""

    props, memory, peer_fields = ("round-skew",), "skew_max", ("r",)
    skew_max = 0

    def __init__(self, n: int, f: int, inputs: tuple):
        self.bound = f + 1

    def on_round(self, state, p: int, r: int) -> None:
        live = [a.r for q, a in state.automata.items() if q not in state.crashed]
        skew = max(live) - min(live)
        self.skew_max = min(max(self.skew_max, skew), self.bound + 1)
        if skew > self.bound:
            self.fail(state, f"round-skew: skew {skew} exceeds bound {self.bound}")

    def passed(self, prop: str, state) -> tuple[str, list, str]:
        return PASS, [], f"max skew {self.skew_max}"


class IdCollisionMonitor(_Property):
    """The randomized self-trust construction's priced-in failure: two
    processes draw one identifier.  `drawn` holds (process, identifier,
    event) of each process's first heartbeat."""

    props, memory = ("id-collision",), "drawn"
    drawn: tuple[tuple[int, Any, int | None], ...] = ()

    def on_send(self, state, p: int, payload) -> None:
        if payload[0] != "HB" or any(q == p for q, _, _ in self.drawn):
            return
        ident = _fields(state, payload, 3)[2]
        twins = [at for _, other, at in self.drawn if other == ident]
        self.drawn = tuple(sorted((*self.drawn, (p, ident, state.at)), key=lambda d: d[0]))
        if twins:
            self.fail(state, "id-collision: duplicate identifiers drawn", twins[0])


class SuspectorMonitor(_Property):
    """Suspicion validity on explored states: with strong accuracy, no output
    suspects a live process (perfect accuracy, cell by cell), and each live
    process ends suspecting exactly the crashed ones, the constant tail that
    completeness (and eventual accuracy) needs."""

    # inherited hooks, named again: perfbench/tracer.py times a class's own
    clone, key, violation = NullMonitor.clone, _Property.key, NullMonitor.violation
    on_send = on_decide = on_round = on_crash = NullMonitor.ignore

    def __init__(self, n: int, f: int, inputs: tuple, strong_accuracy: bool = False):
        self.strong_accuracy = strong_accuracy

    def on_output(self, state, p: int, value) -> None:
        if self.strong_accuracy and not self.flag:
            early = sorted(set(value) - state.crashed)
            if early:
                self.flag = f"strong-accuracy: process {p} suspected live {early}"

    def terminal_checks(self, state) -> list[tuple[str, list]]:
        crashed = frozenset(state.crashed)
        return [
            (f"completeness: process {p} ends suspecting {sorted(a.suspect)}, crashed {sorted(crashed)}", [p])
            for p, a in sorted(state.automata.items())
            if p not in crashed and a.suspect != crashed
        ]

    def terminal_profile(self, state) -> tuple:
        return (
            tuple(tuple(sorted(a.suspect)) for p, a in sorted(state.automata.items()) if p not in state.crashed),
            tuple(sorted(state.crashed)),
        )


class SelfTrustTerminalMonitor(_Property):
    """Terminal uniqueness of the randomized construction's self-truster."""

    # inherited hooks, named again: perfbench/tracer.py times a class's own
    clone, key, violation = NullMonitor.clone, NullMonitor.key, NullMonitor.violation
    on_send = on_decide = on_round = on_output = on_crash = NullMonitor.ignore

    def terminal_checks(self, state) -> list[tuple[str, list]]:
        live = [p for p in sorted(state.automata) if p not in state.crashed]
        trusting = [p for p in live if state.automata[p].output]
        top = max(live, key=lambda p: state.automata[p].my_id)
        if trusting != [top]:
            return [(f"self-trust: trusting {trusting}, max-id live process is {top}", trusting)]
        return []

    def terminal_profile(self, state) -> tuple:
        return tuple(state.automata[p].output for p in sorted(state.automata)), tuple(sorted(state.crashed))


_HOOKS = {"send": "on_send", "decide": "on_decide", "round": "on_round", "output": "on_output", "crash": "on_crash"}


def _joined(fns: list[Callable], default: Callable) -> Callable:
    """One hook that runs `fns` in order: the one function itself if there
    is one, `default` if there is none."""
    if len(fns) < 2:
        return fns[0] if fns else default

    def run(self, state, *event) -> None:
        for fn in fns:
            fn(self, state, *event)

    return run


def monitor_for(algorithm: str, n: int, f: int, inputs: tuple[int, ...]):
    """The exploration monitor of a registered algorithm: its monitors as one
    flat monitor, of a class made now from theirs, holding all their fields
    (no two of one name).  Its key is their `memory` fields, then the first
    failure any flags.  A hook, and the terminal checks, is the function of
    the one monitor that has it, or runs those of all that have it, in
    order.  The profile is the first one's; the peer fields are the union
    of theirs (None if any is None)."""
    info = algorithm_info(algorithm)
    members = [make(n, f, inputs) for make in ((ConsensusMonitor,) if info.consensus else ()) + info.monitors]
    if not members:
        raise ScenarioError(f"algorithm {algorithm!r} has no exploration monitor, so it cannot be explored")
    fields = {}
    for m in members:
        own = {**vars(m), **({} if m.memory is None else {m.memory: getattr(m, m.memory)})}
        if fields.keys() & own:
            raise TypeError(f"{type(m).__name__} keeps {sorted(fields.keys() & own)}, as an earlier monitor does")
        fields.update(own)
    classes = tuple(dict.fromkeys(map(type, members)))
    space = {hook: _joined([getattr(c, hook) for c in classes if getattr(c, hook) is not NullMonitor.ignore],
                           NullMonitor.ignore) for hook in _HOOKS.values()}
    checks = [c.terminal_checks for c in classes if c.terminal_checks is not NullMonitor.terminal_checks]
    space["terminal_checks"] = checks[0] if len(checks) == 1 else (
        lambda self, state: [check for fn in checks for check in fn(self, state)])
    memory = [m.memory for m in members if m.memory is not None]
    get = attrgetter(*memory, "flag")
    space["key"] = (lambda self: get(self)) if memory else (lambda self: (self.flag,))
    declared = [m.peer_fields for m in members]
    space.update(clone=NullMonitor.clone, violation=NullMonitor.violation, terminal_profile=classes[0].terminal_profile,
                 peer_fields=None if None in declared else tuple(dict.fromkeys(f for d in declared for f in d)))
    monitor = object.__new__(type("FlatMonitor", classes, space))
    monitor.__dict__.update(fields)
    return monitor


def _replay(trace: Trace, makers: tuple[Callable, ...]) -> list[CheckReport]:
    """Run the trace's events through the hooks of the monitors `makers`
    build that report on traces, then their terminal checks on the final
    view, and report their properties, each with its first failure.  A
    flag is cleared once noted, so that each property's is noted."""
    cfg, inputs = trace.scenario.cfg, trace.scenario.inputs
    monitors = [m for m in (make(cfg.n, cfg.f, inputs) for make in makers) if m.props]
    hooked = {kind: [m for m in monitors if getattr(type(m), hook) is not NullMonitor.ignore]
              for kind, hook in _HOOKS.items()}
    kinds = {"round", "decide", "output", "crash", "halt", *(["send"] if hooked["send"] else [])}
    seen = {p: SimpleNamespace(r=0, v=None, lock=None, decided=None, decide_round=None, output=None)
            for p in cfg.processes}
    view, failed = SimpleNamespace(automata=seen, crashed=set(), halted=set(), at=None), {}
    for view.at, ev in [(i, ev) for i, ev in enumerate(trace.events) if ev["ev"] in kinds]:
        kind, p = ev["ev"], ev["proc"]
        if kind == "send":
            event = (ev["payload"],)
        elif kind == "round":
            a = seen[p]
            a.r, a.v, a.lock = ev["r"], ev.get("v", a.v), ev.get("lock", a.lock)
            event = (a.r,)
        elif kind == "decide":
            seen[p].decided, seen[p].decide_round = event = ev["value"], ev["r"]
        elif kind == "output":
            seen[p].output = ev["value"]
            event = (ev["value"],)
        elif kind == "crash":
            view.crashed.add(p)
            event = ()
        else:
            view.halted.add(p)
            continue
        for m in hooked[kind]:
            getattr(m, _HOOKS[kind])(view, p, *event)
            if m.flag is not None:
                prop, _, detail = m.flag.partition(": ")
                failed.setdefault(prop, (m.witness, detail))
                m.flag = None
    reports = []
    for m in monitors:
        for flag, witness in m.terminal_checks(view):
            prop, _, detail = flag.partition(": ")
            failed.setdefault(prop, (witness, detail))
        for prop in m.props:
            if trace.truncated and prop in m.liveness:
                reports.append(CheckReport(prop, TRUNCATED, detail="horizon hit; liveness not judged"))
            else:
                reports.append(CheckReport(prop, FAIL, *failed[prop]) if prop in failed
                               else CheckReport(prop, *m.passed(prop, view)))
    return reports


# --- the algorithm table -------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmInfo:
    name: str
    factory: Callable
    oracle_kinds: tuple[str, ...]
    identified: bool
    majority: bool = False  # needs n > 2f
    target_kind: str | None = None  # emulated detector, for transformations
    # (n, f, inputs) -> monitor, one per property of the entry's own; a
    # consensus protocol is checked by ConsensusMonitor first, and a
    # transformation's trace by its target validity first
    monitors: tuple[Callable[[int, int, tuple[int, ...]], _Property], ...] = ()
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
        AlgorithmInfo("floodmax", consensus.flood_max, (CRASH_COUNT,), False, monitors=(StubbornnessMonitor,)),
        AlgorithmInfo("lockmin", consensus.lock_min, (EVENTUAL_CRASH_COUNT, CRASH_COUNT), False, majority=True,
                      monitors=(LockExclusivityMonitor, DecisionSpreadMonitor)),
        AlgorithmInfo("leadervote", consensus.leader_vote, (SELF_TRUST,), False, majority=True,
                      monitors=(UniqueDecideMonitor,)),
        AlgorithmInfo("eventual-suspector", transforms.eventual_suspector, (EVENTUAL_CRASH_COUNT, CRASH_COUNT), True,
                      target_kind=EVENTUALLY_PERFECT, monitors=(SuspectorMonitor,), crash_margin=lambda f: 1),
        AlgorithmInfo("stable-suspector", transforms.stable_suspector, (CRASH_COUNT,), True, target_kind=PERFECT,
                      monitors=(partial(SuspectorMonitor, strong_accuracy=True), RoundSkewMonitor),
                      crash_margin=lambda f: f + 3),
        AlgorithmInfo("leader-announce", transforms.self_trust_announcer, (SELF_TRUST,), True, target_kind=LEADER),
        AlgorithmInfo("random-selftrust", transforms.max_id_self_trust, (CRASH_COUNT,), False, target_kind=SELF_TRUST,
                      monitors=(SelfTrustTerminalMonitor, IdCollisionMonitor), crash_margin=lambda f: 1,
                      success_bound=Fraction(2, 3)),
    )
}


def algorithm_info(name: str) -> AlgorithmInfo:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ScenarioError(f"unknown algorithm {name!r} (choose from {sorted(ALGORITHMS)})")
